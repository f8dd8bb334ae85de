package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"time"

	"gpujoule/internal/service"
	"gpujoule/internal/workloads"
)

// The service-mixed traffic. Hit jobs are small sweeps of one Table II
// workload whose points set-up primes into the disk cache. Miss jobs
// are one CoMD point each at a scale no job used before: CoMD sits at
// its minimum grid and stream sizes for every scale in
// [svcScale, 0.0078), so each miss runs the same simulation under a new
// cache key, and misses cost the same whichever the seed picks.
//
// The mix is set by the lowest cache hit rate the repository accepts
// under load: cmd/loadgen's -min-hit-rate 0.5 audit
// (scripts/cluster_smoke.sh). A block of svcBlock jobs holds one hit
// sweep of len(svcHitGPMs) points and svcBlock-1 single-point misses,
// so exactly half of the points are served from the cache.
//
// One operation is a block: op_p50_ms is the median time the client
// takes to run a block's four jobs. The median job would sit in the
// lower part of the misses' latencies, the part a slow host moves most:
// over ten runs it moved 61% where the mean job moved 41%.
const (
	svcScale     = reportScale
	svcHitGPMs   = "1,2,4"
	svcMissApp   = "CoMD"
	svcMissGPMs  = "4"
	svcMissStep  = 1e-9 // scale step between successive miss points
	svcBlock     = 4    // jobs per block; one of them is a hit
	svcMinSample = 100  // per job kind, so ten samples lie beyond p90
)

func hitSpec(app string) service.JobSpec {
	return service.JobSpec{Workloads: app, Scale: svcScale, GPMs: svcHitGPMs, BWs: "2x"}
}

func missSpec(k int) service.JobSpec {
	return service.JobSpec{Workloads: svcMissApp, Scale: svcScale + float64(k+1)*svcMissStep, GPMs: svcMissGPMs, BWs: "2x"}
}

// hitApps is the hit pool: the evaluation workloads.
func hitApps() []string {
	var out []string
	for _, g := range workloads.Generators() {
		if g.InEval14 {
			out = append(out, g.Name)
		}
	}
	return out
}

// svcInst is an in-process service on a loopback listener with one
// closed-loop client: it submits a job, follows its event stream to the
// end, fetches the result, and only then sends the next job.
//
// One client, not nproc: on a 2-vCPU host with one CPU-bound neighbour
// thread, the median job of two concurrent clients took 93% longer
// while one client's took 11% longer. Two clients keep both vCPUs busy,
// so they time the host's scheduler more than the service.
type svcInst struct {
	e       *env
	variant string
	dir     string
	srv     *service.Server
	hs      *http.Server
	served  chan error
	client  *service.Client
	tr      *http.Transport

	rng      *rand.Rand
	block    []bool // kinds left in the current block; true = miss
	nextMiss int
	hits     []string
}

type svcJob struct {
	miss bool
	app  string
	spec service.JobSpec
}

func setupService(e *env) (instance, error) {
	s, err := startService(e)
	if err != nil {
		return nil, err
	}
	// Prime the disk cache: every hit sweep runs once, so in the timed
	// loop hit jobs are served from disk.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for _, app := range s.hits {
		if r := s.job(ctx, svcJob{app: app, spec: hitSpec(app)}, nil); r.err != nil {
			s.close()
			return nil, fmt.Errorf("priming %s: %w", app, r.err)
		}
	}
	return s, nil
}

// startService starts the server on a fresh cache directory and dials
// the client. Traced runs turn the service's counters on.
func startService(e *env) (*svcInst, error) {
	if err := os.MkdirAll(e.tmp, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(e.tmp, "cache-")
	if err != nil {
		return nil, err
	}
	s := &svcInst{
		e:       e,
		variant: "plain",
		dir:     dir,
		rng:     rand.New(rand.NewSource(e.seed)),
		hits:    hitApps(),
		served:  make(chan error, 1),
	}
	if e.traced {
		s.variant = "counters"
	}
	srv, err := service.New(service.Options{CacheDir: s.dir, Counters: e.traced})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s.srv = srv
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s.hs = &http.Server{Handler: srv.Handler()}
	go func() { s.served <- s.hs.Serve(ln) }()
	s.tr = &http.Transport{}
	s.client, err = service.Dial(service.WithBaseURL("http://"+ln.Addr().String()),
		service.WithHTTPClient(&http.Client{Transport: s.tr}))
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *svcInst) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err == nil {
		<-s.served
	}
	s.srv.Close()
	if s.tr != nil {
		s.tr.CloseIdleConnections()
	}
	os.RemoveAll(s.dir)
}

// next draws the next job: blocks of svcBlock jobs with one hit at a
// seed-drawn position, hit sweeps drawn from the pool by the seed.
func (s *svcInst) next() svcJob {
	if len(s.block) == 0 {
		s.block = make([]bool, svcBlock)
		for i := range s.block {
			s.block[i] = true
		}
		s.block[s.rng.Intn(svcBlock)] = false
	}
	miss := s.block[0]
	s.block = s.block[1:]
	if miss {
		k := s.nextMiss
		s.nextMiss++
		return svcJob{miss: true, app: svcMissApp, spec: missSpec(k)}
	}
	app := s.hits[s.rng.Intn(len(s.hits))]
	return svcJob{app: app, spec: hitSpec(app)}
}

// jobResult is one job's client-side timing and outcome.
type jobResult struct {
	miss                                      bool
	submit, firstEvent, stream, result, total time.Duration
	queueWait                                 time.Duration
	retries                                   int
	fin                                       service.JobEvent
	doc                                       *service.ResultDoc
	err                                       error
}

// job runs one job and checks its document.
func (s *svcInst) job(ctx context.Context, j svcJob, tr *tracer) jobResult {
	r := s.runJob(ctx, j, tr)
	if r.err == nil {
		r.err = s.checkDoc(j, r.fin, r.doc)
	}
	// Only traced phases read documents afterwards (the miss results'
	// statistics); keeping the rest would grow the process with the
	// number of jobs a run completes.
	if tr == nil || !j.miss || r.err != nil {
		r.doc = nil
	}
	return r
}

// runJob runs one job through the client: submit, follow the event
// stream to its terminal event, fetch the result document.
func (s *svcInst) runJob(ctx context.Context, j svcJob, tr *tracer) jobResult {
	c := s.client
	r := jobResult{miss: j.miss}
	root := tr.begin("job "+j.app, 0, 0)
	defer root.finish()
	t0 := time.Now()
	var st service.JobStatus
	for {
		var err error
		st, err = c.Submit(ctx, j.spec)
		var qf *service.QueueFullError
		if errors.As(err, &qf) {
			r.retries++
			time.Sleep(max(qf.RetryAfter, 10*time.Millisecond))
			continue
		}
		if err != nil {
			r.err = err
			return r
		}
		break
	}
	t1 := time.Now()
	var tFirst time.Time
	fin, err := c.Stream(ctx, st.ID, 0, func(service.JobEvent) error {
		if tFirst.IsZero() {
			tFirst = time.Now()
		}
		return nil
	})
	if err != nil {
		r.err = err
		return r
	}
	t2 := time.Now()
	doc, err := c.Result(ctx, st.ID)
	t3 := time.Now()
	if err != nil {
		r.err = err
		return r
	}
	r.submit, r.firstEvent, r.stream, r.result, r.total = t1.Sub(t0), tFirst.Sub(t1), t2.Sub(tFirst), t3.Sub(t2), t3.Sub(t0)
	tr.record("submit", root.id(), root.op(), t0, t1)
	tr.record("first_event", root.id(), root.op(), t1, tFirst)
	tr.record("stream", root.id(), root.op(), tFirst, t2)
	tr.record("result", root.id(), root.op(), t2, t3)
	if tr != nil {
		if full, err := c.Status(ctx, st.ID); err == nil {
			r.queueWait = full.Started.Sub(full.Created)
		}
	}
	r.fin, r.doc = fin, doc
	return r
}

// checkDoc verifies a job's result document: the server's digest, and
// the recorded digest — of the whole document for a hit sweep, of the
// simulation result for a miss point, whose cache key is new each time.
func (s *svcInst) checkDoc(j svcJob, fin service.JobEvent, doc *service.ResultDoc) error {
	if fin.State != service.StateDone {
		return fmt.Errorf("job %s ended %s: %s", j.app, fin.State, fin.Error)
	}
	sum := sha256Hex(service.RenderResultDoc(*doc))
	if err := checkDigest("result document vs server digest", sum, fin.Digest); err != nil {
		return err
	}
	if !j.miss {
		return checkDigest("hit job "+j.app, sum, s.e.golden.Hit[s.variant][j.app])
	}
	pts, err := service.ExpandPoints(j.spec)
	if err != nil {
		return err
	}
	if len(doc.Points) != 1 || doc.Points[0].SimKey != pts[0].Key() {
		return fmt.Errorf("miss job: %w (document is not the point %s)", errMismatch, pts[0].Key())
	}
	raw, err := json.Marshal(doc.Points[0].Result)
	if err != nil {
		return err
	}
	return checkDigest("miss job result", sha256Hex(raw), s.e.golden.Miss[s.variant])
}

func (s *svcInst) measure(d time.Duration, tr *tracer) (*phase, error) {
	ctx, cancel := context.WithTimeout(context.Background(), d+time.Minute)
	defer cancel()
	eng0 := s.srv.Engine().Profile()
	cache0 := s.srv.Cache().Stats()
	coal0 := s.srv.Coalesced()
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	a0 := allocatedMB()
	start := time.Now()
	// The window ends on a block boundary, so every block it timed is
	// whole.
	var results []jobResult
	for (time.Since(start) < d || len(s.block) > 0) && ctx.Err() == nil {
		results = append(results, s.job(ctx, s.next(), tr))
	}
	ph := &phase{allocMB: allocatedMB() - a0, wall: time.Since(start)}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	ph.rssMB = []float64{rss}
	eng := s.srv.Engine().Profile()
	insts := eng.WarpInstructions - eng0.WarpInstructions
	ph.minstPerS = float64(insts) / ph.wall.Seconds() / 1e6

	var hitMS, missMS []float64
	var sum jobResult
	var agg resultAgg
	var blockMS float64
	for i, r := range results {
		ph.tally.record(r.err)
		ms := float64(r.total.Nanoseconds()) / 1e6
		if blockMS += ms; (i+1)%svcBlock == 0 {
			ph.opsMS = append(ph.opsMS, blockMS)
			blockMS = 0
		}
		if r.miss {
			missMS = append(missMS, ms)
			if r.doc != nil {
				agg.add(r.doc.Points[0].Result)
			}
		} else {
			hitMS = append(hitMS, ms)
		}
		sum.submit += r.submit
		sum.firstEvent += r.firstEvent
		sum.stream += r.stream
		sum.result += r.result
		sum.total += r.total
		sum.queueWait += r.queueWait
		sum.retries += r.retries
	}
	q := map[string]float64{}
	for _, k := range []struct {
		name string
		xs   []float64
	}{{"hit", hitMS}, {"miss", missMS}} {
		if len(k.xs) < svcMinSample {
			return nil, fmt.Errorf("%d %s jobs in %v, need %d: lengthen --seconds", len(k.xs), k.name, d, svcMinSample)
		}
		p50, _ := percentile(k.xs, 50)
		p90, err := percentile(k.xs, 90)
		if err != nil {
			return nil, err
		}
		q[k.name+"50"], q[k.name+"90"] = p50, p90
		ph.notes = append(ph.notes, fmt.Sprintf("%s jobs: n=%d p50=%.2fms p90=%.2fms", k.name, len(k.xs), p50, p90))
	}
	if tr == nil {
		return ph, nil
	}
	jobs := float64(len(results))
	cache := s.srv.Cache().Stats()
	share := func(x time.Duration) float64 { return x.Seconds() / sum.total.Seconds() }
	ph.layers = agg.layers(int(agg.n))
	for k, v := range map[string]float64{
		"sim.ns_per_warp_inst":       (eng.SimWallSeconds - eng0.SimWallSeconds) * 1e9 / float64(insts),
		"runner.points":              float64(eng.Points-eng0.Points) / jobs,
		"runner.simulated":           float64(eng.Simulated-eng0.Simulated) / jobs,
		"runner.memo_hit_ratio":      float64(eng.CacheHits-eng0.CacheHits) / float64(eng.Points-eng0.Points),
		"runner.overhead_share":      1 - (eng.SimWallSeconds-eng0.SimWallSeconds)/(eng.BatchWallSeconds-eng0.BatchWallSeconds),
		"resultcache.hits":           float64(cache.Hits-cache0.Hits) / jobs,
		"resultcache.misses":         float64(cache.Misses-cache0.Misses) / jobs,
		"resultcache.writes":         float64(cache.Puts-cache0.Puts) / jobs,
		"resultcache.hit_ratio":      float64(cache.Hits-cache0.Hits) / float64(cache.Hits-cache0.Hits+cache.Misses-cache0.Misses),
		"service.submit_share":       share(sum.submit),
		"service.queue_wait_share":   share(sum.queueWait),
		"service.first_event_share":  share(sum.firstEvent),
		"service.stream_share":       share(sum.stream),
		"service.result_share":       share(sum.result),
		"service.miss_hit_p50_ratio": q["miss50"] / q["hit50"],
		"service.hit_tail_ratio":     q["hit90"] / q["hit50"],
		"service.miss_tail_ratio":    q["miss90"] / q["miss50"],
		"service.retries_429":        float64(sum.retries),
		"service.coalesced":          float64(s.srv.Coalesced() - coal0),
	} {
		ph.layers[k] = v
	}
	return ph, nil
}

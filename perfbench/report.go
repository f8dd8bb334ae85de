package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sync"
	"time"

	"gpujoule/internal/harness"
	"gpujoule/internal/obs"
	"gpujoule/internal/runner"
)

// reportExperiments are the steps of harness.RunAll, in its order; the
// traced run times each one on the same harness.
var reportExperiments = []string{"tables", "validate", "fig2", "fig6", "fig7", "fig8", "fig9",
	"fig10", "linkenergy", "amortization", "headline", "ablation"}

// reportInst is the paper-report workload: one operation is a fresh
// single-worker harness running the whole evaluation (RunAll), its
// report compared byte for byte with the recorded digest. A fresh
// harness per report keeps the runner's memo from carrying results
// across operations. The report has no seed-dependent input.
type reportInst struct{ e *env }

func setupReport(e *env) (instance, error) { return &reportInst{e}, nil }

func (r *reportInst) close() {}

func (r *reportInst) measure(d time.Duration, tr *tracer) (*phase, error) {
	want := r.e.golden.Report
	var (
		expWall  = map[string]time.Duration{}
		opWall   time.Duration
		prof     []obs.RunnerProfile
		simWall  time.Duration
		simInsts uint64
		last     *harness.Harness
		lastPT   *pointTracer
	)
	ph, err := seqLoop(d, func() (uint64, error) {
		var buf bytes.Buffer
		h, pt := newReportHarness(tr)
		last, lastPT = h, pt
		t0 := time.Now()
		var err error
		if tr == nil {
			err = h.RunAll(&buf)
		} else {
			root := tr.begin("report", 0, 0)
			pt.setParent(root)
			err = runAllSteps(h, &buf, func(name string, f func() error) error {
				s := tr.begin(name, root.id(), root.op())
				pt.setParent(s)
				err := f()
				expWall[name] += s.finish()
				return err
			})
			root.finish()
			opWall += time.Since(t0)
		}
		st := h.Engine().Stats()
		prof = append(prof, h.Engine().Profile())
		simWall += st.SimWall
		simInsts += st.Instructions
		if err != nil {
			return st.Instructions, err
		}
		return st.Instructions, checkDigest("paper report", sha256Hex(buf.Bytes()), want)
	})
	if err != nil {
		return nil, err
	}
	if tr != nil && len(prof) > 0 {
		// The simulated statistics of one report: every point the last
		// report simulated, read back from its engine's memo.
		rs, err := last.Engine().Run(context.Background(), lastPT.simulated)
		if err != nil {
			return nil, err
		}
		var agg resultAgg
		for _, r := range rs {
			agg.add(r)
		}
		ph.layers = agg.layers(1)
		for name, w := range expWall {
			ph.layers["harness."+name+"_share"] = w.Seconds() / opWall.Seconds()
		}
		p := prof[len(prof)-1]
		ph.layers["runner.points"] = float64(p.Points)
		ph.layers["runner.simulated"] = float64(p.Simulated)
		ph.layers["runner.memo_hit_ratio"] = float64(p.CacheHits) / float64(p.Points)
		var batch, sim float64
		for _, p := range prof {
			batch += p.BatchWallSeconds
			sim += p.SimWallSeconds
		}
		ph.layers["runner.overhead_share"] = (batch - sim) / batch
		ph.layers["sim.ns_per_warp_inst"] = float64(simWall.Nanoseconds()) / float64(simInsts)
	}
	return ph, nil
}

// pointTracer turns the run engine's events into simulate spans under
// the experiment span current when the point started, and lists the
// points the engine simulated.
type pointTracer struct {
	tr        *tracer
	mu        sync.Mutex
	parent    spanHandle
	started   map[string]time.Time
	simulated []runner.Point
}

func (p *pointTracer) setParent(s spanHandle) {
	p.mu.Lock()
	p.parent = s
	p.mu.Unlock()
}

func (p *pointTracer) onEvent(ev runner.Event) {
	p.mu.Lock()
	defer p.mu.Unlock()
	key := ev.Point.Key()
	switch {
	case ev.Kind == runner.PointStarted:
		p.started[key] = time.Now()
	case ev.Kind == runner.PointDone && !ev.CacheHit:
		if t0, ok := p.started[key]; ok {
			p.tr.record("simulate "+ev.Point.String(), p.parent.id(), p.parent.op(), t0, time.Now())
			delete(p.started, key)
		}
		p.simulated = append(p.simulated, ev.Point)
	}
}

// newReportHarness builds the harness one report runs on; traced
// reports run with counters and record a span per simulated point.
func newReportHarness(tr *tracer) (*harness.Harness, *pointTracer) {
	opts := harness.Options{Scale: reportScale, Workers: 1}
	pt := &pointTracer{tr: tr, started: map[string]time.Time{}}
	if tr != nil {
		opts.Counters = true
		opts.OnEvent = pt.onEvent
	}
	return harness.NewWithOptions(opts), pt
}

// runAllSteps writes the same report as harness.RunAll, one public
// experiment at a time, calling step around each so it can be timed.
func runAllSteps(h *harness.Harness, w io.Writer, step func(name string, f func() error) error) error {
	steps := []func() error{
		func() error {
			if err := harness.TableIII().Fprint(w); err != nil {
				return err
			}
			return harness.TableIV().Fprint(w)
		},
		func() error {
			v, err := h.Validate()
			if err != nil {
				return err
			}
			for _, t := range harness.ValidationTables(v) {
				if err := t.Fprint(w); err != nil {
					return err
				}
			}
			return nil
		},
		emit(w, h.Figure2, harness.Fig2Table),
		emit(w, h.Figure6, harness.Fig6Table),
		emit(w, h.Figure7, harness.Fig7Table),
		emit(w, h.Figure8, harness.Fig8Table),
		emit(w, h.Figure9, harness.Fig9Table),
		emit(w, h.Figure10, harness.Fig10Table),
		emit(w, h.LinkEnergyStudy, harness.LinkEnergyTable),
		emit(w, h.AmortizationStudy, harness.AmortizationTable),
		emit(w, h.HeadlineStudy, harness.HeadlineTable),
		emit(w, h.AblationStudy, harness.AblationTable),
	}
	for i, f := range steps {
		if err := step(reportExperiments[i], f); err != nil {
			return err
		}
	}
	return nil
}

// emit runs one experiment and writes its table.
func emit[T any](w io.Writer, run func() (T, error), render func(T) *harness.Table) func() error {
	return func() error {
		v, err := run()
		if err != nil {
			return err
		}
		return render(v).Fprint(w)
	}
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// checkDigest compares an output digest with the recorded one.
func checkDigest(what, got, want string) error {
	if got != want {
		return fmt.Errorf("%s: %w (got %.12s…, recorded %.12s…)", what, errMismatch, got, want)
	}
	return nil
}

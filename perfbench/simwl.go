package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"gpujoule/internal/core"
	"gpujoule/internal/obs"
	"gpujoule/internal/sim"
	"gpujoule/internal/trace"
	"gpujoule/internal/workloads"
)

// simInst is a cycle-engine workload: one operation is a pass that
// calls sim.Simulate once per point, in an order drawn from the seed,
// and prices each result with the Eq. 4 projection model. The inputs
// themselves are fixed (the Table II generators take no seed).
type simInst struct {
	e      *env
	points []simPoint
	rng    *rand.Rand
}

type simPoint struct {
	app   *trace.App
	cfg   sim.Config
	model *core.Model
}

func (p simPoint) key() string { return p.app.Name + "@" + p.cfg.Name() }

// sim-issue: compute-bound apps on a 2x ring, where SM issue and the
// ready queue dominate the profile.
func setupSimIssue(e *env) (instance, error) {
	return setupSim(e, sim.MultiGPM(32, sim.BW2x), "CoMD", "RSBench")
}

// sim-fabric: memory-bound apps on a 1x ring, where the bandwidth
// buckets under the fabric dominate the profile.
func setupSimFabric(e *env) (instance, error) {
	return setupSim(e, sim.MultiGPM(32, sim.BW1x), "Lulesh-150", "MiniAMR")
}

// simScale is the paper scale: it fills the 32-GPM design.
const simScale = 1.0

func setupSim(e *env, cfg sim.Config, apps ...string) (instance, error) {
	in := &simInst{e: e, rng: rand.New(rand.NewSource(e.seed))}
	for _, name := range apps {
		app, err := workloads.ByName(name, workloads.Params{Scale: simScale})
		if err != nil {
			return nil, err
		}
		in.points = append(in.points, simPoint{app, cfg, projectionModel(cfg)})
	}
	return in, nil
}

// projectionModel is the Eq. 4 model for a configuration's integration
// domain, as the harness prices it.
func projectionModel(cfg sim.Config) *core.Model {
	if cfg.Domain == sim.DomainOnPackage {
		return core.ProjectionModel(core.OnPackageLinks())
	}
	return core.ProjectionModel(core.OnBoardLinks())
}

func (s *simInst) close() {}

// simDigest is what the golden file records for one simulation.
type simDigest struct {
	Cycles       uint64  `json:"cycles"`
	CountsSHA256 string  `json:"counts_sha256"`
	EnergyJ      float64 `json:"energy_j"`
}

func digestOf(r *sim.Result, m *core.Model) (simDigest, error) {
	counts, err := json.Marshal(r.Counts)
	if err != nil {
		return simDigest{}, err
	}
	return simDigest{r.Counts.Cycles, sha256Hex(counts), m.EstimateEnergy(&r.Counts)}, nil
}

func (s *simInst) measure(d time.Duration, tr *tracer) (*phase, error) {
	var opts []sim.Option
	if tr != nil {
		opts = append(opts, sim.WithCounters())
	}
	var (
		agg     resultAgg
		simWall time.Duration
		passes  int
	)
	ph, err := seqLoop(d, func() (uint64, error) {
		passes++
		root := tr.begin("pass", 0, 0)
		defer root.finish()
		var insts uint64
		var firstErr error
		for _, i := range s.rng.Perm(len(s.points)) {
			p := s.points[i]
			sp := tr.begin("simulate "+p.key(), root.id(), root.op())
			t0 := time.Now()
			r, err := sim.Simulate(context.Background(), p.cfg, p.app, opts...)
			if tr != nil {
				simWall += time.Since(t0)
			}
			if err == nil {
				insts += r.Counts.TotalWarpInstructions()
				err = s.check(p, r, tr != nil)
				agg.add(r)
			}
			sp.finish()
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return insts, firstErr
	})
	if err != nil {
		return nil, err
	}
	if tr != nil && passes > 0 {
		ph.layers = agg.layers(passes)
		ph.layers["sim.ns_per_warp_inst"] = float64(simWall.Nanoseconds()) / float64(agg.insts)
	}
	return ph, nil
}

// check compares a result with the golden digest; traced runs also
// attribute its energy, which must reconcile with the Eq. 4 total.
func (s *simInst) check(p simPoint, r *sim.Result, counters bool) error {
	got, err := digestOf(r, p.model)
	if err != nil {
		return err
	}
	want, ok := s.e.golden.Sim[p.key()]
	if !ok {
		return fmt.Errorf("%s: no recorded digest", p.key())
	}
	if got != want {
		return fmt.Errorf("%s: %w (cycles %d vs %d, energy %v vs %v)", p.key(), errMismatch,
			got.Cycles, want.Cycles, got.EnergyJ, want.EnergyJ)
	}
	if counters {
		if _, err := obs.AttributeEnergy(p.model, &r.Counts, r.Counters); err != nil {
			return fmt.Errorf("%s: energy attribution: %w", p.key(), err)
		}
	}
	return nil
}

// resultAgg sums the simulated statistics of a set of results.
type resultAgg struct {
	insts, cycles, n             uint64
	l1Acc, l1Miss, l2Acc, l2Miss uint64
	remote, local, linkBytes     uint64
	linkQueue                    float64
}

func (a *resultAgg) add(r *sim.Result) {
	a.n++
	a.insts += r.Counts.TotalWarpInstructions()
	a.cycles += r.Counts.Cycles
	a.l1Acc += r.L1Accesses
	a.l1Miss += r.L1Misses
	a.l2Acc += r.L2Accesses
	a.l2Miss += r.L2Misses
	a.remote += r.RemoteLineFills
	a.local += r.LocalLineFills
	if c := r.Counters; c != nil {
		a.linkBytes += c.TotalLinkBytes()
		for _, l := range c.Links {
			a.linkQueue += l.QueueCycles
		}
	}
}

// layers reports the sums per operation, and the ratios.
func (a *resultAgg) layers(ops int) map[string]float64 {
	per := func(x float64) float64 { return x / float64(ops) }
	ratio := func(num, den uint64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	return map[string]float64{
		"sim.warp_insts":                 per(float64(a.insts)),
		"sim.cycles":                     per(float64(a.cycles)),
		"memsys.l1_hit_ratio":            ratio(a.l1Acc-a.l1Miss, a.l1Acc),
		"memsys.l2_hit_ratio":            ratio(a.l2Acc-a.l2Miss, a.l2Acc),
		"interconnect.remote_fill_ratio": ratio(a.remote, a.remote+a.local),
		"interconnect.link_bytes":        per(float64(a.linkBytes)),
		"interconnect.link_queue_cycles": per(a.linkQueue),
	}
}

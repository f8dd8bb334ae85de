package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"gpujoule/internal/service"
	"gpujoule/internal/sim"
)

// golden holds the recorded outputs every run is checked against. The
// service's "plain" entries check untraced runs, its "counters" entries
// traced runs, whose result documents carry the observability counters.
type golden struct {
	ModelMAEPct float64                      `json:"model_mae_pct"`
	Report      string                       `json:"report_sha256"`
	Sim         map[string]simDigest         `json:"sim"`
	Hit         map[string]map[string]string `json:"service_hit_doc_sha256"`
	Miss        map[string]string            `json:"service_miss_result_sha256"`
}

func loadGolden(b []byte) (*golden, error) {
	var g golden
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("golden digests: %w", err)
	}
	if g.Report == "" || g.Sim == nil || g.Hit == nil || g.Miss == nil {
		return nil, fmt.Errorf("golden digests are incomplete; regenerate them with --record")
	}
	return &g, nil
}

// recordGolden runs every workload's outputs once on the current
// program and writes their digests to path. Counters must not change
// the report or any simulation, so recording fails if they do.
func recordGolden(path string) error {
	g := &golden{
		Sim:  map[string]simDigest{},
		Hit:  map[string]map[string]string{},
		Miss: map[string]string{},
	}
	var err error
	if g.ModelMAEPct, err = validateModel(); err != nil {
		return err
	}

	var runAll, steps bytes.Buffer
	h, _ := newReportHarness(nil)
	if err := h.RunAll(&runAll); err != nil {
		return err
	}
	h, _ = newReportHarness(newTracer())
	if err := runAllSteps(h, &steps, func(_ string, f func() error) error { return f() }); err != nil {
		return err
	}
	if !bytes.Equal(runAll.Bytes(), steps.Bytes()) {
		return fmt.Errorf("the step-by-step report with counters differs from RunAll")
	}
	g.Report = sha256Hex(runAll.Bytes())

	e := &env{seed: 1, golden: g, tmp: tmpDir + "/record"}
	defer os.RemoveAll(e.tmp)
	for _, setup := range []func(*env) (instance, error){setupSimIssue, setupSimFabric} {
		in, err := setup(e)
		if err != nil {
			return err
		}
		for _, p := range in.(*simInst).points {
			plain, err := sim.Simulate(context.Background(), p.cfg, p.app)
			if err != nil {
				return err
			}
			counted, err := sim.Simulate(context.Background(), p.cfg, p.app, sim.WithCounters())
			if err != nil {
				return err
			}
			d, err := digestOf(plain, p.model)
			if err != nil {
				return err
			}
			if dc, err := digestOf(counted, p.model); err != nil || dc != d {
				return fmt.Errorf("%s: counters change the result (%v)", p.key(), err)
			}
			g.Sim[p.key()] = d
		}
	}

	for _, traced := range []bool{false, true} {
		e.traced = traced
		if err := recordService(e, g); err != nil {
			return err
		}
	}

	out, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// recordService records the hit sweeps' documents and the miss point's
// result for one variant. It checks that misses far apart in the scale
// sequence give the same result, which the miss check relies on.
func recordService(e *env, g *golden) error {
	s, err := startService(e)
	if err != nil {
		return err
	}
	defer s.close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	hits := map[string]string{}
	for _, app := range s.hits {
		r := s.runJob(ctx, svcJob{app: app, spec: hitSpec(app)}, nil)
		if r.err != nil {
			return r.err
		}
		hits[app] = sha256Hex(service.RenderResultDoc(*r.doc))
	}
	g.Hit[s.variant] = hits
	var first string
	for _, k := range []int{0, 1_000_000} {
		r := s.runJob(ctx, svcJob{miss: true, app: svcMissApp, spec: missSpec(k)}, nil)
		if r.err != nil {
			return r.err
		}
		raw, err := json.Marshal(r.doc.Points[0].Result)
		if err != nil {
			return err
		}
		if sum := sha256Hex(raw); first == "" {
			first = sum
		} else if sum != first {
			return fmt.Errorf("miss points %d apart give different results", k)
		}
	}
	g.Miss[s.variant] = first
	return nil
}

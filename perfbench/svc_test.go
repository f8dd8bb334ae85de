package main

import (
	"context"
	"testing"
	"time"
)

// TestServiceJobs drives the service workload's client as the timed
// loop does and checks every document against the recorded digests.
func TestServiceJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("primes a service cache")
	}
	g, err := loadGolden(goldenJSON)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := setupService(&env{seed: 1, golden: g, tmp: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	s := inst.(*svcInst)
	defer s.close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	tr := newTracer()
	for i := 0; i < 2*svcBlock; i++ {
		j := s.next()
		if r := s.job(ctx, j, tr); r.err != nil {
			t.Errorf("%s job (miss=%v): %v", j.app, j.miss, r.err)
		}
	}
	if want := 2 * (svcBlock - 1); s.nextMiss != want {
		t.Errorf("%d misses drawn, want all but one per block: %d", s.nextMiss, want)
	}
	if tr.len() == 0 {
		t.Error("traced jobs recorded no spans")
	}
}

package main

import (
	"errors"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestPercentileRefusesThinTail(t *testing.T) {
	p90, err := percentile(seq(100), 90)
	if err != nil || p90 != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90 with ten samples beyond", p90, err)
	}
	if _, err := percentile(seq(99), 90); err == nil {
		t.Fatal("p90 of 99 samples has nine beyond it and must be refused")
	}
	if _, err := percentile(seq(1000), 99); err != nil {
		t.Fatalf("p99 of 1000 samples has ten beyond it: %v", err)
	}
	if p50, err := percentile(seq(3), 50); err != nil || p50 != 2 {
		t.Fatalf("p50 of 1..3 = %v, %v", p50, err)
	}
	if p50, err := percentile(seq(4), 50); err != nil || p50 != 2 {
		t.Fatalf("p50 of 1..4 = %v, %v; want the lower middle", p50, err)
	}
	if _, err := percentile(nil, 50); !errors.Is(err, errNoSamples) {
		t.Fatalf("percentile of no samples: %v", err)
	}
	// Without the tail rule, the upper quartile of a few operations'
	// peaks is the largest of three or fewer and skips one outlier of five.
	for n, want := range map[int]float64{1: 1, 3: 3, 5: 4, 10: 8} {
		if q, err := nearestRank(seq(n), 75); err != nil || q != want {
			t.Fatalf("upper quartile of 1..%d = %v, %v; want %v", n, q, err, want)
		}
	}
}

func TestTallyCountsMismatchesAndErrors(t *testing.T) {
	var tl tally
	tl.record(nil)
	tl.record(checkDigest("report", "aaaa", "aaaa"))
	mismatch := checkDigest("report", "aaaa", "bbbb")
	if !errors.Is(mismatch, errMismatch) {
		t.Fatalf("checkDigest mismatch = %v, want errMismatch", mismatch)
	}
	tl.record(mismatch)
	tl.record(errors.New("simulation failed"))
	if tl.attempted != 4 || tl.failed != 2 {
		t.Fatalf("tally = %+v, want 4 attempted, 2 failed", tl)
	}
	if tl.failFrac() != 0.5 || tl.okFrac() != 0.5 {
		t.Fatalf("failFrac %v okFrac %v, want 0.5 each", tl.failFrac(), tl.okFrac())
	}
	var none tally
	if none.okFrac() != 0 {
		t.Fatal("a run that attempted nothing must not read as all ok")
	}
}

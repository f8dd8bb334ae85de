package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

func TestAttributeSyntheticProfile(t *testing.T) {
	samples := []stackSample{
		{[]string{"gpujoule/internal/sim.(*readyQueue).fixIfQueued", "gpujoule/internal/sim.(*smState).issue"}, 40},
		{[]string{"gpujoule/internal/sim.(*smState).advance", "gpujoule/internal/sim.Simulate"}, 10},
		// A runtime helper counts toward the innermost layer above it.
		{[]string{"runtime.memmove", "gpujoule/internal/memsys.(*BWResource).Acquire", "gpujoule/internal/interconnect.(*Ring).Send"}, 15},
		{[]string{"gpujoule/internal/interconnect.(*Ring).Send", "gpujoule/internal/sim.(*GPU).access"}, 5},
		{[]string{"gpujoule/internal/memsys.(*Cache).Access"}, 5},
		{[]string{"gpujoule/internal/memsys.(*PageTable).Home"}, 1},
		// GC anywhere in the stack wins over the layer that allocated.
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, 6},
		{[]string{"runtime.mallocgc", "runtime.gcAssistAlloc", "gpujoule/internal/sim.Simulate"}, 2},
		{[]string{"syscall.Syscall", "net.(*conn).Write", "net/http.(*conn).serve"}, 4},
		{[]string{"encoding/json.(*decodeState).object", "gpujoule/internal/resultcache.decode"}, 3},
		{[]string{"crypto/sha256.block", "gpujoule/internal/resultcache.(*Cache).Get"}, 3},
		{[]string{"gpujoule/internal/core.(*Model).Estimate"}, 2},
		{[]string{"gpujoule/internal/runner.(*Engine).Run.func1"}, 1},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, 3},
	}
	want := map[string]float64{
		"sim.readyqueue_share":    40,
		"sim.issue_share":         10,
		"memsys.bw_share":         15,
		"interconnect.share":      5,
		"memsys.cache_share":      5,
		"memsys.pagetable_share":  1,
		"runtime.gc_share":        8,
		"service.http_json_share": 7,
		"resultcache.share":       3,
		"core.share":              2,
		"runner.share":            1,
		"other.share":             3,
	}
	got := attribute(samples)
	if len(got) != len(shareNames) {
		t.Fatalf("attribute returned %d buckets, want all %d", len(got), len(shareNames))
	}
	var sum float64
	for _, name := range shareNames {
		sum += got[name]
		if w := want[name] / 100; math.Abs(got[name]-w) > 1e-12 {
			t.Errorf("%s = %v, want %v", name, got[name], w)
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
}

func TestSplitFunc(t *testing.T) {
	for _, c := range []struct{ fn, pkg, recv string }{
		{"gpujoule/internal/sim.(*readyQueue).fixIfQueued", "gpujoule/internal/sim", "readyQueue"},
		{"gpujoule/internal/memsys.BWResource.String", "gpujoule/internal/memsys", "BWResource"},
		{"gpujoule/internal/runner.(*Engine).Run.func1", "gpujoule/internal/runner", "Engine"},
		{"gpujoule/internal/harness.emit[...]", "gpujoule/internal/harness", "emit"},
		{"net/http.(*conn).serve", "net/http", "conn"},
		{"runtime.mallocgc", "runtime", "mallocgc"},
		{"main.main", "main", "main"},
	} {
		if pkg, recv := splitFunc(c.fn); pkg != c.pkg || recv != c.recv {
			t.Errorf("splitFunc(%q) = %q, %q; want %q, %q", c.fn, pkg, recv, c.pkg, c.recv)
		}
	}
}

//go:noinline
func spin(d time.Duration) (n int) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		n++
	}
	return n
}

func TestParseProfileOfThisProcess(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseProfile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var inSpin, total int64
	for _, s := range samples {
		total += s.value
		for _, f := range s.frames {
			if f == "gpujoule/perfbench.spin" || f == "main.spin" {
				inSpin += s.value
				break
			}
		}
	}
	if total == 0 || inSpin < total/2 {
		t.Fatalf("spin holds %d of %d profiled ns; want most of them", inSpin, total)
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	if _, err := parseProfile(bytes.NewReader([]byte("not a profile"))); err == nil {
		t.Fatal("parsing a non-profile must fail")
	}
}

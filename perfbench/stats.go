package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// minBeyondTail is how many samples must lie beyond a reported tail
// percentile; with fewer, the tail is noise and is refused.
const minBeyondTail = 10

var errNoSamples = errors.New("no samples")

// percentile returns the nearest-rank p-th percentile of xs (0 < p <
// 100). Every median the benchmark takes is percentile(xs, 50): the
// lower middle for an even count. It refuses a tail that fewer than
// minBeyondTail samples lie beyond, because such a tail is set by a
// handful of samples.
func percentile(xs []float64, p float64) (float64, error) {
	v, err := nearestRank(xs, p)
	if err != nil {
		return 0, err
	}
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if beyond := len(xs) - rank; p > 50 && beyond < minBeyondTail {
		return 0, fmt.Errorf("p%v of %d samples has %d beyond it, need %d", p, len(xs), beyond, minBeyondTail)
	}
	return v, nil
}

// nearestRank is percentile without the tail rule, for the one
// statistic that wants the top of a few samples: max_rss_mb's upper
// quartile of the operations' peaks, the largest of three or fewer.
func nearestRank(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, errNoSamples
	}
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %v outside (0, 100)", p)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[int(math.Ceil(p/100*float64(len(s))))-1], nil
}

// tally counts attempted and failed operations. A failure is any error
// an operation returns, a digest mismatch included.
type tally struct {
	attempted, failed int
}

func (t *tally) record(err error) {
	t.attempted++
	if err != nil {
		t.failed++
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
}

// failFrac is failed ÷ attempted.
func (t tally) failFrac() float64 {
	if t.attempted == 0 {
		return 1
	}
	return float64(t.failed) / float64(t.attempted)
}

// okFrac is 1 − failFrac: the share of operations that succeeded with
// the recorded output.
func (t tally) okFrac() float64 { return 1 - t.failFrac() }

package main

import (
	"math"
	"net/http"
	"testing"
	"time"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(n - i) // reversed: the rule must sort
	}
	return s
}

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	cases := []struct {
		n     int
		want  float64
		value float64 // Harrell-Davis on 1..n: n·p + 1/2
		p     float64
	}{
		{n: 1000, want: 99, value: 990.5, p: 99},         // enough samples: the true p99
		{n: 100, want: 99, value: 90.5, p: 90},           // lowered to leave 10 beyond
		{n: 200, want: 95, value: 190.5, p: 95},          // exactly 10 beyond
		{n: 15, want: 99, value: 8.5, p: 100 * 8.0 / 15}, // lowered to the median floor
		{n: 1, want: 99, value: 1, p: 100},
	}
	for _, c := range cases {
		got := tailPercentile(seq(c.n), c.want)
		if math.Abs(got.Value-c.value) > 0.05 || math.Abs(got.P-c.p) > 1e-9 || got.N != c.n {
			t.Errorf("n=%d p%.0f: got %+v, want value %v at p%.2f", c.n, c.want, got, c.value, c.p)
		}
		if beyond := c.n - int(math.Round(got.P*float64(c.n)/100)); c.n > 20 && beyond < minTail {
			t.Errorf("n=%d: only %d samples beyond the reported percentile", c.n, beyond)
		}
	}
	if got := tailPercentile(nil, 99); got != (Tail{}) {
		t.Errorf("empty sample: got %+v, want zero", got)
	}
}

func TestHarrellDavisSmoothsOneOutlier(t *testing.T) {
	base := make([]float64, 41)
	for i := range base {
		base[i] = 100
	}
	base[20] = 1000 // the median order statistic alone is far off
	if got := median(base); got < 100 || got > 200 {
		t.Errorf("median with one outlier at the middle rank = %v, want near 100", got)
	}
	if got := harrellDavis([]float64{1, 2, 3}, 0.5); math.Abs(got-2) > 1e-9 {
		t.Errorf("HD median of 1,2,3 = %v, want 2 (symmetric weights)", got)
	}
}

func TestLittleWait(t *testing.T) {
	if got := littleWait(2, 4); got != 500 {
		t.Errorf("L=2, λ=4/s: got %v ms, want 500", got)
	}
	for _, c := range [][2]float64{{0, 0}, {3, 0}, {math.NaN(), 1}} {
		if got := littleWait(c[0], c[1]); got != 0 {
			t.Errorf("degenerate L=%v λ=%v: got %v, want 0", c[0], c[1], got)
		}
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		status   int
		degraded bool
		want     Outcome
	}{
		{http.StatusOK, false, Found},
		{http.StatusOK, true, Degraded},
		{http.StatusNotFound, false, NoExpl},
		{http.StatusUnprocessableEntity, false, Invalid},
		{http.StatusBadRequest, false, Invalid},
		{http.StatusServiceUnavailable, false, Failed},
		{http.StatusGatewayTimeout, false, Failed},
		{http.StatusInternalServerError, false, Failed},
		{499, false, Failed},
		{0, false, Failed}, // transport error: no response
	}
	for _, c := range cases {
		if got := classify(c.status, c.degraded); got != c.want {
			t.Errorf("classify(%d, %v) = %v, want %v", c.status, c.degraded, got, c.want)
		}
	}
}

func TestSelfTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	parent := Span{Start: at(0), End: at(100)}
	cases := []struct {
		name     string
		children []Span
		want     time.Duration
	}{
		{"no children", nil, 100 * time.Millisecond},
		{"one child", []Span{{Start: at(10), End: at(40)}}, 70 * time.Millisecond},
		{"overlapping legs counted once", []Span{
			{Start: at(10), End: at(60)}, {Start: at(30), End: at(80)},
		}, 30 * time.Millisecond},
		{"disjoint", []Span{
			{Start: at(0), End: at(10)}, {Start: at(50), End: at(60)},
		}, 80 * time.Millisecond},
		{"clipped to parent", []Span{{Start: at(-20), End: at(20)}, {Start: at(90), End: at(130)}}, 70 * time.Millisecond},
		{"nested inside another child", []Span{
			{Start: at(10), End: at(90)}, {Start: at(20), End: at(30)},
		}, 20 * time.Millisecond},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
}

// The expected values are what Python's statistics.quantiles(v, n=4)
// prints for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		v    []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{1, 2, 3}, [3]float64{1, 2, 3}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.1, 2.2, 9.9, 4.0}, [3]float64{2.425, 3.55, 8.425}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.v)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-9 {
				t.Errorf("quartiles(%v) = %v, want %v", c.v, got, c.want)
				break
			}
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-5.5/5.5) > 1e-9 {
		t.Errorf("spread 1..10 = %v, want 1", got)
	}
	if got := spread([]float64{0, 0, 0}); got != 0 {
		t.Errorf("spread of zeros = %v, want 0", got)
	}
}

package main

import (
	"math"
	"net/http"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile:
// a tail figure read off fewer points is noise, so the benchmark
// reports the highest percentile the sample supports instead.
const minTail = 10

// Tail is one reported percentile with the evidence behind it.
type Tail struct {
	// Value is the estimate at the reported percentile (0 when empty).
	Value float64
	// P is the percentile actually reported, at most the one asked for.
	P float64
	// N is the sample count.
	N int
}

// tailPercentile estimates the percentile want of samples, lowered to
// the highest percentile with at least minTail samples beyond it (by
// nearest rank). With too few samples for any tail it falls back to
// the median; an empty sample reports 0. The estimate is the
// Harrell-Davis quantile, a weighted mean of the order statistics
// around that rank, so one request's luck moves it less than it moves
// a single order statistic.
func tailPercentile(samples []float64, want float64) Tail {
	n := len(samples)
	if n == 0 {
		return Tail{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	k := int(math.Ceil(want/100*float64(n))) - 1 // nearest-rank index
	k = max(0, min(k, n-1))
	if n-1-k < minTail {
		k = n - 1 - minTail
	}
	if mid := (n - 1) / 2; k < mid {
		k = mid
	}
	p := float64(k+1) / float64(n)
	return Tail{Value: harrellDavis(s, p), P: 100 * p, N: n}
}

// harrellDavis is the Harrell-Davis estimate of quantile p of sorted
// samples: order statistic i weighs the Beta(p(n+1), (1-p)(n+1))
// probability of ((i-1)/n, i/n].
func harrellDavis(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	a, b := p*float64(n+1), (1-p)*float64(n+1)
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	logNorm := lab - la - lb
	density := func(x float64) float64 {
		if x <= 0 || x >= 1 {
			return 0
		}
		return math.Exp(logNorm + (a-1)*math.Log(x) + (b-1)*math.Log(1-x))
	}
	// Simpson's rule per interval; the density is smooth since a, b > 1.
	const steps = 16
	var est, total float64
	for i := 0; i < n; i++ {
		lo, hi := float64(i)/float64(n), float64(i+1)/float64(n)
		h := (hi - lo) / steps
		w := density(lo) + density(hi)
		for j := 1; j < steps; j++ {
			w += float64(2+2*(j%2)) * density(lo+float64(j)*h)
		}
		w *= h / 3
		est += w * sorted[i]
		total += w
	}
	return est / total
}

// median is the Harrell-Davis median (0 for an empty sample).
func median(samples []float64) float64 {
	return tailPercentile(samples, 50).Value
}

// mean is the arithmetic mean (0 for an empty sample).
func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

// ratio is num/den with degenerate denominators reported as 0, so no
// metric is ever NaN or ±Inf.
func ratio(num, den float64) float64 {
	if den == 0 || math.IsNaN(num) || math.IsNaN(den) || math.IsInf(num/den, 0) {
		return 0
	}
	return num / den
}

// littleWait is Little's law solved for the wait: W = L / λ, with the
// mean queue length L in requests and the arrival rate λ in requests
// per second. It returns the wait in milliseconds.
func littleWait(meanQueue, arrivalsPerSec float64) float64 {
	return 1000 * ratio(meanQueue, arrivalsPerSec)
}

// Outcome classes of one request (ROADMAP item (c)).
type Outcome int

const (
	// Found is a 200 at full fidelity.
	Found Outcome = iota
	// NoExpl is a 404: the search space holds no explanation.
	NoExpl
	// Invalid is a 400/422: the question itself was malformed.
	Invalid
	// Failed is a 5xx, 503, 504, 499 or transport error.
	Failed
	// Degraded is a 200 served below full fidelity by the server's
	// degradation ladder.
	Degraded
	numOutcomes
)

// classify maps one logical call's result to its outcome class. status
// is the final HTTP status (0 when no response arrived).
func classify(status int, degraded bool) Outcome {
	switch {
	case status == http.StatusOK && degraded:
		return Degraded
	case status == http.StatusOK:
		return Found
	case status == http.StatusNotFound:
		return NoExpl
	case status == http.StatusBadRequest || status == http.StatusUnprocessableEntity:
		return Invalid
	default:
		return Failed
	}
}

// Span is one traced interval. Spans of one request share RID; Parent
// names the span that caused this one ("" for a root).
type Span struct {
	Name   string    `json:"name"`
	RID    string    `json:"rid"`
	Parent string    `json:"parent,omitempty"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

// Dur is the span's wall duration.
func (s Span) Dur() time.Duration { return s.End.Sub(s.Start) }

// selfTime is the part of parent's interval no child covers: the
// parent's duration minus the union of its children's intervals,
// clipped to the parent. Overlapping children (a hedged request's two
// legs) are counted once.
func selfTime(parent Span, children []Span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, c := range children {
		a, b := c.Start, c.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var covered time.Duration
	var curA, curB time.Time
	for i, v := range ivs {
		switch {
		case i == 0:
			curA, curB = v.a, v.b
		case v.a.After(curB):
			covered += curB.Sub(curA)
			curA, curB = v.a, v.b
		case v.b.After(curB):
			curB = v.b
		}
	}
	if len(ivs) > 0 {
		covered += curB.Sub(curA)
	}
	return parent.Dur() - covered
}

// quartiles returns Q1, median and Q3 by the "exclusive" method of
// Python's statistics.quantiles(values, n=4), the rule the benchmark's
// spread is judged by.
func quartiles(values []float64) (q1, q2, q3 float64) {
	n := len(values)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return values[0], values[0], values[0]
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	q := func(i int) float64 {
		m := n + 1
		j := max(1, min(i*m/4, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// spread is the inter-quartile distance as a share of the median.
func spread(values []float64) float64 {
	q1, q2, q3 := quartiles(values)
	return ratio(q3-q1, math.Abs(q2))
}

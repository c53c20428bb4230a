package obs

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"

	"github.com/why-not-xai/emigre/internal/fmath"
)

// Validate checks the contract a parsed exposition must keep beyond its
// line syntax: no duplicate series, no negative counter, and the
// histogram contract — every histogram series carries a +Inf bucket,
// _sum, _count equal to the +Inf bucket and cumulative non-decreasing
// bucket counts, and no histogram family holds only plain samples.
// Parsing then validating is the plain-text contract smoke test CI
// runs against a live /metrics endpoint. Errors name the family and,
// where there is one, the series.
func (e *Exposition) Validate() error {
	seen := make(map[string]bool)
	for _, f := range e.Families {
		for i := range f.Samples {
			s := &f.Samples[i]
			id := s.Name + "{" + labelKey(s.Labels) + "}"
			if seen[id] {
				return fmt.Errorf("obs: %s: duplicate series %s", f.Name, id)
			}
			seen[id] = true
			if f.Type == "counter" && s.Value < 0 {
				return fmt.Errorf("obs: counter %s: series %s has negative value %s",
					f.Name, id, formatValue(s.Value))
			}
		}
		if f.Type == "histogram" {
			if err := checkHistogram(f); err != nil {
				return err
			}
		}
	}
	return nil
}

// histSeries accumulates one histogram series (one base-label set).
type histSeries struct {
	buckets  map[string]float64 // le value -> count
	sum      float64
	hasSum   bool
	count    float64
	hasCount bool
}

// checkHistogram groups a histogram family's derived samples by their
// labels minus le and checks each group with checkHistSeries.
func checkHistogram(f *ParsedFamily) error {
	var keys []string // first-appearance order, for a deterministic report
	group := make(map[string]*histSeries)
	plain := false
	for i := range f.Samples {
		s := &f.Samples[i]
		if s.Name == f.Name {
			plain = true
			continue
		}
		var le string
		hasLe := false
		base := make([]Label, 0, len(s.Labels))
		for _, l := range s.Labels {
			if l.Name == "le" {
				le, hasLe = l.Value, true
			} else {
				base = append(base, l)
			}
		}
		key := labelKey(base)
		hs := group[key]
		if hs == nil {
			hs = &histSeries{buckets: make(map[string]float64)}
			group[key] = hs
			keys = append(keys, key)
		}
		switch s.Name {
		case f.Name + "_bucket":
			if !hasLe {
				return fmt.Errorf("obs: histogram %s: _bucket sample without le label", f.Name)
			}
			bound, err := strconv.ParseFloat(le, 64)
			if err != nil || math.IsNaN(bound) {
				return fmt.Errorf("obs: histogram %s: bad le %q", f.Name, le)
			}
			hs.buckets[le] = s.Value
		case f.Name + "_sum":
			if hasLe {
				return fmt.Errorf("obs: histogram %s: _sum sample with le label", f.Name)
			}
			hs.sum, hs.hasSum = s.Value, true
		case f.Name + "_count":
			if hasLe {
				return fmt.Errorf("obs: histogram %s: _count sample with le label", f.Name)
			}
			hs.count, hs.hasCount = s.Value, true
		}
	}
	if len(group) == 0 {
		if plain {
			return fmt.Errorf("obs: histogram %s: declared but has non-histogram samples", f.Name)
		}
		return nil // declared, never sampled: legal
	}
	for _, key := range keys {
		if err := checkHistSeries(f.Name, group[key]); err != nil {
			if key != "" {
				return fmt.Errorf("%w (labels {%s})", err, key)
			}
			return err
		}
	}
	return nil
}

func checkHistSeries(family string, hs *histSeries) error {
	inf, ok := hs.buckets["+Inf"]
	if !ok {
		return fmt.Errorf("obs: histogram %s: missing le=\"+Inf\" bucket", family)
	}
	if !hs.hasCount {
		return fmt.Errorf("obs: histogram %s: missing _count", family)
	}
	if !hs.hasSum {
		return fmt.Errorf("obs: histogram %s: missing _sum", family)
	}
	if !fmath.Eq(hs.count, inf) {
		return fmt.Errorf("obs: histogram %s: _count %g != +Inf bucket %g", family, hs.count, inf)
	}
	type bucket struct {
		bound float64
		count float64
	}
	buckets := make([]bucket, 0, len(hs.buckets))
	for le, count := range hs.buckets {
		bound, _ := strconv.ParseFloat(le, 64) // already validated per sample
		buckets = append(buckets, bucket{bound: bound, count: count})
	}
	// Counts break ties between spellings of one bound ("1", "1.0"), so
	// the verdict does not depend on map order.
	slices.SortFunc(buckets, func(a, b bucket) int {
		return cmp.Or(cmp.Compare(a.bound, b.bound), cmp.Compare(a.count, b.count))
	})
	for i := 1; i < len(buckets); i++ {
		if buckets[i].count < buckets[i-1].count {
			return fmt.Errorf("obs: histogram %s: bucket counts not cumulative at le=%s",
				family, formatValue(buckets[i].bound))
		}
	}
	return nil
}

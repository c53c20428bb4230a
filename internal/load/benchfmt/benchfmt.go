// Package benchfmt defines the repo's normalized benchmark-result
// schema and the diff engine behind cmd/emigre-benchdiff.
//
// Three input shapes normalize into one File:
//
//   - the normalized schema itself (Schema == "emigre/benchfmt/v1"),
//   - the legacy BENCH_*.json shape the repo committed before this
//     package existed (results with ns_per_op/bytes_per_op/
//     allocs_per_op fields plus free-form extras), and
//   - `go test -bench` text output.
//
// Values are keyed by the go-bench unit names ("ns/op", "B/op",
// "allocs/op", ...) so a fresh `go test -bench` run diffs directly
// against a committed JSON baseline.
package benchfmt

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Schema identifies the normalized format. Readers reject files
// claiming a different emigre/benchfmt version so schema skew fails
// loudly instead of mis-diffing.
const Schema = "emigre/benchfmt/v1"

// Result is one benchmark's measurements: metric values keyed by unit
// name ("ns/op", "B/op", "allocs/op", "qps", "p99_us", ...).
type Result struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations,omitempty"`
	Metrics    map[string]float64 `json:"metrics"`
}

// File is a normalized set of benchmark results plus provenance.
type File struct {
	Schema      string   `json:"schema"`
	Description string   `json:"description,omitempty"`
	GOOS        string   `json:"goos,omitempty"`
	GOARCH      string   `json:"goarch,omitempty"`
	CPU         string   `json:"cpu,omitempty"`
	Results     []Result `json:"results"`
}

// Result returns the named result, or nil when absent.
func (f *File) Result(name string) *Result {
	for i := range f.Results {
		if f.Results[i].Name == name {
			return &f.Results[i]
		}
	}
	return nil
}

// legacyResult mirrors one entry of the committed BENCH_*.json shape.
// Only ns/op, B/op and allocs/op are read: any other field of a legacy
// result (e.g. a speedup ratio or raw_ns_per_op) is dropped and never
// reaches Diff.
type legacyResult struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

type legacyFile struct {
	Description string         `json:"description"`
	GOOS        string         `json:"goos"`
	GOARCH      string         `json:"goarch"`
	CPU         string         `json:"cpu"`
	Results     []legacyResult `json:"results"`
}

// Read normalizes b into a File. JSON documents are detected by their
// leading '{'; anything else is parsed as `go test -bench` text.
func Read(b []byte) (*File, error) {
	trimmed := strings.TrimSpace(string(b))
	if trimmed == "" {
		return nil, fmt.Errorf("benchfmt: empty input")
	}
	if trimmed[0] != '{' {
		return ParseGoBench(trimmed)
	}
	// Peek at the schema field to pick a decoder.
	var probe struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(b, &probe); err != nil {
		return nil, fmt.Errorf("benchfmt: bad JSON: %w", err)
	}
	if probe.Schema != "" {
		if probe.Schema != Schema {
			return nil, fmt.Errorf("benchfmt: unsupported schema %q (want %q)", probe.Schema, Schema)
		}
		var f File
		if err := json.Unmarshal(b, &f); err != nil {
			return nil, fmt.Errorf("benchfmt: bad %s document: %w", Schema, err)
		}
		if err := f.check(); err != nil {
			return nil, err
		}
		return &f, nil
	}
	return readLegacy(b)
}

func readLegacy(b []byte) (*File, error) {
	var lf legacyFile
	if err := json.Unmarshal(b, &lf); err != nil {
		return nil, fmt.Errorf("benchfmt: bad legacy BENCH document: %w", err)
	}
	if len(lf.Results) == 0 {
		return nil, fmt.Errorf("benchfmt: legacy BENCH document has no results")
	}
	f := &File{
		Schema:      Schema,
		Description: lf.Description,
		GOOS:        lf.GOOS,
		GOARCH:      lf.GOARCH,
		CPU:         lf.CPU,
	}
	for _, r := range lf.Results {
		f.Results = append(f.Results, Result{
			Name:       r.Name,
			Iterations: r.Iterations,
			Metrics: map[string]float64{
				"ns/op":     r.NsPerOp,
				"B/op":      r.BytesPerOp,
				"allocs/op": r.AllocsPerOp,
			},
		})
	}
	if err := f.check(); err != nil {
		return nil, err
	}
	return f, nil
}

func (f *File) check() error {
	seen := map[string]bool{}
	for _, r := range f.Results {
		if r.Name == "" {
			return fmt.Errorf("benchfmt: result with empty name")
		}
		if seen[r.Name] {
			return fmt.Errorf("benchfmt: duplicate result %q", r.Name)
		}
		seen[r.Name] = true
		if len(r.Metrics) == 0 {
			return fmt.Errorf("benchfmt: result %q has no metrics", r.Name)
		}
	}
	return nil
}

// ParseGoBench parses `go test -bench` text output. Lines look like
//
//	BenchmarkName/sub-8   100   123.4 ns/op   56 B/op   7 allocs/op
//
// The trailing -N GOMAXPROCS suffix is stripped from names so runs on
// machines with different core counts diff against each other.
// Non-benchmark lines (PASS, ok, goos: ...) are ignored.
func ParseGoBench(text string) (*File, error) {
	f := &File{Schema: Schema}
	for _, line := range strings.Split(text, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			switch {
			case strings.HasPrefix(line, "goos: "):
				f.GOOS = strings.TrimPrefix(line, "goos: ")
			case strings.HasPrefix(line, "goarch: "):
				f.GOARCH = strings.TrimPrefix(line, "goarch: ")
			case strings.HasPrefix(line, "cpu: "):
				f.CPU = strings.TrimPrefix(line, "cpu: ")
			}
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue // header or malformed; not a result line
		}
		r := Result{
			Name:       stripProcs(fields[0]),
			Iterations: iters,
			Metrics:    map[string]float64{},
		}
		// The remainder is (value, unit) pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchfmt: %s: bad value %q", r.Name, fields[i])
			}
			r.Metrics[fields[i+1]] = v
		}
		if len(r.Metrics) == 0 {
			return nil, fmt.Errorf("benchfmt: %s: no measurements", r.Name)
		}
		f.Results = append(f.Results, r)
	}
	if len(f.Results) == 0 {
		return nil, fmt.Errorf("benchfmt: no benchmark result lines found")
	}
	if err := f.check(); err != nil {
		return nil, err
	}
	return f, nil
}

// stripProcs removes the -N GOMAXPROCS suffix go appends to benchmark
// names ("BenchmarkFoo/bar-8" -> "BenchmarkFoo/bar").
func stripProcs(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i <= 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// Marshal renders f as indented JSON with sorted metric keys (Go maps
// already marshal with sorted keys) and a trailing newline, the form
// committed BENCH baselines use.
func Marshal(f *File) ([]byte, error) {
	f.Schema = Schema
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// MetricNames returns every metric name appearing in any result, sorted.
func (f *File) MetricNames() []string {
	set := map[string]bool{}
	for _, r := range f.Results {
		for m := range r.Metrics {
			set[m] = true
		}
	}
	names := make([]string, 0, len(set))
	for m := range set {
		names = append(names, m)
	}
	sort.Strings(names)
	return names
}

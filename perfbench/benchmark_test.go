package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric tables
// the benchmark prints from in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []Metric                `json:"end_to_end"`
		PerLayer  []Metric                `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name       string
		json, code []Metric
	}{{"end_to_end", bench.EndToEnd, endToEndMetrics}, {"per_layer", bench.PerLayer, layerMetrics}} {
		if len(c.json) != len(c.code) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the code %d", c.name, len(c.json), len(c.code))
		}
		for i := range c.code {
			if c.json[i] != c.code[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, code %+v", c.name, i, c.json[i], c.code[i])
			}
		}
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join([]string{wlLatency, wlServe}, ","); got != want {
		t.Errorf("workloads %s, want %s", got, want)
	}
}

func TestSpecLoads(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Serve.LadderRPS) != len(spec.Serve.LadderTimeShare) {
		t.Errorf("ladder has %d rates but %d time shares", len(spec.Serve.LadderRPS), len(spec.Serve.LadderTimeShare))
	}
	for _, name := range append(append([]string(nil), spec.WhyNot.Configs...), spec.Serve.ExplainConfigs...) {
		if _, err := methodSpec(name); err != nil {
			t.Error(err)
		}
	}
	for _, op := range ops {
		if spec.LimitsMS[op] <= 0 {
			t.Errorf("no latency limit for %s", op)
		}
	}
}

func TestMixCountsAreExact(t *testing.T) {
	c := mixCounts(168, map[string]float64{opRecommend: 0.7, opExplain: 0.25, opDiagnose: 0.05})
	if c[opExplain] != 42 || c[opDiagnose] != 8 || c[opRecommend] != 118 {
		t.Errorf("mixCounts(168) = %v, want 118/42/8", c)
	}
}

func TestBacklogGrowing(t *testing.T) {
	t0 := time.Unix(0, 0)
	build := func(n int, service func(i int) time.Duration) []Result {
		res := make([]Result, n)
		for i := range res {
			due := t0.Add(time.Duration(i) * 100 * time.Millisecond)
			res[i] = Result{Due: due, Done: due.Add(service(i))}
		}
		return res
	}
	steady := build(30, func(int) time.Duration { return 50 * time.Millisecond })
	if backlogGrowing(steady) {
		t.Error("requests answered before the next one is due: reported as a growing backlog")
	}
	// Each answer takes 150 ms longer than the last: the queue grows.
	growing := build(30, func(i int) time.Duration { return time.Duration(i) * 150 * time.Millisecond })
	if !backlogGrowing(growing) {
		t.Error("ever-later answers: backlog not reported as growing")
	}
	if backlogGrowing(nil) {
		t.Error("empty window reported as growing")
	}
}

func TestSpreadTable(t *testing.T) {
	out := spreadTable(
		map[string][]float64{"latency_ms": {1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, "setup_s": {2, 2, 2}},
		map[string]float64{"latency_ms": 0.5, "setup_s": 0.25})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want header + 2:\n%s", len(lines), out)
	}
	// latency_ms: median 5.5, spread (8.25-2.75)/5.5 = 1, twice its bound.
	if f := strings.Fields(lines[1]); f[0] != "latency_ms" || f[1] != "5.5000" || f[2] != "1.0000" || f[3] != "0.5000" || f[4] != "2.00" {
		t.Errorf("latency_ms row = %q", lines[1])
	}
	if f := strings.Fields(lines[2]); f[0] != "setup_s" || f[2] != "0.0000" || f[4] != "0.00" {
		t.Errorf("setup_s row = %q", lines[2])
	}
}

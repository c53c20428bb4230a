// Command perfbench is the repository's benchmark: the paper's Why-Not
// questions on a generated Amazon Lite graph, and mixed serving
// traffic, driven through the real stack (client → router → server →
// explainer → PPR) on loopback listeners inside one process.
//
//	bash perfbench/run.sh --workload whynot-latency --seed 1 --seconds 45 --trace 0
//	bash perfbench/run.sh --repeat 10 --workload serve-open --seconds 45
//
// An untraced run (--trace 0) prints the end-to-end metrics; a traced
// run (--trace 1) wraps each layer's public entry point with spans,
// adds a direct pass through the library, and prints the per-layer
// metrics. Every run checks its outputs and exits non-zero when a
// check fails. The last line of standard output is the JSON result.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/why-not-xai/emigre/internal/hin"
)

func nproc() int { return runtime.GOMAXPROCS(0) }

// Traced-run settings: where spans are written (inside the checkout),
// how many of the run's questions the direct pass re-asks, and how
// often the admission queue is sampled.
const (
	traceDir         = ".bench_build/traces"
	directQuestions  = 12
	queueSampleEvery = 100 * time.Millisecond
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("perfbench: ")
	var (
		workload = flag.String("workload", "", "workload: "+wlLatency+" or "+wlServe)
		seed     = flag.Int64("seed", 1, "workload seed")
		seconds  = flag.Float64("seconds", 20, "measured window in seconds")
		trace    = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
		repeat   = flag.Int("repeat", 0, "run this many seeds from -seed and print each metric's spread next to its bound")
	)
	flag.Parse()
	if *repeat > 0 {
		if err := repeatRuns(*workload, *seed, *seconds, *trace, *repeat); err != nil {
			log.Fatal(err)
		}
		return
	}
	out, err := runOnce(*workload, *seed, *seconds, *trace == 1)
	if err != nil {
		log.Fatal(err)
	}
	line, err := json.Marshal(out)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// Value is one metric in the result line.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Output is the result line.
type Output struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

func runOnce(workload string, seed int64, seconds float64, traced bool) (*Output, error) {
	spec, err := loadSpec()
	if err != nil {
		return nil, err
	}
	var fc FleetConfig
	clients, nominal := 0, -1
	switch workload {
	case wlLatency:
		fc = FleetConfig{Backends: 1, ExplainWorkers: spec.WhyNot.LatencyExplainWorkers}
		clients = spec.WhyNot.LatencyClients
	case wlServe:
		fc = FleetConfig{Backends: spec.Serve.Backends, ExplainWorkers: 1, Router: true, H2C: true}
		clients = nproc()
		for i, r := range spec.Serve.LadderRPS {
			if r == spec.Serve.NominalRPS {
				nominal = i
			}
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want %s or %s)", workload, wlLatency, wlServe)
	}
	ctx := context.Background()

	var tr *Tracer
	if traced {
		tr = &Tracer{}
	}

	run := &Run{Spec: spec, Nominal: nominal}
	w, f, d, err := setUp(ctx, spec, fc, clients, tr, seed, run)
	if err != nil {
		return nil, err
	}
	defer f.close()

	// The questions: serve-open's ladder, or the whynot panel asked in
	// its fixed cyclic order from a seeded starting point (a seed
	// changes which questions meet cold caches first and which
	// evictions they cause).
	var panel []Question
	var order []int
	if workload == wlServe {
		if run.Steps, err = servePlan(w, seed, seconds); err != nil {
			return nil, err
		}
		for _, st := range run.Steps {
			for k := range st.Reqs {
				if st.Reqs[k].Op == opExplain && len(panel) < directQuestions {
					panel = append(panel, *st.Reqs[k].Q)
				}
			}
		}
	} else {
		if panel, err = whyNotPanel(w, seconds); err != nil {
			return nil, err
		}
		start := rand.New(rand.NewSource(seed)).Intn(len(panel))
		for i := range panel {
			order = append(order, (start+i)%len(panel))
		}
	}

	// The measured window.
	var queue *queueSampler
	if traced {
		if run.Before, err = scrapeFleet(ctx, f); err != nil {
			return nil, err
		}
		queue = startQueueSampler(ctx, f, queueSampleEvery)
	}
	if workload == wlServe {
		d.openLoop(ctx, run.Steps)
		run.Results = d.take()
		run.Window = span(run.Results)
	} else {
		run.Window = d.closedLoop(ctx, panel, order, clients)
		run.Results = d.take()
		run.Clients, run.Busy = clients, time.Duration(d.busy.Load())
		panel = panel[:min(len(panel), directQuestions)]
	}
	if traced {
		run.Queue = queue.finish()
		if run.After, err = scrapeFleet(ctx, f); err != nil {
			return nil, err
		}
	}

	// Correctness: problems seen on the wire plus the gate.
	mark := time.Now()
	fails := append(d.errs, gate(ctx, w, run.Results, fc.ExplainWorkers, seed)...)
	gateTook := time.Since(mark)
	for _, msg := range fails {
		log.Printf("correctness: %s", msg)
	}

	var rp *Report
	metrics := endToEndMetrics
	if traced {
		run.Spans = tr.snapshot()
		run.SpanCost = spanCost()
		run.DirectQs = panel
		if run.Direct, err = directPass(ctx, w, tr, panel, workloadUsers(run.Results), fc.ExplainWorkers); err != nil {
			return nil, err
		}
		run.Spans = tr.snapshot()
		name := fmt.Sprintf("%s-seed%d.json", workload, seed)
		if err := tr.write(traceDir, name); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		rp = run.perLayer()
		metrics = layerMetrics
		fmt.Printf("spans written to %s\n", filepath.Join(traceDir, name))
	} else {
		rp = run.endToEnd()
	}
	fmt.Printf("perfbench %s seed %d: %d requests in %.2f s, %d set-ups, correctness checks %.2f s\n",
		workload, seed, len(run.Results), run.Window.Seconds(), len(run.Setups), gateTook.Seconds())
	for _, l := range rp.Lines {
		fmt.Println(l)
	}

	out := &Output{Correct: len(fails) == 0, Attempted: len(run.Results), Metrics: map[string]Value{}}
	for i := range run.Results {
		if o := run.Results[i].Outcome(); o == Failed || o == Invalid {
			out.Failed++
		}
	}
	for _, m := range metrics {
		out.Metrics[m.Name] = Value{Value: rp.Values[m.Name], Unit: m.Unit}
	}
	if out.Attempted == 0 {
		return nil, fmt.Errorf("no requests completed")
	}
	return out, nil
}

// setUp builds the world and boots the fleet spec.SetupRepeats times,
// keeping the last: setup_s is the median. Each set-up generates the
// graph, enumerates the scenarios, boots the servers and warms
// /recommend for every user through the front.
func setUp(ctx context.Context, spec *Spec, fc FleetConfig, clients int, tr *Tracer, seed int64, run *Run) (*World, *Fleet, *Generator, error) {
	var wrapper func(string, http.Handler) http.Handler
	if tr != nil {
		parent := ""
		if fc.Router {
			parent = "router"
		}
		wrapper = tr.wrap(parent)
	}
	var (
		w   *World
		f   *Fleet
		d   *Generator
		err error
	)
	for i := 0; i < spec.SetupRepeats; i++ {
		if f != nil {
			f.close()
			runtime.GC()
		}
		var t Timings
		start := time.Now()
		if w, err = buildWorld(spec, &t); err != nil {
			return nil, nil, nil, err
		}
		mark := time.Now()
		if f, err = boot(w, fc, wrapper); err != nil {
			return nil, nil, nil, err
		}
		t.Boot = time.Since(mark)
		mark = time.Now()
		if d, err = newGenerator(w, f.front, clients, fc.H2C, tr, fmt.Sprintf("s%d", seed)); err == nil {
			err = warm(ctx, d.cl, w)
		}
		if err != nil {
			f.close()
			return nil, nil, nil, err
		}
		t.Warm = time.Since(mark)
		t.Total = time.Since(start)
		run.Setups = append(run.Setups, t)
	}
	if tr != nil {
		tr.reset() // the warm-up requests are not part of the trace
	}
	return w, f, d, nil
}

// workloadUsers lists the distinct users the run's requests named.
func workloadUsers(res []Result) []hin.NodeID {
	seen := map[hin.NodeID]bool{}
	var out []hin.NodeID
	for i := range res {
		if !seen[res[i].User] {
			seen[res[i].User] = true
			out = append(out, res[i].User)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// repeatRuns runs the benchmark for n consecutive seeds, one process
// each, and prints every metric's median and quartile spread beside
// the bound BENCHMARK.json fixes for it.
func repeatRuns(workload string, seed int64, seconds float64, trace, n int) error {
	bounds := map[string]float64{}
	if b, err := os.ReadFile("BENCHMARK.json"); err == nil {
		var bench struct {
			EndToEnd []struct {
				Name  string  `json:"name"`
				Bound float64 `json:"bound"`
			} `json:"end_to_end"`
		}
		if err := json.Unmarshal(b, &bench); err != nil {
			return fmt.Errorf("BENCHMARK.json: %w", err)
		}
		for _, m := range bench.EndToEnd {
			bounds[m.Name] = m.Bound
		}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "--trace", strconv.Itoa(trace))
		var stdout bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		var last string
		for sc := bufio.NewScanner(&stdout); sc.Scan(); {
			last = sc.Text()
		}
		var out Output
		if err := json.Unmarshal([]byte(last), &out); err != nil {
			return fmt.Errorf("seed %d: result line: %w", s, err)
		}
		fmt.Printf("seed %d: %s\n", s, last)
		for name, v := range out.Metrics {
			values[name] = append(values[name], v.Value)
		}
	}
	fmt.Print(spreadTable(values, bounds))
	return nil
}

// spreadTable renders each metric's median and quartile spread over
// repeated runs beside its bound; spread/bound above 1 fails the
// benchmark's own steadiness rule.
func spreadTable(values map[string][]float64, bounds map[string]float64) string {
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "%-34s %14s %8s %8s %s\n", "metric", "median", "spread", "bound", "spread/bound")
	for _, name := range names {
		_, q2, _ := quartiles(values[name])
		sp, bound := spread(values[name]), bounds[name]
		fmt.Fprintf(&b, "%-34s %14.4f %8.4f %8.4f %8.2f\n", name, q2, sp, bound, ratio(sp, bound))
	}
	return b.String()
}

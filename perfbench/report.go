package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/why-not-xai/emigre/internal/hin"
)

// Metric is one reported figure; the tables below must match
// BENCHMARK.json (TestBenchmarkJSONMatches checks it).
type Metric struct {
	Name, Unit, Better string
}

// endToEndMetrics are the result of an untraced run, each with a
// regression bound in BENCHMARK.json. The outcome classes that read 0
// on a healthy run (invalid, failed, degraded) enter the result as
// their never-zero complements. The report also prints explain_p50_ms,
// explain_p95_ms, diagnose_p50_ms and recommend_p99_ms, but they are
// not in the result: on serve-open they spread by 20-90% of their
// median between seeds, wider than any bound the result may carry.
var endToEndMetrics = []Metric{
	{"setup_s", "s", "lower"},
	{"questions_per_s", "1/s", "higher"},
	{"recommend_p50_ms", "ms", "lower"},
	{"slo_share", "share", "higher"},
	{"max_rate_rps", "1/s", "higher"},
	{"found_share", "share", "higher"},
	{"noexpl_share", "share", "lower"},
	{"served_share", "share", "higher"},
	{"fidelity_share", "share", "higher"},
	{"expl_size_mean", "edges", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// layerMetrics are printed by a traced run.
var layerMetrics = []Metric{
	{"load.late_ms_p99", "ms", "lower"},
	{"client.attempts_per_call", "count", "lower"},
	{"router.self_ms_p50", "ms", "lower"},
	{"router.hedges_per_req", "count", "lower"},
	{"router.hedge_win_share", "share", "higher"},
	{"router.affinity_share", "share", "higher"},
	{"router.failovers", "count", "lower"},
	{"server.handler_ms_p50.recommend", "ms", "lower"},
	{"server.handler_ms_p50.explain", "ms", "lower"},
	{"server.handler_ms_p50.diagnose", "ms", "lower"},
	{"http.overhead_ms_p50", "ms", "lower"},
	{"admit.rejections", "count", "lower"},
	{"admit.queue_len_mean", "count", "lower"},
	{"admit.queue_wait_ms_est", "ms", "lower"},
	{"emigre.explain_ms_p50", "ms", "lower"},
	{"emigre.explain_ms_p95", "ms", "lower"},
	{"emigre.diagnose_ms_p50", "ms", "lower"},
	{"emigre.checks_per_question", "count", "lower"},
	{"emigre.combos_per_question", "count", "lower"},
	{"emigre.check_ms_mean", "ms", "lower"},
	{"emigre.pipeline_waste_share", "share", "lower"},
	{"emigre.delta_screened_share", "share", "higher"},
	{"emigre.delta_fallback_share", "share", "lower"},
	{"rec.topn_ms_p50.warm", "ms", "lower"},
	{"rec.topn_ms_p50.cold", "ms", "lower"},
	{"pprcache.hit_ratio", "share", "higher"},
	{"pprcache.fills_per_question", "count", "lower"},
	{"pprcache.evictions_per_question", "count", "lower"},
	{"pprcache.resident_mb", "MB", "lower"},
	{"pprcache.collapsed", "count", "higher"},
	{"ppr.forward_runs_per_question", "count", "lower"},
	{"ppr.reverse_runs_per_question", "count", "lower"},
	{"ppr.update_runs_per_question", "count", "lower"},
	{"ppr.pushes_per_question", "count", "lower"},
	{"ppr.forward_ms_cold", "ms", "lower"},
	{"ppr.ns_per_push", "ns", "lower"},
	{"hin.csr_build_ms", "ms", "lower"},
	{"dataset.generate_ms", "ms", "lower"},
	{"eval.scenarios_ms", "ms", "lower"},
	{"trace.overhead_share", "share", "lower"},
	{"trace.handler_coverage_share", "share", "higher"},
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// Run is everything one benchmark run measured.
type Run struct {
	Spec    *Spec
	Results []Result
	// Window is the measured interval: first send to last answer.
	Window time.Duration
	// Clients and Busy describe a closed loop: its client count and the
	// summed time its questions took.
	Clients int
	Busy    time.Duration
	// Nominal is the ladder rung slo_share is read at (-1: every
	// request counts, as on the closed loops).
	Nominal int
	Steps   []Step
	Setups  []Timings
	// Traced-run inputs.
	Spans         []Span
	Before, After scrapes
	Queue         []float64
	Direct        *Direct
	DirectQs      []Question
	SpanCost      time.Duration
}

// Report collects metric values and the human-readable lines beside
// them.
type Report struct {
	Values map[string]float64
	Lines  []string
}

func (rp *Report) set(name string, v float64, note string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	rp.Values[name] = v
	rp.Lines = append(rp.Lines, fmt.Sprintf("%-34s %14.4f %-6s %s", name, v, unitOf(name), note))
}

// unitOf is a metric's unit: from the tables, or by the name's suffix
// for the figures the report prints beside them.
func unitOf(name string) string {
	for _, m := range append(append([]Metric(nil), endToEndMetrics...), layerMetrics...) {
		if m.Name == name {
			return m.Unit
		}
	}
	if strings.HasSuffix(name, "_ms") {
		return "ms"
	}
	return "share"
}

// latencies returns the ms latencies of results of op that got an
// answer (failures count in the outcome shares instead).
func latencies(res []Result, op string) []float64 {
	var out []float64
	for i := range res {
		if res[i].Op == op && res[i].Status != 0 {
			out = append(out, ms(res[i].Latency()))
		}
	}
	return out
}

func tailNote(t Tail) string { return fmt.Sprintf("(p%.1f of %d)", t.P, t.N) }

// meetsLimit reports whether a request was answered within its op's
// latency limit; failures and invalid questions miss.
func meetsLimit(r *Result, limits map[string]float64) bool {
	switch r.Outcome() {
	case Failed, Invalid:
		return false
	}
	return ms(r.Latency()) <= limits[r.Op]
}

func sloShare(res []Result, limits map[string]float64) float64 {
	met := 0
	for i := range res {
		if meetsLimit(&res[i], limits) {
			met++
		}
	}
	return ratio(float64(met), float64(len(res)))
}

// backlogGrowing reports whether requests pile up over a step: the mean
// number outstanding when each of the last third was due exceeds twice
// that of the first third (plus one, so an idle system never trips).
func backlogGrowing(res []Result) bool {
	if len(res) < 3 {
		return false
	}
	s := append([]Result(nil), res...)
	sort.Slice(s, func(i, j int) bool { return s[i].Due.Before(s[j].Due) })
	outstanding := func(t time.Time) float64 {
		n := 0
		for i := range s {
			if !s[i].Due.After(t) && s[i].Done.After(t) {
				n++
			}
		}
		return float64(n)
	}
	third := len(s) / 3
	var first, last float64
	for i := 0; i < third; i++ {
		first += outstanding(s[i].Due)
		last += outstanding(s[len(s)-1-i].Due)
	}
	return last/float64(third) > 2*first/float64(third)+1
}

// span returns the window from the first due time to the last answer.
func span(res []Result) time.Duration {
	if len(res) == 0 {
		return 0
	}
	lo, hi := res[0].Due, res[0].Done
	for i := range res {
		if res[i].Due.Before(lo) {
			lo = res[i].Due
		}
		if res[i].Done.After(hi) {
			hi = res[i].Done
		}
	}
	return hi.Sub(lo)
}

func medianOf(setups []Timings, f func(Timings) time.Duration) float64 {
	var v []float64
	for _, t := range setups {
		v = append(v, ms(f(t)))
	}
	return median(v)
}

// endToEnd computes the untraced run's metrics.
func (run *Run) endToEnd() *Report {
	rp := &Report{Values: map[string]float64{}}
	res, limits := run.Results, run.Spec.LimitsMS
	phase := func(f func(Timings) time.Duration) float64 { return medianOf(run.Setups, f) / 1000 }
	rp.set("setup_s", phase(func(t Timings) time.Duration { return t.Total }),
		fmt.Sprintf("(median of %d set-ups; generate %.2f s, scenarios %.2f s, boot %.2f s, warm %.2f s)", len(run.Setups),
			phase(func(t Timings) time.Duration { return t.Generate }),
			phase(func(t Timings) time.Duration { return t.Scenarios }),
			phase(func(t Timings) time.Duration { return t.Boot }),
			phase(func(t Timings) time.Duration { return t.Warm })))

	// On the ladder, the per-request figures are read at the rungs up
	// to the nominal rate; the rungs above it show where the limits
	// break instead (max_rate_rps).
	if run.Nominal >= 0 {
		res = nil
		for i := range run.Results {
			if run.Results[i].Step <= run.Nominal {
				res = append(res, run.Results[i])
			}
		}
	}
	questions := 0
	var counts [numOutcomes]int
	var sizes []float64
	for i := range res {
		r := &res[i]
		counts[r.Outcome()]++
		if r.Op == opExplain || (run.Nominal >= 0 && r.Op == opDiagnose) {
			questions++
		}
		if r.Op == opExplain && r.Outcome() == Found {
			sizes = append(sizes, float64(len(r.Expl.Edges)))
		}
	}
	// A closed loop's throughput is its clients over the mean time a
	// question takes (the response-time law with no think time), so
	// idle clients at the end of a finite panel do not count. An open
	// loop's is questions over the window they were sent and answered
	// in.
	rate := func(n int) float64 { return ratio(float64(n), span(res).Seconds()) }
	if run.Nominal < 0 {
		rate = func(n int) float64 { return ratio(float64(n*run.Clients), run.Busy.Seconds()) }
	}
	rp.set("questions_per_s", rate(questions),
		fmt.Sprintf("(%d questions in %.2f s)", questions, span(res).Seconds()))
	for _, c := range []struct {
		name, op string
		p        float64
	}{
		{"explain_p50_ms", opExplain, 50}, {"explain_p95_ms", opExplain, 95},
		{"diagnose_p50_ms", opDiagnose, 50},
		{"recommend_p50_ms", opRecommend, 50}, {"recommend_p99_ms", opRecommend, 99},
	} {
		t := tailPercentile(latencies(res, c.op), c.p)
		note := tailNote(t)
		if c.name != "recommend_p50_ms" {
			note += ", printed only"
		}
		rp.set(c.name, t.Value, note)
	}

	nominal := res
	if run.Nominal >= 0 {
		nominal = nil
		for i := range res {
			if res[i].Step == run.Nominal {
				nominal = append(nominal, res[i])
			}
		}
	}
	rp.set("slo_share", sloShare(nominal, limits), fmt.Sprintf("(of %d requests; limits ms %v)", len(nominal), limits))

	if run.Nominal < 0 {
		rp.set("max_rate_rps", rate(len(res)), "(closed-loop saturation rate)")
	} else {
		best, note := 0.0, "(no rung met the limits)"
		for i, st := range run.Steps {
			var sr []Result
			for k := range run.Results {
				if run.Results[k].Step == i {
					sr = append(sr, run.Results[k])
				}
			}
			// A rung meets the limits when the share of its requests
			// answered within their op's limit reaches the target and no
			// backlog builds up.
			share, growing := sloShare(sr, limits), backlogGrowing(sr)
			line := fmt.Sprintf("  rung %5.1f rps: %d requests, slo %.4f, backlog growing %v;", st.RPS, len(sr), share, growing)
			for _, op := range ops {
				var sop []Result
				for k := range sr {
					if sr[k].Op == op {
						sop = append(sop, sr[k])
					}
				}
				t := tailPercentile(latencies(sop, op), 99)
				line += fmt.Sprintf(" %s slo %.3f p%.0f %.0f ms;", op, sloShare(sop, limits), t.P, t.Value)
			}
			rp.Lines = append(rp.Lines, line)
			if share >= run.Spec.Serve.SLOTarget && !growing {
				// Goodput: requests that met their limit per second,
				// from the rung's first due time to the last answer.
				best = share * float64(len(sr)) / span(sr).Seconds()
				note = fmt.Sprintf("(goodput at the %g rps rung)", st.RPS)
			}
		}
		rp.set("max_rate_rps", best, note)
	}

	n := float64(len(res))
	share := func(o Outcome) float64 { return ratio(float64(counts[o]), n) }
	rp.set("found_share", share(Found), fmt.Sprintf("(of %d requests)", len(res)))
	rp.set("noexpl_share", share(NoExpl), "")
	rp.set("served_share", 1-share(Failed), fmt.Sprintf("(fail_share %.4f)", share(Failed)))
	rp.set("fidelity_share", 1-share(Degraded), fmt.Sprintf("(degraded_share %.4f)", share(Degraded)))
	rp.Lines = append(rp.Lines, fmt.Sprintf("%-34s %14.4f %-6s (gated: must be 0)", "invalid_share", share(Invalid), "share"))
	rp.set("expl_size_mean", mean(sizes), fmt.Sprintf("(over %d found answers)", len(sizes)))
	rp.set("peak_rss_mb", peakRSSMB(), "(VmHWM)")
	return rp
}

// peakRSSMB reads the process's peak resident set from /proc.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// perLayer computes the traced run's metrics.
func (run *Run) perLayer() *Report {
	rp := &Report{Values: map[string]float64{}}
	res, d := run.Results, run.Direct
	window := run.Window.Seconds()

	var late []float64
	attempts, questions := 0, 0
	byRID := map[string]*Result{}
	for i := range res {
		r := &res[i]
		late = append(late, ms(r.Sent.Sub(r.Due)))
		attempts += r.Attempts
		byRID[r.RID] = r
		if r.Op == opExplain || r.Op == opDiagnose {
			questions++
		}
	}
	t := tailPercentile(late, 99)
	rp.set("load.late_ms_p99", t.Value, tailNote(t))
	rp.set("client.attempts_per_call", ratio(float64(attempts), float64(len(res))), fmt.Sprintf("(%d calls)", len(res)))

	// Spans by request: the outermost handler and the backends under it.
	type reqSpans struct {
		client, router *Span
		servers        []Span
	}
	byReq := map[string]*reqSpans{}
	handler := map[string][]float64{}
	for i := range run.Spans {
		s := &run.Spans[i]
		if _, ok := byRID[s.RID]; !ok {
			continue
		}
		rs := byReq[s.RID]
		if rs == nil {
			rs = &reqSpans{}
			byReq[s.RID] = rs
		}
		layer, op, _ := strings.Cut(s.Name, ".")
		switch layer {
		case "client":
			rs.client = s
		case "router":
			rs.router = s
		case "server":
			rs.servers = append(rs.servers, *s)
			handler[op] = append(handler[op], ms(s.Dur()))
		}
	}
	var self, overhead []float64
	for _, rs := range byReq {
		outer := rs.router
		if rs.router != nil {
			self = append(self, ms(selfTime(*rs.router, rs.servers)))
		} else if len(rs.servers) > 0 {
			outer = &rs.servers[0]
		}
		if rs.client != nil && outer != nil {
			overhead = append(overhead, ms(rs.client.Dur()-outer.Dur()))
		}
	}
	rp.set("router.self_ms_p50", median(self), fmt.Sprintf("(%d routed requests)", len(self)))
	rtReqs := delta(run.Before, run.After, "router", "emigre_router_requests_total")
	hedges := delta(run.Before, run.After, "router", "emigre_router_hedges_total")
	rp.set("router.hedges_per_req", ratio(hedges, rtReqs), fmt.Sprintf("(%.0f hedges)", hedges))
	rp.set("router.hedge_win_share", ratio(delta(run.Before, run.After, "router", "emigre_router_hedge_wins_total"), hedges), "")
	rp.set("router.affinity_share", affinity(res), "")
	rp.set("router.failovers", delta(run.Before, run.After, "router", "emigre_router_failovers_total"), "")
	for _, op := range ops {
		rp.set("server.handler_ms_p50."+op, median(handler[op]), fmt.Sprintf("(%d spans)", len(handler[op])))
	}
	rp.set("http.overhead_ms_p50", median(overhead), "(client span minus outermost handler span)")

	rej := delta(run.Before, run.After, "backend", "emigre_admission_rejections_total") +
		delta(run.Before, run.After, "router", "emigre_router_rejections_total")
	rp.set("admit.rejections", rej, "")
	qlen := mean(run.Queue)
	rp.set("admit.queue_len_mean", qlen, fmt.Sprintf("(%d samples)", len(run.Queue)))
	admitted := len(handler[opExplain]) + len(handler[opDiagnose])
	rp.set("admit.queue_wait_ms_est", littleWait(qlen, ratio(float64(admitted), window)), "(Little's law)")

	t = tailPercentile(d.Explain, 95)
	rp.set("emigre.explain_ms_p50", median(d.Explain), fmt.Sprintf("(%d direct questions)", d.Questions))
	rp.set("emigre.explain_ms_p95", t.Value, tailNote(t))
	rp.set("emigre.diagnose_ms_p50", median(d.Diagnose), fmt.Sprintf("(%d direct diagnoses)", len(d.Diagnose)))
	rp.set("emigre.checks_per_question", ratio(float64(d.Checks), float64(d.Answered)), fmt.Sprintf("(over %d answered)", d.Answered))
	rp.set("emigre.combos_per_question", ratio(float64(d.Combos), float64(d.Answered)), "")
	rp.set("emigre.check_ms_mean", ratio(ms(d.AnsweredTime), float64(d.Checks)), "")
	waste := delta(run.Before, run.After, "backend", "emigre_pipeline_speculative_waste_total")
	committed := delta(run.Before, run.After, "backend", "emigre_pipeline_checks_committed_total")
	rp.set("emigre.pipeline_waste_share", ratio(waste, waste+committed), fmt.Sprintf("(%.0f committed)", committed))
	rp.set("emigre.delta_screened_share", ratio(float64(d.Screened), float64(d.Checks)), "")
	rp.set("emigre.delta_fallback_share", ratio(float64(d.Fallbacks), float64(d.Checks)), "")
	rp.set("rec.topn_ms_p50.warm", median(d.TopNWarm), "")
	rp.set("rec.topn_ms_p50.cold", median(d.TopNCold), "")

	hits := delta(run.Before, run.After, "backend", "emigre_pprcache_hits_total")
	misses := delta(run.Before, run.After, "backend", "emigre_pprcache_misses_total")
	rp.set("pprcache.hit_ratio", ratio(hits, hits+misses), fmt.Sprintf("(%.0f lookups)", hits+misses))
	rp.set("pprcache.fills_per_question", ratio(misses, float64(questions)), fmt.Sprintf("(%d questions)", questions))
	rp.set("pprcache.evictions_per_question",
		ratio(delta(run.Before, run.After, "backend", "emigre_pprcache_evictions_total"), float64(questions)), "")
	rp.set("pprcache.resident_mb", gauge(run.After, "backend", "emigre_pprcache_resident_bytes")/(1<<20), "")
	rp.set("pprcache.collapsed", delta(run.Before, run.After, "backend", "emigre_pprcache_collapsed_total"), "")

	perQ := func(v float64) float64 { return ratio(v, float64(d.Questions)) }
	rp.set("ppr.forward_runs_per_question", perQ(d.PPR["runs.forward_push"]), "(direct pass)")
	rp.set("ppr.reverse_runs_per_question", perQ(d.PPR["runs.reverse_push"]), "")
	rp.set("ppr.update_runs_per_question", perQ(d.PPR["runs.forward_update"]+d.PPR["runs.reverse_update"]), "")
	rp.set("ppr.pushes_per_question", perQ(d.PPR["pushes"]), "")
	rp.set("ppr.forward_ms_cold", median(d.ForwardMS), fmt.Sprintf("(%d users)", len(d.ForwardMS)))
	rp.set("ppr.ns_per_push", ratio(float64(d.PushTime), float64(d.Pushes)), "")

	rp.set("hin.csr_build_ms", medianOf(run.Setups, func(t Timings) time.Duration { return t.CSR }), "")
	rp.set("dataset.generate_ms", medianOf(run.Setups, func(t Timings) time.Duration { return t.Generate }), "")
	rp.set("eval.scenarios_ms", medianOf(run.Setups, func(t Timings) time.Duration { return t.Scenarios }), "")

	rp.set("trace.overhead_share",
		ratio(float64(len(run.Spans))*float64(run.SpanCost), float64(run.Window)*float64(runtime.GOMAXPROCS(0))),
		fmt.Sprintf("(%d spans × %v each, over the window's CPU time)", len(run.Spans), run.SpanCost))
	rp.set("trace.handler_coverage_share", coverage(run), "(direct rec+emigre time over the same questions' server handler time)")
	return rp
}

// affinity is the share of each user's routed requests that reached
// that user's most frequent backend.
func affinity(res []Result) float64 {
	by := map[hin.NodeID]map[string]int{}
	total := 0
	for i := range res {
		if b := res[i].Backend; b != "" {
			if by[res[i].User] == nil {
				by[res[i].User] = map[string]int{}
			}
			by[res[i].User][b]++
			total++
		}
	}
	top := 0
	for _, m := range by {
		best := 0
		for _, n := range m {
			best = max(best, n)
		}
		top += best
	}
	return ratio(float64(top), float64(total))
}

// coverage compares the direct pass with the served handling of the
// same questions: for every (question, op) both sides saw, the direct
// TopN, explain and diagnose time over the server handler time of the
// first served request.
func coverage(run *Run) float64 {
	type key struct {
		u, wni hin.NodeID
		cfg    string
		op     string
	}
	direct := map[key]time.Duration{}
	byRID := map[string]*Question{}
	for i := range run.DirectQs {
		byRID[fmt.Sprintf("direct-%03d", i)] = &run.DirectQs[i]
	}
	directOp := map[string]string{"rec.topn": opRecommend, "emigre.explain": opExplain, "emigre.diagnose": opDiagnose}
	served := map[string]key{} // request id -> its question and op
	for i := range run.Results {
		r := &run.Results[i]
		if r.Q != nil {
			served[r.RID] = key{r.Q.User, r.Q.WNI, r.Q.Cfg.Name, r.Op}
		}
	}
	servedDur := map[key]time.Duration{}
	for _, s := range run.Spans {
		if q, ok := byRID[s.RID]; ok && directOp[s.Name] != "" {
			direct[key{q.User, q.WNI, q.Cfg.Name, directOp[s.Name]}] += s.Dur()
		}
		if k, ok := served[s.RID]; ok && strings.HasPrefix(s.Name, "server.") {
			if _, seen := servedDur[k]; !seen {
				servedDur[k] = s.Dur()
			}
		}
	}
	var num, den time.Duration
	for k, d := range direct {
		if sd, ok := servedDur[k]; ok {
			num += d
			den += sd
		}
	}
	return ratio(float64(num), float64(den))
}

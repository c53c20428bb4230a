package obs

import (
	"strings"
	"testing"
)

// corpusRegistry builds a registry exercising every series kind the
// renderer can emit: counters (plain and labelled), gauges, callback
// metrics, and histograms with custom buckets.
func corpusRegistry() *Registry {
	r := NewRegistry()
	r.Counter("corpus_requests_total", "Requests.").Add(41)
	r.Counter("corpus_requests_by_op_total", "Requests by op.", L("op", "explain")).Add(7)
	r.Counter("corpus_requests_by_op_total", "Requests by op.", L("op", "recommend")).Add(3)
	r.Gauge("corpus_temperature", "A gauge.").Set(-3)
	r.GaugeFunc("corpus_callback", "Callback gauge.", func() int64 { return 2 })
	h := r.Histogram("corpus_latency_seconds", "Latency.", []float64{0.01, 0.1, 1})
	h.Observe(0.005)
	h.Observe(0.25)
	h.Observe(42)
	r.Counter("corpus_weird_total", "Label escapes.", L("path", "a\\b\"c\nd")).Add(1)
	return r
}

func TestParseRoundTripsRegistryOutput(t *testing.T) {
	var rendered strings.Builder
	corpusRegistry().WritePrometheus(&rendered)
	in := rendered.String()
	if err := validate([]byte(in)); err != nil {
		t.Fatalf("corpus invalid: %v", err)
	}
	e, err := ParseExposition([]byte(in))
	if err != nil {
		t.Fatalf("ParseExposition: %v", err)
	}
	var out strings.Builder
	if err := e.WritePrometheus(&out); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	if out.String() != in {
		t.Errorf("parse→emit not byte-identical:\n--- in ---\n%s\n--- out ---\n%s", in, out.String())
	}
}

// TestParseFixedPointOnForeignIdioms feeds the parser foreign
// expositions Validate accepts (timestamps, plain comments, blank
// lines, special float spellings) and checks one parse→emit cycle
// reaches a fixed point that still validates.
func TestParseFixedPointOnForeignIdioms(t *testing.T) {
	inputs := []string{
		"# TYPE a_total counter\na_total{x=\"1\"} 7 1700000000000\n",
		"# a plain comment, anything goes\n#another\n\nfoo 1\n",
		"# TYPE g gauge\ng +Inf\ng2 NaN\ng3 -Inf\n",
		"no_metadata_at_all 3.5\n",
		"# HELP h has help but no type\nh 1\n",
		"# TYPE m counter\n# HELP m help after type\nm 2\n",
		"withlabels{a=\"x\",b=\"y\"} 1\nwithlabels{b=\"y\",a=\"z\"} 2\n",
	}
	for _, in := range inputs {
		e, err := ParseExposition([]byte(in))
		if err != nil {
			t.Errorf("ParseExposition(%q): %v", in, err)
			continue
		}
		var first strings.Builder
		if err := e.WritePrometheus(&first); err != nil {
			t.Fatalf("emit: %v", err)
		}
		e2, err := ParseExposition([]byte(first.String()))
		if err != nil {
			t.Errorf("re-parse of emitted %q: %v", first.String(), err)
			continue
		}
		var second strings.Builder
		if err := e2.WritePrometheus(&second); err != nil {
			t.Fatalf("emit: %v", err)
		}
		if first.String() != second.String() {
			t.Errorf("no fixed point for %q:\nfirst:  %q\nsecond: %q", in, first.String(), second.String())
		}
	}
}

func TestParseRejects(t *testing.T) {
	bad := []string{
		"no_newline 1",
		"0bad_name 1\n",
		"a{__reserved=\"x\"} 1\n",
		"a{l=\"unterminated} 1\n",
		"a{l=\"bad\\q\"} 1\n",
		"a{l=\"dup\",l=\"dup\"} 1\n",
		"a notanumber\n",
		"a\n",
		"# TYPE a wat\na 1\n",
		"# TYPE a counter\n# TYPE a counter\na 1\n",
		"# TYPE\n",
		"a 1\n# TYPE a counter\n",
		// A derived series filed under its own name before the histogram
		// was declared: a re-parse of the emitted text would file it under
		// the histogram instead.
		"# HELP h x\nh_count 1\n# TYPE h histogram\n",
	}
	for _, in := range bad {
		if _, err := ParseExposition([]byte(in)); err == nil {
			t.Errorf("ParseExposition(%q): expected error, got nil", in)
		}
	}
}

func TestParsedAccessors(t *testing.T) {
	in := "# HELP req_total Requests.\n# TYPE req_total counter\n" +
		"req_total{op=\"explain\"} 5\nreq_total{op=\"rec\"} 2\n" +
		"# TYPE lat histogram\n" +
		"lat_bucket{le=\"1\"} 3\nlat_bucket{le=\"+Inf\"} 4\nlat_sum 2.5\nlat_count 4\n"
	e, err := ParseExposition([]byte(in))
	if err != nil {
		t.Fatalf("ParseExposition: %v", err)
	}
	f := e.Family("req_total")
	if f == nil {
		t.Fatal("family req_total missing")
	}
	if f.Help != "Requests." || !f.HasHelp || f.Type != "counter" {
		t.Errorf("metadata wrong: %+v", f)
	}
	if got := f.Total(); got != 7 {
		t.Errorf("Total = %v, want 7", got)
	}
	if v, ok := f.Value("req_total", L("op", "rec")); !ok || v != 2 {
		t.Errorf("Value(op=rec) = %v,%v want 2,true", v, ok)
	}
	if _, ok := f.Value("req_total", L("op", "absent")); ok {
		t.Error("Value matched an absent series")
	}
	lat := e.Family("lat")
	if lat == nil || len(lat.Samples) != 4 {
		t.Fatalf("histogram samples not grouped under base family: %+v", lat)
	}
	// Plain-sample Total excludes derived histogram series.
	if got := lat.Total(); got != 0 {
		t.Errorf("histogram Total = %v, want 0", got)
	}
	if v, ok := lat.Value("lat_bucket", L("le", "1")); !ok || v != 3 {
		t.Errorf("bucket lookup = %v,%v want 3,true", v, ok)
	}
	if got := e.FamilyNames(); len(got) != 2 || got[0] != "req_total" || got[1] != "lat" {
		t.Errorf("FamilyNames = %v", got)
	}
}

func TestCounterDeltas(t *testing.T) {
	before, err := ParseExposition([]byte(
		"# TYPE a_total counter\na_total 5\n# TYPE g gauge\ng 100\n"))
	if err != nil {
		t.Fatal(err)
	}
	after, err := ParseExposition([]byte(
		"# TYPE a_total counter\na_total 9\n# TYPE g gauge\ng 1\n" +
			"# TYPE b_total counter\nb_total{k=\"x\"} 2\nb_total{k=\"y\"} 3\n" +
			"# TYPE c_total counter\nc_total 5\n"))
	if err != nil {
		t.Fatal(err)
	}
	// Drift c_total to zero delta by matching before.
	pre, err := ParseExposition([]byte(
		"# TYPE a_total counter\na_total 5\n# TYPE c_total counter\nc_total 5\n"))
	if err != nil {
		t.Fatal(err)
	}
	d := CounterDeltas(pre, after)
	if len(d) != 2 || d["a_total"] != 4 || d["b_total"] != 5 {
		t.Errorf("CounterDeltas = %v, want a_total:4 b_total:5", d)
	}
	_ = before
	d = CounterDeltas(nil, after)
	if d["a_total"] != 9 {
		t.Errorf("nil-before delta = %v, want full totals", d)
	}
}

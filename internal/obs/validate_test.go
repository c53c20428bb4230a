package obs

import (
	"strings"
	"testing"
)

// validate parses b and checks the parsed exposition's contract, the
// two steps a scrape check runs.
func validate(b []byte) error {
	e, err := ParseExposition(b)
	if err != nil {
		return err
	}
	return e.Validate()
}

func TestValidateAcceptsOwnOutput(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_requests_total", "Requests.", L("route", "/a"), L("code", "2xx")).Add(3)
	r.Gauge("test_inflight", "In flight.").Set(2)
	r.CounterFunc("test_fn_total", "Fn.", func() int64 { return 9 })
	h := r.Histogram("test_seconds", "Latency.", DefBuckets(), L("route", "/a"))
	h.Observe(0.002)
	h.Observe(3)
	out := render(r)
	if err := validate([]byte(out)); err != nil {
		t.Fatalf("validate(own output): %v\n%s", err, out)
	}
}

func TestValidateAcceptsEmpty(t *testing.T) {
	if err := validate(nil); err != nil {
		t.Fatalf("empty exposition must validate: %v", err)
	}
	if err := validate([]byte(render(NewRegistry()))); err != nil {
		t.Fatalf("empty registry output must validate: %v", err)
	}
}

// validateRejectCases are malformed expositions with a substring of
// the error each must produce; FuzzParseExposition seeds from them.
var validateRejectCases = []struct {
	name string
	in   string
	want string // substring of the error
}{
	{"missing trailing newline", "a_total 1", "end with a newline"},
	{"bad metric name", "2bad_total 1\n", "invalid metric name"},
	{"missing value", "a_total\n", "missing value"},
	{"bad value", "a_total pizza\n", "bad value"},
	{"duplicate TYPE", "# TYPE a_total counter\n# TYPE a_total counter\na_total 1\n", "duplicate TYPE"},
	{"TYPE after sample", "a_total 1\n# TYPE a_total counter\n", "after its first sample"},
	{"unknown TYPE", "# TYPE a_total widget\n", "unknown TYPE"},
	{"negative counter", "# TYPE a_total counter\na_total -1\n", "negative value"},
	{"duplicate series", "a_total 1\na_total 2\n", "duplicate series"},
	{"unquoted label value", "a_total{x=1} 1\n", "must be quoted"},
	{"bad escape", `a_total{x="\q"} 1` + "\n", "bad escape"},
	{"unterminated label", `a_total{x="y` + "\n", "unterminated"},
	{"duplicate label", `a_total{x="1",x="2"} 1` + "\n", "duplicate label"},
	{"bucket without le", "# TYPE h histogram\nh_bucket 1\nh_sum 1\nh_count 1\n", "without le"},
	{
		"missing +Inf bucket",
		"# TYPE h histogram\n" + `h_bucket{le="1"} 1` + "\nh_sum 1\nh_count 1\n",
		"missing le=\"+Inf\"",
	},
	{
		"count mismatch",
		"# TYPE h histogram\n" + `h_bucket{le="+Inf"} 3` + "\nh_sum 1\nh_count 2\n",
		"_count 2 != +Inf bucket 3",
	},
	{
		"missing sum",
		"# TYPE h histogram\n" + `h_bucket{le="+Inf"} 1` + "\nh_count 1\n",
		"missing _sum",
	},
	{
		"non-cumulative buckets",
		"# TYPE h histogram\n" +
			`h_bucket{le="1"} 5` + "\n" +
			`h_bucket{le="2"} 3` + "\n" +
			`h_bucket{le="+Inf"} 5` + "\nh_sum 1\nh_count 5\n",
		"not cumulative",
	},
}

func TestValidateRejects(t *testing.T) {
	for _, tc := range validateRejectCases {
		err := validate([]byte(tc.in))
		if err == nil {
			t.Errorf("%s: expected error, got nil", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not contain %q", tc.name, err, tc.want)
		}
	}
}

func TestValidateAcceptsForeignIdioms(t *testing.T) {
	// Idioms other exporters produce that our renderer does not:
	// timestamps, untyped comments, blank lines, +Inf/NaN gauge values.
	in := strings.Join([]string{
		"# an arbitrary comment",
		"",
		"# TYPE a_total counter",
		`a_total{x="1"} 7 1700000000000`,
		"# TYPE b_gauge gauge",
		"b_gauge +Inf",
		"b_gauge_other NaN",
		"",
	}, "\n")
	if err := validate([]byte(in)); err != nil {
		t.Fatalf("foreign exposition must validate: %v", err)
	}
}

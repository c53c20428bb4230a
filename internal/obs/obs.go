// Package obs is the repo's stdlib-only metrics subsystem: a typed
// registry of counters, gauges and fixed-bucket histograms with an
// atomic hot path (no locks on increment), rendered in the Prometheus
// text exposition format (version 0.0.4).
//
// Design points:
//
//   - Registration (Registry.Counter, .Histogram, ...) takes the
//     registry lock and is get-or-create: the same (name, labels) pair
//     always returns the same metric, so package-level instrumentation
//     and tests can re-register freely. Increments and observations
//     never lock — they are single atomic operations on the returned
//     metric value.
//   - Metric methods are nil-safe: a nil *Counter ignores Inc/Add, so
//     optional instrumentation (an admission controller built without a
//     registry) needs no branching at the call sites.
//   - A process-global enabled gate (SetEnabled) turns every mutation
//     into a single atomic load + branch, letting the overhead A/B
//     benchmark measure instrumented-but-disabled cost and letting
//     byte-identity tests pin that metrics never affect results.
//   - Callback metrics (CounterFunc, GaugeFunc) re-register by
//     replacement, so components that are rebuilt per test (servers,
//     caches) can safely point the same series at their newest
//     instance. Callbacks run during rendering while the registry lock
//     is held and must not call back into the registry.
//
// The package deliberately implements the minimal contract the
// Prometheus text format requires — HELP/TYPE headers, label escaping,
// cumulative histogram buckets with a +Inf bound, _sum and _count
// series — and ParseExposition plus Exposition.Validate check exactly
// that contract, so CI can smoke-test a live /metrics endpoint without
// third-party dependencies.
package obs

import (
	"bytes"
	"net/http"
	"sync/atomic"
)

// ContentType is the value of the Content-Type header for the text
// exposition format served by Handler.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Label is one name="value" dimension of a metric series.
type Label struct {
	Name  string
	Value string
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// disabled is the process-global recording gate, stored inverted so the
// zero value means "enabled".
var disabled atomic.Bool

// SetEnabled turns metric recording on or off process-wide. Recording
// is on by default; turning it off makes every Inc/Add/Set/Observe a
// single atomic load + branch (used by the overhead benchmarks and the
// byte-identity A/B tests). Rendering is unaffected.
func SetEnabled(on bool) { disabled.Store(!on) }

// Enabled reports whether metric recording is on. Instrumentation that
// must do extra work to produce a sample (e.g. an O(n) residual-mass
// sum) should gate that work on Enabled.
func Enabled() bool { return !disabled.Load() }

// std is the process-global registry used by package-deep
// instrumentation (PPR engines, the eval harness) that has no
// convenient registry to thread through.
var std = NewRegistry()

// Default returns the process-global registry.
func Default() *Registry { return std }

// Handler serves the given registries' metrics in the Prometheus text
// exposition format. Duplicate registry pointers are rendered once
// (the server passes both its own registry and Default; when they are
// the same registry the output must not repeat), and a family name
// present in more than one registry is rendered only from the first —
// the format forbids duplicate TYPE lines, and earlier registries are
// the more specific ones.
func Handler(regs ...*Registry) http.Handler {
	uniq := make([]*Registry, 0, len(regs))
	seen := make(map[*Registry]bool, len(regs))
	for _, r := range regs {
		if r != nil && !seen[r] {
			seen[r] = true
			uniq = append(uniq, r)
		}
	}
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		var buf bytes.Buffer
		rendered := make(map[string]bool)
		for _, r := range uniq {
			r.writePrometheus(&buf, rendered)
		}
		w.Header().Set("Content-Type", ContentType)
		_, _ = w.Write(buf.Bytes())
	})
}

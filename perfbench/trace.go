package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"github.com/why-not-xai/emigre/client"
	"github.com/why-not-xai/emigre/internal/emigre"
	"github.com/why-not-xai/emigre/internal/hin"
	"github.com/why-not-xai/emigre/internal/load"
	"github.com/why-not-xai/emigre/internal/obs"
	"github.com/why-not-xai/emigre/internal/ppr"
)

// Tracer keeps spans in memory; write dumps them at the end of a run.
type Tracer struct {
	mu    sync.Mutex
	spans []Span
}

func (t *Tracer) record(name, rid, parent string, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, Span{Name: name, RID: rid, Parent: parent, Start: start, End: end})
	t.mu.Unlock()
}

// reset drops the spans recorded so far (the set-up's warm requests).
func (t *Tracer) reset() {
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *Tracer) snapshot() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// wrap records a span around a layer's HTTP entry point. The span is
// named "<layer>.<op>", keyed by the request id the client sent, and
// parented by the layer that called it: the client, or for servers
// behind a router, parent.
func (t *Tracer) wrap(parent string) func(string, http.Handler) http.Handler {
	return func(l string, h http.Handler) http.Handler {
		p := "client"
		if l == "server" && parent != "" {
			p = parent
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			op := strings.TrimPrefix(r.URL.Path, "/")
			if op != opRecommend && op != opExplain && op != opDiagnose {
				h.ServeHTTP(w, r)
				return
			}
			start := time.Now()
			h.ServeHTTP(w, r)
			t.record(l+"."+op, r.Header.Get(client.RequestIDHeader), p, start, time.Now())
		})
	}
}

// write dumps the spans as JSON under dir.
func (t *Tracer) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}

// spanCost measures what recording one span costs (two clock reads
// and the append), for the overhead estimate.
func spanCost() time.Duration {
	var t Tracer
	const n = 20000
	start := time.Now()
	for i := 0; i < n; i++ {
		a := time.Now()
		t.record("server.explain", "rid", "client", a, time.Now())
	}
	return time.Since(start) / n
}

// scrapes holds one /metrics exposition per scraped target.
type scrapes map[string]*obs.Exposition

// scrapeFleet reads /metrics of every backend and the router.
func scrapeFleet(ctx context.Context, f *Fleet) (scrapes, error) {
	out := scrapes{}
	targets := map[string]string{}
	for i, b := range f.backends {
		targets[fmt.Sprintf("backend%d", i)] = b.l.url
	}
	if f.rtL != nil {
		targets["router"] = f.rtL.url
	}
	for name, url := range targets {
		e, err := load.Scrape(ctx, url+"/metrics")
		if err != nil {
			return nil, err
		}
		out[name] = e
	}
	return out, nil
}

// sample reads one sample of family with the given labels (0 when
// absent).
func sample(e *obs.Exposition, family string, labels ...obs.Label) float64 {
	if e == nil {
		return 0
	}
	f := e.Family(family)
	if f == nil {
		return 0
	}
	if len(labels) == 0 {
		return f.Total()
	}
	v, _ := f.Value(family, labels...)
	return v
}

// delta sums after-before of a family over the targets whose name has
// the given prefix.
func delta(before, after scrapes, prefix, family string, labels ...obs.Label) float64 {
	var d float64
	for name, a := range after {
		if strings.HasPrefix(name, prefix) {
			d += sample(a, family, labels...) - sample(before[name], family, labels...)
		}
	}
	return d
}

// gauge sums a gauge family over the targets with the given prefix.
func gauge(s scrapes, prefix, family string) float64 {
	var v float64
	for name, e := range s {
		if strings.HasPrefix(name, prefix) {
			v += sample(e, family)
		}
	}
	return v
}

// queueSampler polls the backends' admission queue depth until stop.
type queueSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64
}

func startQueueSampler(ctx context.Context, f *Fleet, every time.Duration) *queueSampler {
	qs := &queueSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(qs.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-qs.stop:
				return
			case <-ctx.Done():
				return
			case <-tick.C:
			}
			var depth float64
			for _, b := range f.backends {
				if e, err := load.Scrape(ctx, b.l.url+"/metrics"); err == nil {
					depth += sample(e, "emigre_admission_queue_depth")
				}
			}
			qs.samples = append(qs.samples, depth)
		}
	}()
	return qs
}

// finish stops the sampler and returns its samples.
func (qs *queueSampler) finish() []float64 {
	close(qs.stop)
	<-qs.done
	return qs.samples
}

// defaultExposition renders the process-global registry, where the PPR
// engines count their runs and pushes.
func defaultExposition() (*obs.Exposition, error) {
	var buf bytes.Buffer
	obs.Default().WritePrometheus(&buf)
	return obs.ParseExposition(buf.Bytes())
}

// Direct is the traced direct pass: the benchmark's own calls into
// rec, emigre and ppr for a sample of the run's questions.
type Direct struct {
	TopNCold, TopNWarm, Explain, Diagnose []float64 // ms
	Questions                             int
	// Search tallies over the answered questions (Stats), with the
	// explain time they took.
	Answered, Checks, Combos, Screened, Fallbacks int
	AnsweredTime                                  time.Duration
	// PPR holds engine counter deltas over the pass.
	PPR       map[string]float64
	ForwardMS []float64
	Pushes    int
	PushTime  time.Duration
}

func (d *Direct) addStats(st emigre.Stats, took time.Duration) {
	d.Answered++
	d.Checks += st.Tests
	d.Combos += st.CombosExamined
	d.Screened += st.DeltaScreened
	d.Fallbacks += st.DeltaFallbacks
	d.AnsweredTime += took
}

// directPass asks questions straight through the library, with spans
// around each public entry point, and times a cold forward push per
// workload user.
func directPass(ctx context.Context, w *World, tr *Tracer, qs []Question, users []hin.NodeID, workers int) (*Direct, error) {
	d := &Direct{PPR: map[string]float64{}}
	ex, r := directExplainer(w, workers)
	before, err := defaultExposition()
	if err != nil {
		return nil, err
	}
	ms := func(a, b time.Time) float64 { return float64(b.Sub(a)) / 1e6 }
	for i := range qs {
		q := &qs[i]
		rid := fmt.Sprintf("direct-%03d", i)
		for pass, into := range []*[]float64{&d.TopNCold, &d.TopNWarm} {
			a := time.Now()
			if _, err := r.TopNContext(ctx, q.User, w.spec.Pinned.TopN); err != nil {
				return nil, fmt.Errorf("direct TopN: %w", err)
			}
			b := time.Now()
			*into = append(*into, ms(a, b))
			if pass == 1 {
				tr.record("rec.topn", rid, "direct", a, b)
			}
		}
		a := time.Now()
		expl, err := ex.ExplainWithContext(ctx, emigre.Query{User: q.User, WNI: q.WNI}, q.Cfg.Mode, q.Cfg.Method)
		b := time.Now()
		tr.record("emigre.explain", rid, "direct", a, b)
		d.Explain = append(d.Explain, ms(a, b))
		d.Questions++
		// Stats come back with an answer (or a cancellation); a 404
		// carries none, so the search counts cover answered questions.
		var ce *emigre.CanceledError
		switch {
		case err == nil:
			d.addStats(expl.Stats, b.Sub(a))
		case errors.Is(err, emigre.ErrNoExplanation):
			a = time.Now()
			if _, err := ex.DiagnoseContext(ctx, emigre.Query{User: q.User, WNI: q.WNI}, q.Cfg.Mode); err != nil {
				return nil, fmt.Errorf("direct diagnose: %w", err)
			}
			b = time.Now()
			tr.record("emigre.diagnose", rid, "direct", a, b)
			d.Diagnose = append(d.Diagnose, ms(a, b))
		case errors.As(err, &ce):
			d.addStats(ce.Stats, b.Sub(a))
		default:
			return nil, fmt.Errorf("direct explain: %w", err)
		}
	}
	after, err := defaultExposition()
	if err != nil {
		return nil, err
	}
	for _, eng := range []string{"forward_push", "reverse_push", "forward_update", "reverse_update"} {
		l := obs.L("engine", eng)
		d.PPR["runs."+eng] = sample(after, "emigre_ppr_runs_total", l) - sample(before, "emigre_ppr_runs_total", l)
	}
	d.PPR["pushes"] = sample(after, "emigre_ppr_pushes_total") - sample(before, "emigre_ppr_pushes_total")

	eng := ppr.NewForwardPush(w.rec.Config().PPR)
	view := w.rec.Flat()
	for _, u := range users {
		a := time.Now()
		res, err := eng.RunContext(ctx, view, u)
		if err != nil {
			return nil, fmt.Errorf("direct forward push: %w", err)
		}
		took := time.Since(a)
		tr.record("ppr.forward", fmt.Sprintf("push-%d", u), "direct", a, a.Add(took))
		d.ForwardMS = append(d.ForwardMS, float64(took)/1e6)
		d.Pushes += res.Pushes
		d.PushTime += took
	}
	return d, nil
}

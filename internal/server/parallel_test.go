package server

import (
	"bytes"
	"encoding/json"
	"log"
	"net/http"
	"strings"
	"testing"

	"github.com/why-not-xai/emigre/internal/obs"
)

// TestExplainPoolStatsSurfaced checks the observability contract of the
// parallel CHECK pipeline: with -explain-workers > 1, GET /metrics
// reports the pipeline families, and the committed-check counter
// matches the explanation's own check count.
func TestExplainPoolStatsSurfaced(t *testing.T) {
	srv, _ := newTestServerCfg(t, func(c *Config) {
		c.ExplainWorkers = 4
		c.Metrics = obs.NewRegistry()
	})
	h := srv.Handler()

	body := map[string]any{"user": "Paul", "wni": "Harry Potter", "mode": "remove", "method": "powerset"}
	rec := do(t, h, "POST", "/explain", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("explain: %d: %s", rec.Code, rec.Body.String())
	}
	var expl struct {
		Checks int `json:"checks"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &expl); err != nil {
		t.Fatal(err)
	}

	e := scrape(t, h)
	if workers := total(t, e, "emigre_pipeline_workers"); workers != 4 {
		t.Fatalf("emigre_pipeline_workers = %v, want 4", workers)
	}
	if runs := total(t, e, "emigre_pipeline_parallel_runs_total"); runs < 1 {
		t.Fatalf("emigre_pipeline_parallel_runs_total = %v, want >= 1", runs)
	}
	if committed := total(t, e, "emigre_pipeline_checks_committed_total"); committed != float64(expl.Checks) {
		t.Fatalf("emigre_pipeline_checks_committed_total = %v, want the response's checks = %d",
			committed, expl.Checks)
	}
	if inflight := total(t, e, "emigre_pipeline_inflight_checks"); inflight != 0 {
		t.Fatalf("emigre_pipeline_inflight_checks = %v at rest, want 0", inflight)
	}
}

// TestExplainWorkersIdenticalResponse is the serving-level A/B: the same
// question answered by a sequential server and a 4-worker server must
// produce identical response bodies (modulo the duration field).
func TestExplainWorkersIdenticalResponse(t *testing.T) {
	seq, _ := newTestServer(t)
	par, _ := newTestServerCfg(t, func(c *Config) { c.ExplainWorkers = 4 })
	body := map[string]any{"user": "Paul", "wni": "Harry Potter", "mode": "remove", "method": "powerset"}

	strip := func(raw []byte) map[string]any {
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		delete(m, "duration_us")
		return m
	}
	a := do(t, seq.Handler(), "POST", "/explain", body)
	b := do(t, par.Handler(), "POST", "/explain", body)
	if a.Code != http.StatusOK || b.Code != http.StatusOK {
		t.Fatalf("explain codes: seq=%d par=%d", a.Code, b.Code)
	}
	am, bm := strip(a.Body.Bytes()), strip(b.Body.Bytes())
	aj, _ := json.Marshal(am)
	bj, _ := json.Marshal(bm)
	if string(aj) != string(bj) {
		t.Fatalf("responses diverge:\nseq: %s\npar: %s", aj, bj)
	}
}

// TestRequestLogCarriesPipelineTally checks that the request log line of
// a parallel explanation reports its committed/wasted check split.
func TestRequestLogCarriesPipelineTally(t *testing.T) {
	var buf bytes.Buffer
	srv, _ := newTestServerCfg(t, func(c *Config) {
		c.ExplainWorkers = 4
		c.Logger = log.New(&buf, "", 0)
	})
	h := srv.Handler()
	body := map[string]any{"user": "Paul", "wni": "Harry Potter", "mode": "remove", "method": "powerset"}
	if rec := do(t, h, "POST", "/explain", body); rec.Code != http.StatusOK {
		t.Fatalf("explain: %d: %s", rec.Code, rec.Body.String())
	}
	line := strings.TrimSpace(buf.String())
	if !strings.Contains(line, " par=") {
		t.Fatalf("request log %q carries no pipeline tally", line)
	}
	// Sequential servers must not emit the field.
	buf.Reset()
	seq, _ := newTestServerCfg(t, func(c *Config) { c.Logger = log.New(&buf, "", 0) })
	if rec := do(t, seq.Handler(), "POST", "/explain", body); rec.Code != http.StatusOK {
		t.Fatalf("sequential explain: %d: %s", rec.Code, rec.Body.String())
	}
	if strings.Contains(buf.String(), " par=") {
		t.Fatalf("sequential request log %q reports a pipeline tally", strings.TrimSpace(buf.String()))
	}
}

package server

import (
	"bytes"
	"log"
	"net/http"
	"strings"
	"testing"

	"github.com/why-not-xai/emigre/internal/obs"
)

// newCacheTestServer builds a books server on a private registry, so
// the pprcache families GET /metrics serves belong to this server's
// cache alone.
func newCacheTestServer(t *testing.T) http.Handler {
	t.Helper()
	srv, _ := newTestServerCfg(t, func(c *Config) { c.Metrics = obs.NewRegistry() })
	return srv.Handler()
}

// TestRepeatedRecommendHitsCache is the serving acceptance check:
// the second identical /recommend must be answered from the vector
// cache, visible as hits in GET /metrics.
func TestRepeatedRecommendHitsCache(t *testing.T) {
	h := newCacheTestServer(t)

	for i := 0; i < 3; i++ {
		if rec := do(t, h, "GET", "/recommend?user=Paul&n=3", nil); rec.Code != http.StatusOK {
			t.Fatalf("request %d: %d: %s", i, rec.Code, rec.Body.String())
		}
	}
	e := scrape(t, h)
	if misses := total(t, e, "emigre_pprcache_misses_total"); misses < 1 {
		t.Fatalf("no miss recorded on the cold request: misses = %v", misses)
	}
	if hits := total(t, e, "emigre_pprcache_hits_total"); hits < 2 {
		t.Fatalf("repeated requests were not served from the cache: hits = %v", hits)
	}
	if entries := total(t, e, "emigre_pprcache_resident_entries"); entries < 1 {
		t.Fatalf("no resident entries after traffic: entries = %v", entries)
	}
}

// TestExplainPopulatesAndReusesCache drives the expensive path twice:
// the second identical /explain reuses the first one's baseline
// vectors and reverse columns.
func TestExplainPopulatesAndReusesCache(t *testing.T) {
	h := newCacheTestServer(t)
	body := map[string]any{"user": "Paul", "wni": "Harry Potter", "mode": "remove", "method": "powerset"}

	if rec := do(t, h, "POST", "/explain", body); rec.Code != http.StatusOK {
		t.Fatalf("first explain: %d: %s", rec.Code, rec.Body.String())
	}
	first := total(t, scrape(t, h), "emigre_pprcache_hits_total")
	if rec := do(t, h, "POST", "/explain", body); rec.Code != http.StatusOK {
		t.Fatalf("second explain: %d: %s", rec.Code, rec.Body.String())
	}
	second := total(t, scrape(t, h), "emigre_pprcache_hits_total")
	if second <= first {
		t.Fatalf("second explanation hit nothing: hits %v -> %v", first, second)
	}
}

// TestCacheDisabledByConfig pins the negative convention: a negative
// bound disables caching, the server registers no pprcache family, and
// requests still serve correctly. It reads the server's own registry:
// GET /metrics also renders obs.Default(), where another server may
// have registered a cache.
func TestCacheDisabledByConfig(t *testing.T) {
	reg := obs.NewRegistry()
	srv, _ := newTestServerCfg(t, func(c *Config) {
		c.CacheEntries = -1
		c.Metrics = reg
	})
	h := srv.Handler()
	if rec := do(t, h, "GET", "/recommend?user=Paul&n=3", nil); rec.Code != http.StatusOK {
		t.Fatalf("recommend without cache: %d: %s", rec.Code, rec.Body.String())
	}
	var own bytes.Buffer
	reg.WritePrometheus(&own)
	for _, name := range parseValid(t, own.Bytes()).FamilyNames() {
		if strings.HasPrefix(name, "emigre_pprcache_") {
			t.Errorf("cache family %s registered with caching disabled", name)
		}
	}
}

// TestRequestLogCarriesCacheTally checks the per-request observability:
// the middleware log line reports the request's own hit/miss counts.
func TestRequestLogCarriesCacheTally(t *testing.T) {
	var buf bytes.Buffer
	srv, _ := newTestServerCfg(t, func(c *Config) {
		c.Logger = log.New(&buf, "", 0)
	})
	h := srv.Handler()
	do(t, h, "GET", "/recommend?user=Paul&n=3", nil) // cold: misses
	do(t, h, "GET", "/recommend?user=Paul&n=3", nil) // warm: hits
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("expected 2 log lines, got %d:\n%s", len(lines), buf.String())
	}
	if !strings.Contains(lines[0], "cache=0h/1m") {
		t.Errorf("cold request log %q does not report its miss", lines[0])
	}
	if !strings.Contains(lines[1], "cache=1h/0m") {
		t.Errorf("warm request log %q does not report its hit", lines[1])
	}
}

// TestCacheSharedBetweenRecommendAndExplain checks the topology: one
// cache spans both endpoints, so a /recommend warms the forward vector
// a subsequent /explain needs for its baseline.
func TestCacheSharedBetweenRecommendAndExplain(t *testing.T) {
	h := newCacheTestServer(t)
	if rec := do(t, h, "GET", "/recommend?user=Paul&n=3", nil); rec.Code != http.StatusOK {
		t.Fatal(rec.Body.String())
	}
	before := total(t, scrape(t, h), "emigre_pprcache_hits_total")
	body := map[string]any{"user": "Paul", "wni": "Harry Potter", "mode": "remove", "method": "powerset"}
	if rec := do(t, h, "POST", "/explain", body); rec.Code != http.StatusOK {
		t.Fatalf("explain: %d: %s", rec.Code, rec.Body.String())
	}
	after := total(t, scrape(t, h), "emigre_pprcache_hits_total")
	if after <= before {
		t.Fatalf("explain did not reuse recommend's vectors: hits %v -> %v", before, after)
	}
}

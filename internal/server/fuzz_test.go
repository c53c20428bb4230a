package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/why-not-xai/emigre/internal/obs"
)

// FuzzRequestBodies sends arbitrary bytes to POST /explain and POST
// /diagnose on the books graph. Whatever the body, the server must
// answer without panicking and without a 500: malformed input is the
// client's fault (4xx), and shedding or a deadline (503, 504) are the
// only server-side outcomes allowed.
func FuzzRequestBodies(f *testing.F) {
	for _, seed := range []string{
		`{"user":"Paul","wni":"Harry Potter","mode":"remove","method":"powerset"}`,
		`{"user":"Paul","items":["Harry Potter","The Hobbit"],"mode":"add","method":"exhaustive"}`,
		`{"user":"Paul","category":"Fantasy","mode":"remove"}`,
		`{"user":"Paul","wni":"The Hobbit","mode":"remove","timeout_ms":1}`,
		`{"user":"0","wni":"9","mode":"reweight","method":"brute"}`,
		`{"user":"nobody","wni":""}`,
		`{"user":"Paul","wni":"Harry Potter"}{"trailing":1}`,
		`{"user":["Paul"]}`,
		`{not json`,
		``,
	} {
		f.Add([]byte(seed))
	}
	srv, _ := newTestServerCfg(f, func(c *Config) { c.Metrics = obs.NewRegistry() })
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, path := range []string{"/explain", "/diagnose"} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(body)))
			switch code := rec.Code; {
			case code == http.StatusServiceUnavailable, code == http.StatusGatewayTimeout:
			case code >= 500:
				t.Fatalf("POST %s %q = %d: %s", path, body, code, rec.Body.String())
			}
		}
	})
}

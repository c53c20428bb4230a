package obs

import (
	"bytes"
	"testing"
)

// FuzzParseExposition checks that anything ParseExposition accepts
// reaches a fixed point after one emit→parse cycle, and that Validate
// gives the same verdict before and after that cycle: re-emitting a
// scrape must neither change it further nor change whether it keeps
// the contract.
func FuzzParseExposition(f *testing.F) {
	f.Add([]byte(render(corpusRegistry())))
	for _, tc := range validateRejectCases {
		f.Add([]byte(tc.in))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		e, err := ParseExposition(in)
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := e.WritePrometheus(&first); err != nil {
			t.Fatal(err)
		}
		e2, err := ParseExposition(first.Bytes())
		if err != nil {
			t.Fatalf("re-parse of emitted text failed: %v\nin:   %q\nemit: %q", err, in, first.Bytes())
		}
		var second bytes.Buffer
		if err := e2.WritePrometheus(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("no fixed point for %q:\nfirst:  %q\nsecond: %q", in, first.Bytes(), second.Bytes())
		}
		before, after := e.Validate(), e2.Validate()
		if (before == nil) != (after == nil) {
			t.Fatalf("verdict changed by the cycle for %q: before %v, after %v", in, before, after)
		}
	})
}

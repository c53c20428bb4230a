// Command emigre-metrics-check validates a Prometheus text exposition
// read from stdin (or a file) against the format contract obs
// implements: HELP/TYPE headers, label syntax, histogram bucket
// invariants. CI pipes a live /metrics scrape through it and asserts
// the families every instrumented layer must export are present:
//
//	curl -fsS localhost:8080/metrics | emigre-metrics-check \
//	    -require emigre_http_requests_total,emigre_ppr_runs_total
//
// Exit status is 0 when the exposition is valid and every required
// family appears, non-zero otherwise.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"github.com/why-not-xai/emigre/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("emigre-metrics-check: ")
	var (
		input   = flag.String("input", "-", "exposition file to check (- = stdin)")
		require = flag.String("require", "", "comma-separated metric families that must be present")
		quiet   = flag.Bool("quiet", false, "suppress the summary line")
	)
	flag.Parse()

	var (
		raw []byte
		err error
	)
	if *input == "-" {
		raw, err = io.ReadAll(os.Stdin)
	} else {
		raw, err = os.ReadFile(*input)
	}
	if err != nil {
		log.Fatal(err)
	}
	if len(raw) == 0 {
		log.Fatal("empty exposition")
	}
	exp, err := obs.ParseExposition(raw)
	if err != nil {
		log.Fatal(err)
	}
	if err := exp.Validate(); err != nil {
		log.Fatal(err)
	}
	families := make(map[string]bool)
	for _, name := range exp.FamilyNames() {
		families[name] = true
	}
	var missing []string
	for _, want := range strings.Split(*require, ",") {
		want = strings.TrimSpace(want)
		if want == "" {
			continue
		}
		// A histogram family is declared under its base name; accept the
		// base name for its derived _bucket/_sum/_count series too.
		base := want
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if cut, ok := strings.CutSuffix(want, suffix); ok && families[cut] {
				base = cut
				break
			}
		}
		if !families[base] {
			missing = append(missing, want)
		}
	}
	if len(missing) > 0 {
		log.Fatalf("valid exposition, but missing required families: %s", strings.Join(missing, ", "))
	}
	if !*quiet {
		fmt.Printf("ok: %d families, %d bytes\n", len(families), len(raw))
	}
}

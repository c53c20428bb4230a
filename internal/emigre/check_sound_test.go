package emigre

import (
	"errors"
	"math/rand"
	"testing"

	"github.com/why-not-xai/emigre/internal/hin"
	"github.com/why-not-xai/emigre/internal/rec"
)

// TestDeltaRandomGraphsSound checks the default (screened) CHECK path
// on random graphs with the β-mixed view: every explanation it returns
// must pass a cold verification.
func TestDeltaRandomGraphsSound(t *testing.T) {
	rng := rand.New(rand.NewSource(811))
	for trial := 0; trial < 10; trial++ {
		g := hin.NewGraph()
		user := g.Types().NodeType("user")
		item := g.Types().NodeType("item")
		rated := g.Types().EdgeType("rated")
		nUsers, nItems := 4+rng.Intn(4), 10+rng.Intn(8)
		for i := 0; i < nUsers; i++ {
			g.AddNode(user, "")
		}
		for i := 0; i < nItems; i++ {
			g.AddNode(item, "")
		}
		for i := 0; i < nUsers*5; i++ {
			u := hin.NodeID(rng.Intn(nUsers))
			it := hin.NodeID(nUsers + rng.Intn(nItems))
			if !g.HasEdge(u, it) {
				_ = g.AddBidirectional(u, it, rated, 1+rng.Float64()*2)
			}
		}
		cfg := rec.DefaultConfig(item)
		cfg.Beta = 0.5 // exercise the β-view path under warm-start repairs
		r, err := rec.New(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{
			AllowedEdgeTypes: hin.NewEdgeTypeSet(rated),
			AddEdgeType:      rated,
		}
		ex := New(g, r, opts)
		exCold := New(g, r, coldOptions(opts))
		u := hin.NodeID(rng.Intn(nUsers))
		top, err := r.TopN(u, 4)
		if err != nil || len(top) < 2 {
			continue
		}
		q := Query{User: u, WNI: top[len(top)-1].Node}
		for _, mode := range []Mode{Remove, Add} {
			expl, err := ex.ExplainWith(q, mode, Powerset)
			if errors.Is(err, ErrNoExplanation) {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			ok, err := exCold.Verify(expl)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("trial %d %v: screened explanation unsound: %v", trial, mode, expl.Edges)
			}
		}
	}
}

package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"github.com/why-not-xai/emigre/client"
	"github.com/why-not-xai/emigre/internal/emigre"
	"github.com/why-not-xai/emigre/internal/hin"
	"github.com/why-not-xai/emigre/internal/pprcache"
	"github.com/why-not-xai/emigre/internal/rec"
)

// The served-vs-direct check re-asks servedSamples explains, drawn
// among those answered within sampleMaxLatency so the check stays
// cheap next to the measured window.
const (
	servedSamples    = 2
	sampleMaxLatency = 400 * time.Millisecond
)

// directExplainer builds an explainer configured like the benchmark's
// servers, with its own cache, over the generated graph, and returns
// it with the recommender it ranks by.
func directExplainer(w *World, workers int) (*emigre.Explainer, *rec.Recommender) {
	cache := pprcache.New(pprcache.Config{})
	opts := w.opts
	opts.Cache = cache
	opts.Parallelism = workers
	r := w.rec.WithCache(cache)
	return emigre.New(w.ds.Graph, r, opts), r
}

// servedExplanation rebuilds the library explanation a served /explain
// body describes, so Explainer.Verify can re-check it.
func servedExplanation(w *World, q *Question, body *client.ExplainResponse) (*emigre.Explanation, error) {
	expl := &emigre.Explanation{
		Query: emigre.Query{User: q.User, WNI: q.WNI},
		Mode:  q.Cfg.Mode, Method: q.Cfg.Method,
	}
	for _, e := range body.Edges {
		t, ok := w.ds.Graph.Types().LookupEdgeType(e.EdgeType)
		if !ok {
			return nil, fmt.Errorf("unknown edge type %q", e.EdgeType)
		}
		edge := hin.Edge{From: hin.NodeID(e.From), To: hin.NodeID(e.To), Type: t, Weight: e.Weight}
		switch e.Operation {
		case "remove":
			expl.Removals = append(expl.Removals, edge)
		case "add":
			expl.Additions = append(expl.Additions, edge)
		default:
			return nil, fmt.Errorf("unexpected edge operation %q", e.Operation)
		}
		expl.Edges = append(expl.Edges, edge)
	}
	return expl, nil
}

// expectedBody renders a direct explanation the way the server encodes
// it, duration aside.
func expectedBody(w *World, expl *emigre.Explanation) *client.ExplainResponse {
	g := w.ds.Graph
	out := &client.ExplainResponse{
		Mode: expl.Mode.String(), Method: expl.Method.String(),
		Description: expl.Describe(g),
		OldTop:      int64(expl.OldTop), NewTop: int64(expl.NewTop),
		Verified: expl.Verified, Checks: expl.Stats.Tests,
	}
	add := func(edges []hin.Edge, op string) {
		for _, e := range edges {
			out.Edges = append(out.Edges, client.Edge{
				From: int64(e.From), To: int64(e.To), ToLabel: g.Label(e.To),
				EdgeType: g.Types().EdgeTypeName(e.Type), Weight: e.Weight, Operation: op,
			})
		}
	}
	add(expl.Removals, "remove")
	add(expl.Additions, "add")
	add(expl.Reweights, "reweight")
	return out
}

// gate runs the correctness checks over a run's results and returns
// every failure found:
//   - no request may be an invalid question;
//   - every found, full-fidelity explanation must pass Explainer.Verify
//     on the generated graph (Definition 4.2);
//   - sampled served /explain bodies must equal the direct in-process
//     answer to the same question, duration aside.
func gate(ctx context.Context, w *World, results []Result, workers int, seed int64) []string {
	var fails []string
	type qkey struct {
		u, wni hin.NodeID
		cfg    string
	}
	verified := map[qkey]bool{}
	var samples, found []*Result
	for i := range results {
		r := &results[i]
		if r.Outcome() == Invalid {
			fails = append(fails, fmt.Sprintf("%s %s: invalid question (status %d)", r.Op, r.RID, r.Status))
		}
		if r.Op != opExplain {
			continue
		}
		if o := r.Outcome(); (o == NoExpl || o == Found) && r.Latency() <= sampleMaxLatency {
			samples = append(samples, r)
		}
		if k := (qkey{r.Q.User, r.Q.WNI, r.Q.Cfg.Name}); r.Outcome() == Found && !verified[k] {
			verified[k] = true
			found = append(found, r)
		}
	}

	// Verify every distinct found answer, on nproc workers sharing one
	// explainer (its searches only read shared state).
	ex, _ := directExplainer(w, 1)
	verdicts := make([]error, len(found))
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < nproc(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1)) - 1; k < len(found); k = int(next.Add(1)) - 1 {
				r := found[k]
				expl, err := servedExplanation(w, r.Q, r.Expl)
				if err == nil {
					var ok bool
					if ok, err = ex.VerifyContext(ctx, expl); err == nil && !ok {
						err = errors.New("the edit set does not make the Why-Not item the top-1")
					}
				}
				verdicts[k] = err
			}
		}()
	}
	wg.Wait()
	for k, err := range verdicts {
		if err != nil {
			fails = append(fails, fmt.Sprintf("explain %s (%s): Verify: %v", found[k].RID, found[k].Q.Cfg.Name, err))
		}
	}

	// Served vs direct: only cheap questions are re-asked, so the gate
	// costs little next to the measured window.
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(samples), func(i, j int) { samples[i], samples[j] = samples[j], samples[i] })
	direct, _ := directExplainer(w, workers)
	for _, r := range samples[:min(len(samples), servedSamples)] {
		expl, err := direct.ExplainWithContext(ctx, emigre.Query{User: r.Q.User, WNI: r.Q.WNI}, r.Q.Cfg.Mode, r.Q.Cfg.Method)
		switch {
		case r.Status == http.StatusNotFound:
			if !errors.Is(err, emigre.ErrNoExplanation) {
				fails = append(fails, fmt.Sprintf("explain %s: served 404, direct answer %v", r.RID, err))
			}
		case err != nil:
			fails = append(fails, fmt.Sprintf("explain %s: served 200, direct answer %v", r.RID, err))
		default:
			served := *r.Expl
			served.DurationUS, served.Meta = 0, client.Meta{}
			if want := expectedBody(w, expl); !reflect.DeepEqual(&served, want) {
				fails = append(fails, fmt.Sprintf("explain %s: served body %+v differs from direct %+v", r.RID, served, *want))
			}
		}
	}
	return fails
}

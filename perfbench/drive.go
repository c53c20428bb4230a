package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/why-not-xai/emigre/client"
	"github.com/why-not-xai/emigre/internal/hin"
	"github.com/why-not-xai/emigre/internal/router"
)

// callTimeout bounds one logical call, retries included.
const callTimeout = 60 * time.Second

// Result is one logical call as the generator saw it.
type Result struct {
	Op   string
	User hin.NodeID
	Q    *Question
	// Step is the ladder rung (0 for closed-loop workloads).
	Step int
	// Due is when the request should have been sent; Sent when it was.
	// Latency runs from Due, so a stalled generator or server charges
	// its wait to every request behind it.
	Due, Sent, Done time.Time
	Status          int
	Degraded        bool
	Attempts        int
	RID             string
	Backend         string
	Expl            *client.ExplainResponse
	Items           []hin.NodeID
}

// Latency is the request's time from due to done.
func (r *Result) Latency() time.Duration { return r.Done.Sub(r.Due) }

// Outcome classifies the result.
func (r *Result) Outcome() Outcome { return classify(r.Status, r.Degraded) }

// backendTap records which backend answered each request, read from
// the router's X-Emigre-Backend response header.
type backendTap struct {
	next http.RoundTripper
	mu   sync.Mutex
	by   map[string]string // request id -> backend
}

func (t *backendTap) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.next.RoundTrip(req)
	if err == nil {
		if b := resp.Header.Get(router.BackendHeader); b != "" {
			t.mu.Lock()
			t.by[req.Header.Get(client.RequestIDHeader)] = b
			t.mu.Unlock()
		}
	}
	return resp, err
}

func (t *backendTap) backend(rid string) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.by[rid]
}

// Generator issues the workload through the client package and collects
// results. Correctness problems seen on the wire are kept in errs.
type Generator struct {
	w    *World
	cl   *client.Client
	tap  *backendTap
	tr   *Tracer // nil when untraced
	seq  atomic.Int64
	busy atomic.Int64 // summed question time of the closed loops, ns
	tag  string
	mu   sync.Mutex
	res  []Result
	errs []string
}

// newGenerator builds a client over front with at most conns connections.
// h2c speaks HTTP/2 without TLS, so an open loop can keep many
// requests in flight on those connections.
func newGenerator(w *World, front string, conns int, h2c bool, tr *Tracer, tag string) (*Generator, error) {
	tp := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	if h2c {
		tp.Protocols = new(http.Protocols)
		tp.Protocols.SetUnencryptedHTTP2(true)
	}
	tap := &backendTap{next: tp, by: map[string]string{}}
	cl, err := client.New(client.Config{BaseURL: front, HTTPClient: &http.Client{Transport: tap}})
	if err != nil {
		return nil, err
	}
	return &Generator{w: w, cl: cl, tap: tap, tr: tr, tag: tag}, nil
}

func (d *Generator) problem(format string, args ...any) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.errs) < 20 {
		d.errs = append(d.errs, fmt.Sprintf(format, args...))
	}
}

// take returns the collected results and resets the collection.
func (d *Generator) take() []Result {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := d.res
	d.res = nil
	return out
}

// issue sends one logical call and records its result.
func (d *Generator) issue(ctx context.Context, op string, user hin.NodeID, q *Question, due time.Time, step int) Result {
	g := d.w.ds.Graph
	r := Result{Op: op, User: user, Q: q, Step: step, Due: due,
		RID: fmt.Sprintf("%s-%06d", d.tag, d.seq.Add(1))}
	cctx, cancel := context.WithTimeout(client.WithRequestID(ctx, r.RID), callTimeout)
	defer cancel()
	r.Sent = time.Now()
	var err error
	var meta client.Meta
	switch op {
	case opRecommend:
		var resp *client.RecommendResponse
		if resp, err = d.cl.Recommend(cctx, g.Label(user), d.w.spec.Pinned.TopN); err == nil {
			meta = resp.Meta
			for _, it := range resp.Items {
				r.Items = append(r.Items, hin.NodeID(it.Node))
			}
		}
	case opExplain:
		r.Expl, err = d.cl.Explain(cctx, client.ExplainRequest{
			User: g.Label(user), WNI: g.Label(q.WNI),
			Mode: q.Cfg.Mode.String(), Method: q.Cfg.Method.String(),
		})
		if err == nil {
			meta = r.Expl.Meta
			r.Degraded = r.Expl.Degraded
		}
	case opDiagnose:
		var resp *client.DiagnoseResponse
		if resp, err = d.cl.Diagnose(cctx, client.DiagnoseRequest{
			User: g.Label(user), WNI: g.Label(q.WNI), Mode: q.Cfg.Mode.String(),
		}); err == nil {
			meta = resp.Meta
		}
	}
	r.Done = time.Now()
	r.Attempts = max(1, meta.Attempts)
	r.Status = http.StatusOK
	if err != nil {
		r.Status = 0
		var apiErr *client.APIError
		if errors.As(err, &apiErr) {
			r.Status = apiErr.Status
		}
	}
	r.Backend = d.tap.backend(r.RID)
	if d.tr != nil {
		d.tr.record("client."+op, r.RID, "", r.Sent, r.Done)
	}
	if op == opRecommend && r.Status == http.StatusOK {
		if want, ok := d.w.lists[user]; ok && !slices.Equal(r.Items, want) {
			d.problem("recommend %s: served list %v differs from the direct top-%d %v",
				g.Label(user), r.Items, d.w.spec.Pinned.TopN, want)
		}
	}
	d.mu.Lock()
	d.res = append(d.res, r)
	d.mu.Unlock()
	return r
}

// ask runs one Why-Not question the way a user would: fetch the list,
// ask why the item is not on top, and on a 404 ask for the §6.4
// diagnosis of the same question.
func (d *Generator) ask(ctx context.Context, q *Question) {
	start := time.Now()
	defer func() { d.busy.Add(int64(time.Since(start))) }()
	rec := d.issue(ctx, opRecommend, q.User, q, start, 0)
	if rec.Status == http.StatusOK && (len(rec.Items) < q.Rank || rec.Items[q.Rank-1] != q.WNI) {
		d.problem("question %s/%s: the served list does not hold the Why-Not item at rank %d",
			d.w.ds.Graph.Label(q.User), d.w.ds.Graph.Label(q.WNI), q.Rank)
	}
	if d.issue(ctx, opExplain, q.User, q, time.Now(), 0).Status == http.StatusNotFound {
		d.issue(ctx, opDiagnose, q.User, q, time.Now(), 0)
	}
}

// closedLoop runs clients that each ask their next question as soon
// as the last one is answered, once through the panel in the given
// order. It returns the measured window: first send to last answer.
func (d *Generator) closedLoop(ctx context.Context, panel []Question, order []int, clients int) time.Duration {
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1)) - 1; k < len(order) && ctx.Err() == nil; k = int(next.Add(1)) - 1 {
				d.ask(ctx, &panel[order[k]])
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// openLoop sends each planned request at its due time regardless of
// how earlier ones fare, step after step, then waits for every answer.
func (d *Generator) openLoop(ctx context.Context, steps []Step) {
	var wg sync.WaitGroup
	stepStart := time.Now()
	for i, st := range steps {
		for k := range st.Reqs {
			p := &st.Reqs[k]
			due := stepStart.Add(p.Due)
			if wait := time.Until(due); wait > 0 {
				select {
				case <-time.After(wait):
				case <-ctx.Done():
				}
			}
			if ctx.Err() != nil {
				break
			}
			wg.Add(1)
			go func(step int) {
				defer wg.Done()
				d.issue(ctx, p.Op, p.User, p.Q, due, step)
			}(i)
		}
		stepStart = stepStart.Add(st.Dur)
		if wait := time.Until(stepStart); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
			}
		}
	}
	wg.Wait()
}

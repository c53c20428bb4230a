package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"github.com/why-not-xai/emigre/client"
	"github.com/why-not-xai/emigre/internal/dataset"
	"github.com/why-not-xai/emigre/internal/emigre"
	"github.com/why-not-xai/emigre/internal/eval"
	"github.com/why-not-xai/emigre/internal/hin"
	"github.com/why-not-xai/emigre/internal/obs"
	"github.com/why-not-xai/emigre/internal/rec"
	"github.com/why-not-xai/emigre/internal/router"
	"github.com/why-not-xai/emigre/internal/server"
)

//go:embed spec.json
var specJSON []byte

// Spec is spec.json: every setting the benchmark is pinned to.
type Spec struct {
	Dataset struct {
		Seed int64 `json:"seed"`
	} `json:"dataset"`
	Pinned struct {
		Alpha     float64  `json:"alpha"`
		Beta      float64  `json:"beta"`
		Epsilon   float64  `json:"epsilon"`
		MaxTests  int      `json:"max_tests"`
		TopN      int      `json:"top_n"`
		EdgeTypes []string `json:"edge_types"`
		AddType   string   `json:"add_type"`
	} `json:"pinned"`
	SetupRepeats int `json:"setup_repeats"`
	WhyNot       struct {
		PanelSeed             int64    `json:"panel_seed"`
		QuestionsPerSecond    float64  `json:"panel_questions_per_second"`
		Configs               []string `json:"configs"`
		LatencyClients        int      `json:"latency_clients"`
		LatencyExplainWorkers int      `json:"latency_explain_workers"`
	} `json:"whynot"`
	Serve struct {
		Backends        int                `json:"backends"`
		ZipfS           float64            `json:"zipf_s"`
		Mix             map[string]float64 `json:"mix"`
		ExplainConfigs  []string           `json:"explain_configs"`
		LadderRPS       []float64          `json:"ladder_rps"`
		LadderTimeShare []float64          `json:"ladder_time_share"`
		NominalRPS      float64            `json:"nominal_rps"`
		SLOTarget       float64            `json:"slo_target"`
	} `json:"serve"`
	LimitsMS map[string]float64 `json:"limits_ms"`
}

func loadSpec() (*Spec, error) {
	var s Spec
	if err := json.Unmarshal(specJSON, &s); err != nil {
		return nil, fmt.Errorf("spec.json: %w", err)
	}
	return &s, nil
}

// methodSpec resolves a paper configuration name ("remove_powerset").
func methodSpec(name string) (eval.MethodSpec, error) {
	for _, m := range eval.PaperMethods() {
		if m.Name == name {
			return m, nil
		}
	}
	return eval.MethodSpec{}, fmt.Errorf("unknown configuration %q", name)
}

// World is the generated evaluation graph with its Why-Not questions:
// everything the benchmark derives from the dataset before any server
// exists. The program under test sees only these inputs.
type World struct {
	ds    *dataset.Amazon
	users []hin.NodeID
	// scenarios are the §6.2 questions from eval.Runner.Scenarios.
	scenarios []eval.Scenario
	// lists holds each user's direct top-N list, rebuilt from the
	// scenarios (the top-1 followed by the Why-Not items in rank order).
	lists map[hin.NodeID][]hin.NodeID
	rec   *rec.Recommender
	opts  emigre.Options
	spec  *Spec
}

// Timings are one set-up's phase durations.
type Timings struct {
	Generate, CSR, Scenarios, Boot, Warm, Total time.Duration
}

// buildWorld generates Amazon Lite and enumerates its questions.
func buildWorld(spec *Spec, t *Timings) (*World, error) {
	start := time.Now()
	cfg := dataset.DefaultConfig()
	cfg.Seed = spec.Dataset.Seed
	full, err := dataset.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("generating dataset: %w", err)
	}
	lcfg := dataset.DefaultLiteConfig()
	lcfg.Seed = spec.Dataset.Seed
	ds, users, err := full.Lite(lcfg)
	if err != nil {
		return nil, fmt.Errorf("extracting Amazon Lite: %w", err)
	}
	t.Generate = time.Since(start)

	p := spec.Pinned
	rcfg := rec.DefaultConfig(ds.Types.Item)
	rcfg.PPR.Alpha, rcfg.PPR.Epsilon, rcfg.Beta = p.Alpha, p.Epsilon, p.Beta
	r, err := rec.New(ds.Graph, rcfg)
	if err != nil {
		return nil, err
	}
	mark := time.Now()
	r.Flat()
	t.CSR = time.Since(mark)

	mark = time.Now()
	scen, err := scenarios(r, ds.Graph, users, p.TopN)
	if err != nil {
		return nil, err
	}
	t.Scenarios = time.Since(mark)

	var allowed []hin.EdgeTypeID
	for _, name := range p.EdgeTypes {
		id, ok := ds.Graph.Types().LookupEdgeType(name)
		if !ok {
			return nil, fmt.Errorf("edge type %q not in the graph", name)
		}
		allowed = append(allowed, id)
	}
	add, ok := ds.Graph.Types().LookupEdgeType(p.AddType)
	if !ok {
		return nil, fmt.Errorf("edge type %q not in the graph", p.AddType)
	}
	w := &World{
		ds: ds, users: users, scenarios: scen, rec: r, spec: spec,
		lists: map[hin.NodeID][]hin.NodeID{},
		opts: emigre.Options{
			AllowedEdgeTypes: hin.NewEdgeTypeSet(allowed...),
			AddEdgeType:      add,
			MaxTests:         p.MaxTests,
		},
	}
	for _, s := range scen {
		if len(w.lists[s.User]) == 0 {
			w.lists[s.User] = []hin.NodeID{s.Rec}
		}
		w.lists[s.User] = append(w.lists[s.User], s.WNI)
	}
	return w, nil
}

// scenarios runs eval.Runner.Scenarios over the users split across the
// available cores (the recommender is read-only once its snapshot is
// built), keeping the runner's own per-user order.
func scenarios(r *rec.Recommender, g *hin.Graph, users []hin.NodeID, topN int) ([]eval.Scenario, error) {
	runner := eval.NewRunner(g, r)
	parts := min(nproc(), len(users))
	out := make([][]eval.Scenario, parts)
	errs := make([]error, parts)
	var wg sync.WaitGroup
	for i := 0; i < parts; i++ {
		lo, hi := i*len(users)/parts, (i+1)*len(users)/parts
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i], errs[i] = runner.Scenarios(users[lo:hi], topN, 0)
		}(i)
	}
	wg.Wait()
	var all []eval.Scenario
	for i := range out {
		if errs[i] != nil {
			return nil, fmt.Errorf("enumerating scenarios: %w", errs[i])
		}
		all = append(all, out[i]...)
	}
	if len(all) == 0 {
		return nil, errors.New("no Why-Not scenarios on the generated graph")
	}
	return all, nil
}

// listener is one in-process HTTP front on a real loopback socket.
type listener struct {
	url  string
	hs   *http.Server
	done chan struct{}
}

// serve starts h on 127.0.0.1:0. h2c additionally accepts HTTP/2
// without TLS, so the open-loop generator can keep many requests in
// flight over at most nproc connections.
func serve(h http.Handler, h2c bool) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	if h2c {
		hs.Protocols = new(http.Protocols)
		hs.Protocols.SetHTTP1(true)
		hs.Protocols.SetUnencryptedHTTP2(true)
	}
	l := &listener{url: "http://" + ln.Addr().String(), hs: hs, done: make(chan struct{})}
	go func() {
		defer close(l.done)
		if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("serving %s: %v", l.url, err)
		}
	}()
	return l, nil
}

// close shuts the listener down and waits for its serve loop to end.
func (l *listener) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := l.hs.Shutdown(ctx); err != nil {
		l.hs.Close()
	}
	<-l.done
}

// Backend is one in-process emigre-server with its own obs registry,
// so its counters stay separable from the other backend's.
type Backend struct {
	srv *server.Server
	reg *obs.Registry
	l   *listener
}

// Fleet is what one workload talks to: one server, or a router over
// several, each behind a loopback listener.
type Fleet struct {
	backends []*Backend
	rt       *router.Router
	rtReg    *obs.Registry
	rtL      *listener
	// front is the URL the load generator targets.
	front string
}

// FleetConfig shapes a fleet.
type FleetConfig struct {
	Backends       int
	ExplainWorkers int
	Router         bool
	// H2C lets the router's front listener accept HTTP/2 without TLS.
	H2C bool
}

// boot starts the fleet. wrap, when non-nil, wraps each handler at its
// public entry point ("router" or "server") for the traced run.
func boot(w *World, fc FleetConfig, wrap func(layer string, h http.Handler) http.Handler) (*Fleet, error) {
	if wrap == nil {
		wrap = func(_ string, h http.Handler) http.Handler { return h }
	}
	quiet := log.New(io.Discard, "", 0)
	f := &Fleet{}
	for i := 0; i < fc.Backends; i++ {
		reg := obs.NewRegistry()
		srv, err := server.New(server.Config{
			Graph:          w.ds.Graph,
			Recommender:    w.rec,
			Options:        w.opts,
			ExplainWorkers: fc.ExplainWorkers,
			Logger:         quiet,
			Metrics:        reg,
		})
		if err != nil {
			f.close()
			return nil, fmt.Errorf("booting backend %d: %w", i, err)
		}
		l, err := serve(wrap("server", srv.Handler()), false)
		if err != nil {
			f.close()
			return nil, err
		}
		f.backends = append(f.backends, &Backend{srv: srv, reg: reg, l: l})
	}
	f.front = f.backends[0].l.url
	if fc.Router {
		var urls []string
		for _, b := range f.backends {
			urls = append(urls, b.l.url)
		}
		f.rtReg = obs.NewRegistry()
		rt, err := router.New(router.Config{
			Backends:      urls,
			ProbeInterval: 200 * time.Millisecond,
			Logger:        quiet,
		}, f.rtReg)
		if err != nil {
			f.close()
			return nil, fmt.Errorf("booting router: %w", err)
		}
		f.rt = rt
		if f.rtL, err = serve(wrap("router", rt.Handler()), fc.H2C); err != nil {
			f.close()
			return nil, err
		}
		f.front = f.rtL.url
	}
	if err := f.waitReady(); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// waitReady polls the front's /readyz until it answers 200.
func (f *Fleet) waitReady() error {
	cl, err := client.New(client.Config{BaseURL: f.front, MaxAttempts: 1})
	if err != nil {
		return err
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		err := cl.Ready(ctx)
		cancel()
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet not ready: %w", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// close stops the router, then the backends, and waits for each.
func (f *Fleet) close() {
	if f.rtL != nil {
		f.rtL.close()
	}
	if f.rt != nil {
		f.rt.Close()
	}
	for _, b := range f.backends {
		b.l.close()
	}
}

// warm fetches every user's top-N list through the front with nproc
// connections, so the measured window starts with base vectors cached
// where the router places each user.
func warm(ctx context.Context, cl *client.Client, w *World) error {
	users := append([]hin.NodeID(nil), w.users...)
	sort.Slice(users, func(i, j int) bool { return users[i] < users[j] })
	errs := make(chan error, len(users)) // one slot per user: never blocks
	jobs := make(chan hin.NodeID)
	var wg sync.WaitGroup
	for i := 0; i < nproc(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for u := range jobs {
				if _, err := cl.Recommend(ctx, w.ds.Graph.Label(u), w.spec.Pinned.TopN); err != nil {
					errs <- fmt.Errorf("warming %s: %w", w.ds.Graph.Label(u), err)
				}
			}
		}()
	}
	for _, u := range users {
		jobs <- u
	}
	close(jobs)
	wg.Wait()
	close(errs)
	return <-errs
}

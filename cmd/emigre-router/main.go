// Command emigre-router fronts a fleet of emigre-server backends: it
// consistent-hashes each request's user over the backend ring (so warm
// PPR push state and cached vectors stay shard-local), probes backend
// readiness and routes around draining or dead nodes, hedges slow
// explain requests against the ring successor, and coalesces
// multi-user batches into per-backend fan-outs.
//
//	emigre-router -listen :8090 -backends 127.0.0.1:8081,127.0.0.1:8082,127.0.0.1:8083
//
// Endpoints (JSON, mirror emigre-server's shapes byte for byte):
//
//	GET  /healthz
//	GET  /readyz
//	GET  /metrics
//	GET  /recommend?user=Paul&n=10
//	POST /explain        {"user":"Paul","wni":"Harry Potter","mode":"remove"}
//	POST /explain/batch  {"requests":[{...},{...}]}
//	POST /diagnose       {"user":"Paul","wni":"The Hobbit","mode":"remove"}
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/why-not-xai/emigre/internal/obs"
	"github.com/why-not-xai/emigre/internal/router"
	"github.com/why-not-xai/emigre/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("emigre-router: ")
	var (
		listen   = flag.String("listen", ":8090", "listen address")
		backends = flag.String("backends", "",
			"comma-separated emigre-server base URLs or host:port addresses (required)")
		vnodes = flag.Int("virtual-nodes", router.DefaultVirtualNodes,
			"virtual nodes per backend on the consistent-hash ring")
		probeInterval = flag.Duration("probe-interval", router.DefaultProbeInterval,
			"backend /readyz poll period (keep it under the backends' -drain-grace)")
		hedgeAfter = flag.Duration("hedge-after", 0,
			"fixed hedge trigger for slow requests (0 = adaptive per-op p95)")
		failoverLegs = flag.Int("failover-legs", router.DefaultFailoverLegs,
			"max distinct backends one request may try, hedge leg included (1 = no hedging)")
		maxConcurrent = flag.Int64("max-concurrent", router.DefaultMaxConcurrent,
			"request units admitted at once at the router front door (a batch costs its size)")
		queueDepth = flag.Int("queue-depth", router.DefaultQueueDepth,
			"requests allowed to wait for admission before 503 (0 = no queue)")
		upstreamTimeout = flag.Duration("upstream-timeout", router.DefaultUpstreamTimeout,
			"end-to-end deadline per routed call, hedge legs included")
		upstreamAttempts = flag.Int("upstream-attempts", router.DefaultUpstreamAttempts,
			"resilient-client attempts per backend leg")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second,
			"how long to wait for in-flight requests on shutdown")
		drainGrace = flag.Duration("drain-grace", server.DefaultDrainGrace,
			"how long /readyz serves 503 while still accepting connections before the listener closes")
	)
	flag.Parse()

	if *backends == "" {
		log.Fatal("-backends is required (comma-separated emigre-server addresses)")
	}
	var list []string
	for _, b := range strings.Split(*backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			list = append(list, b)
		}
	}

	reg := obs.NewRegistry()
	rt, err := router.New(router.Config{
		Backends:         list,
		VirtualNodes:     *vnodes,
		ProbeInterval:    *probeInterval,
		HedgeAfter:       *hedgeAfter,
		FailoverLegs:     *failoverLegs,
		MaxConcurrent:    *maxConcurrent,
		QueueDepth:       *queueDepth,
		UpstreamTimeout:  *upstreamTimeout,
		UpstreamAttempts: *upstreamAttempts,
		Logger:           log.Default(),
	}, reg)
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Close()

	httpServer := &http.Server{
		Addr:              *listen,
		Handler:           rt.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	log.Printf("routing %d backends on %s (vnodes=%d, legs=%d)",
		len(list), *listen, *vnodes, *failoverLegs)

	// Serve until SIGINT/SIGTERM, then drain in the order the fleet's
	// own prober depends on: readiness 503 first, grace window, then
	// listener close.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	//lint:allow goroleak listener runs for the process lifetime; ListenAndServe returns into the buffered errc when DrainOrdered shuts it down below
	go func() { errc <- httpServer.ListenAndServe() }()
	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
		stop()
		log.Printf("shutdown signal received, draining (readiness grace %v, then up to %v for in-flight work)", *drainGrace, *drainTimeout)
		if err := server.DrainOrdered(rt, httpServer, *drainGrace, *drainTimeout); err != nil {
			log.Fatalf("drain incomplete: %v", err)
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
		log.Print("drained cleanly")
	}
}

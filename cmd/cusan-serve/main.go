// cusan-serve is the checking-as-a-service daemon: the campaign
// engine behind a JSON HTTP API. Submit a job matrix, stream its
// per-job JSONL records as they land, query findings by fingerprint
// across all campaigns, and share one content-addressed result cache —
// a warm resubmission of an identical matrix executes zero jobs.
//
// Usage:
//
//	cusan-serve [-addr host:port] [-j N] [-concurrency K] [-cache dir]
//	            [-salt s] [-state dir] [-backlog N] [-tenant-quota N]
//	            [-timeout d] [-max-steps N] [-retries N] [-version]
//
// API (see DESIGN.md §13 and the README for curl examples):
//
//	POST /v1/campaigns               submit a matrix (cusan-campaign flags as JSON)
//	GET  /v1/campaigns/{id}          campaign status
//	GET  /v1/campaigns/{id}/stream   NDJSON record stream, resumable via ?from=
//	GET  /v1/findings/{fp}           finding lookup by stable fingerprint
//	GET  /v1/status                  queue depth, cache hit rate, utilization
//	GET  /debug/pprof/               net/http/pprof profiles of the daemon
//
// The streamed JSONL of a completed campaign is byte-identical to
// `cusan-campaign -out` offline output for the same matrix and build
// salt (pass matching -max-steps to both; it is part of the cache
// identity). -concurrency K runs up to K campaigns at once under
// tenant-fair scheduling over one shared -j-wide job pool. -timeout,
// -max-steps and -retries supervise every job exactly as
// cusan-campaign does: hung jobs are torn down by the watchdog,
// runaway jobs get the deterministic "budget" verdict, and infra-class
// failures retry with deterministic backoff.
//
// SIGTERM/SIGINT drains gracefully: in-flight jobs finish, queued
// campaigns persist manifests under -state and resume on the next
// start, and connected streams receive a terminal drain record
// carrying the offset to resume from. Manifests and cache entries are
// fsynced, so even a kill -9 restart resumes every accepted campaign
// with a byte-exact continuation of its stream.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"cusango/internal/core"
	"cusango/internal/serve"
)

func main() {
	os.Exit(run())
}

// newMux serves the API routes of api plus the net/http/pprof
// endpoints under /debug/pprof/, so an operator can profile a live
// daemon (go tool pprof http://host:port/debug/pprof/profile).
func newMux(api http.Handler) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/", api)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func run() int {
	addr := flag.String("addr", "127.0.0.1:8077", "listen address (host:port; :0 picks a free port)")
	workers := flag.Int("j", runtime.NumCPU(), "process-wide job pool shared by all running campaigns")
	concurrency := flag.Int("concurrency", 1, "campaigns running at once (tenant-fair over the shared pool)")
	cacheDir := flag.String("cache", "", "shared result cache directory (empty = in-memory)")
	salt := flag.String("salt", "", "cache build salt (empty = derive from build info)")
	stateDir := flag.String("state", "", "manifest directory for drain/resume (empty = no durability)")
	backlog := flag.Int("backlog", serve.DefaultBacklog, "max queued campaigns before 429")
	quota := flag.Int("tenant-quota", serve.DefaultTenantQuota,
		"max queued+running campaigns per API key before 429 (negative = unlimited)")
	timeout := flag.Duration("timeout", 0, "wall-clock deadline per job attempt (0 = no watchdog)")
	maxSteps := flag.Int64("max-steps", 0,
		"logical step budget per job (0 = unlimited; changes verdicts, salts the cache)")
	retries := flag.Int("retries", 0, "max supervised retries of infra-class failures")
	version := flag.Bool("version", false, "print build identification and exit")
	flag.Parse()

	if *version {
		fmt.Println(core.VersionLine("cusan-serve"))
		return 0
	}

	if *timeout < 0 || *maxSteps < 0 || *retries < 0 || *concurrency < 0 {
		fmt.Fprintln(os.Stderr, "cusan-serve: -timeout, -max-steps, -retries and -concurrency must be >= 0")
		return 1
	}
	srv, err := serve.New(serve.Config{
		Workers:     *workers,
		Concurrency: *concurrency,
		Salt:        *salt,
		CacheDir:    *cacheDir,
		StateDir:    *stateDir,
		Backlog:     *backlog,
		TenantQuota: *quota,
		JobTimeout:  *timeout,
		Retries:     *retries,
		MaxSteps:    *maxSteps,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "cusan-serve:", err)
		return 1
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cusan-serve:", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "cusan-serve: listening on http://%s (workers=%d concurrency=%d salt=%s)\n",
		ln.Addr(), *workers, *concurrency, srv.Salt())

	hs := &http.Server{Handler: newMux(srv.Handler())}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case got := <-sig:
		fmt.Fprintf(os.Stderr, "cusan-serve: %s — draining (in-flight jobs finish, backlog persists)\n", got)
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, "cusan-serve:", err)
		return 1
	}

	srv.Drain()
	// The drain woke every stream with its terminal record; Shutdown
	// now only waits for those responses to flush.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "cusan-serve:", err)
		return 1
	}
	fmt.Fprintln(os.Stderr, "cusan-serve: drained")
	return 0
}

// msimd is the M-Machine simulation service: an HTTP/JSON server that
// accepts .wl scenario submissions, runs each one as an isolated,
// supervised, budgeted session, streams per-phase results, and recovers
// crashed or stalled sessions from periodic checkpoints — bit-identically
// to an uninterrupted run. See docs/msimd.md for the API and semantics.
//
// Exit codes: 0 clean shutdown (including SIGTERM/SIGINT drain),
// 1 runtime failure (listen/serve error), 2 usage error.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve"
)

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("msimd", flag.ContinueOnError)
	var (
		addr  = fs.String("addr", "127.0.0.1:7774", "listen address")
		spool = fs.String("spool", "msimd-spool", "checkpoint spool directory (sessions recover from here)")

		workers = fs.Int("workers", 0, "concurrent sessions (0 = GOMAXPROCS, capped at 8)")
		queue   = fs.Int("queue", 64, "admission queue depth; beyond it submissions get 429")

		maxNodes      = fs.Int("max-nodes", 1024, "admission cap: largest mesh a session may declare")
		maxCycles     = fs.Int64("max-cycles", 1e9, "admission cap: largest cycle budget a session may declare")
		defaultCycles = fs.Int64("default-cycles", 50e6, "cycle budget for scenarios without a budget directive")
		maxWall       = fs.Duration("max-wall", 5*time.Minute, "admission cap: longest per-attempt deadline")
		defaultWall   = fs.Duration("default-wall", time.Minute, "deadline for scenarios without a deadline directive")

		checkpointEvery = fs.Int64("checkpoint-every", 4096, "cycles per run slice; checkpoint cadence")
		retries         = fs.Int("retries", 3, "max transient-failure retries per session (-1 = none)")
		backoff         = fs.Duration("backoff", 100*time.Millisecond, "initial retry backoff (doubles per retry)")
		backoffCap      = fs.Duration("backoff-cap", 5*time.Second, "retry backoff ceiling")
		grace           = fs.Duration("grace", 0, "hang grace after a watchdog stop (0 = guard default)")

		chaos = fs.String("chaos", "", "fault injection, e.g. seed=1,panic=3,stall=5,delay=2s,maxcycle=4096 (testing only)")
	)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: msimd [flags]\n\n"+
			"msimd serves .wl scenarios over HTTP (POST /api/v1/sessions) with\n"+
			"supervised execution, checkpoint-based crash recovery, admission\n"+
			"control, and graceful drain on SIGTERM/SIGINT. See docs/msimd.md.\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(os.Args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "msimd: unexpected argument %q\n", fs.Arg(0))
		fs.Usage()
		return 2
	}

	logger := log.New(os.Stderr, "msimd: ", log.LstdFlags)
	cfg := serve.Config{
		Spool:           *spool,
		Workers:         *workers,
		Queue:           *queue,
		MaxNodes:        *maxNodes,
		MaxCycles:       *maxCycles,
		DefaultCycles:   *defaultCycles,
		MaxWall:         *maxWall,
		DefaultWall:     *defaultWall,
		CheckpointEvery: *checkpointEvery,
		Retries:         *retries,
		Backoff:         *backoff,
		BackoffCap:      *backoffCap,
		Grace:           *grace,
		Logf:            logger.Printf,
	}
	if *chaos != "" {
		c, err := serve.ParseChaos(*chaos)
		if err != nil {
			fmt.Fprintf(os.Stderr, "msimd: -chaos: %v\n", err)
			return 2
		}
		cfg.Chaos = c
		logger.Printf("chaos enabled: %+v", *c)
	}

	sv, err := serve.New(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "msimd: %v\n", err)
		return 1
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "msimd: %v\n", err)
		return 1
	}
	logger.Printf("listening on %s (spool %s)", ln.Addr(), *spool)

	hs := &http.Server{Handler: sv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }() //mlint:allow gocheck HTTP accept loop; simulation work stays on serve's supervised workers

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)

	select {
	case sig := <-sigs:
		logger.Printf("%v: draining (in-flight sessions checkpoint and suspend)", sig)
		// Drain first — it flips /healthz to 503 immediately and returns
		// once the pool is idle and every in-flight session has its
		// checkpoint in the spool — then stop the HTTP server, so clients
		// can poll session state for the whole drain window.
		sv.Drain()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
		st := sv.Stats()
		logger.Printf("drained: %d done, %d suspended, %d failed, %d canceled",
			st.Done, st.Suspended, st.Failed, st.Canceled)
		return 0
	case err := <-serveErr:
		fmt.Fprintf(os.Stderr, "msimd: %v\n", err)
		return 1
	}
}

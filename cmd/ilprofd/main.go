// Command ilprofd is the profile-ingestion daemon: a long-running
// server that accepts profdb snapshots from any number of profiling
// machines, batches them into one persistent WAL-backed profile
// database through a single writer, and serves deterministic weighted
// merges back to compiler invocations:
//
//	ilprofd -db espresso.profdb -addr 127.0.0.1:7411
//
// API:
//
//	POST /ingest            body: ILPROFSNAP payload (ilprof -post emits these)
//	GET  /profile?fingerprint=<fp>[&halflife=N][&stale=W]
//	                        merged ILPROFSNAP for that program version
//	GET  /healthz           readiness: store open + WAL clean
//	GET  /stats             ingest/merge/staleness counters as JSON
//	GET  /metrics           the same counters plus latency histograms, WAL
//	                        fsync timings, and recovery state, in Prometheus
//	                        text exposition format
//
// /stats and /metrics are two views of one registry, so their counts can
// never disagree. Every request is answered with an X-Request-Id header
// and logged as one JSON line to stderr.
//
// Responses to /ingest are sent only after the snapshot is committed,
// so a client that ingests and immediately fetches /profile observes
// its own write. The daemon rewrites its database file atomically every
// -flush-every commits and once more on shutdown (SIGINT/SIGTERM), so
// killing the daemon never loses acknowledged data beyond the final
// flush.
package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"flag"

	"inlinec/internal/chaos"
	"inlinec/internal/profdb"
)

func main() {
	shutdown := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		close(shutdown)
	}()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil, shutdown))
}

// run starts the daemon. ready, if non-nil, receives the bound address
// once the listener is up (tests use this); shutdown, when closed,
// triggers graceful drain + final flush.
func run(args []string, stdout, stderr io.Writer, ready func(addr string), shutdown <-chan struct{}) int {
	fs := flag.NewFlagSet("ilprofd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:7411", "listen address")
	dbPath := fs.String("db", "", "profile database file (created if missing; WAL-backed, flushed atomically)")
	program := fs.String("program", "", "program name for a fresh database (else taken from the first snapshot)")
	flushEvery := fs.Int("flush-every", 16, "write a fresh snapshot (and rotate the WAL) after this many committed snapshots")
	chaosSpec := fs.String("chaos-fs", "", "fault-injection spec for the store filesystem (testing only), e.g. seed=1,write=0.02,sync=0.02,rename=0.01,torn=0.01")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *dbPath == "" {
		fmt.Fprintln(stderr, "ilprofd: -db is required")
		fs.PrintDefaults()
		return 2
	}
	var fsys chaos.FS = chaos.OSFS{}
	var inj *chaos.Injector
	if *chaosSpec != "" {
		cfg, err := chaos.ParseConfig(*chaosSpec)
		if err != nil {
			fmt.Fprintf(stderr, "ilprofd: -chaos-fs: %v\n", err)
			return 2
		}
		inj = chaos.NewInjector(fsys, cfg)
		inj.SetEnabled(false) // recovery always runs fault-free
		fsys = inj
	}
	store, recovery, err := profdb.Open(fsys, *dbPath, *program)
	if err != nil {
		fmt.Fprintf(stderr, "ilprofd: %v\n", err)
		return 1
	}
	if recovery.ReplayedRecords > 0 || !recovery.Clean() {
		fmt.Fprintf(stderr, "ilprofd: recovery: %s\n", recovery)
	}
	if inj != nil {
		inj.SetEnabled(true)
		fmt.Fprintf(stderr, "ilprofd: CHAOS MODE: injecting filesystem faults (%s)\n", *chaosSpec)
	}
	db := store.DB()
	s := newStoreNode(store, *flushEvery, recovery)
	s.logw = stderr
	s.Start()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "ilprofd: %v\n", err)
		return 1
	}
	fmt.Fprintf(stderr, "ilprofd: listening on %s (db %s, %d record(s), %d run(s))\n",
		ln.Addr(), *dbPath, len(db.Records), db.TotalRuns())
	if ready != nil {
		ready(ln.Addr().String())
	}

	hs := &http.Server{Handler: s.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		fmt.Fprintf(stderr, "ilprofd: %v\n", err)
		s.Stop()
		return 1
	case <-shutdown:
	}
	if inj != nil {
		inj.SetEnabled(false) // graceful shutdown drains and flushes fault-free
	}
	fmt.Fprintln(stderr, "ilprofd: shutting down")
	hs.Close()
	if err := s.Stop(); err != nil {
		fmt.Fprintf(stderr, "ilprofd: final flush: %v\n", err)
		return 1
	}
	final := s.DB() // writer drained: safe to read directly
	fmt.Fprintf(stdout, "ilprofd: flushed %s: %d record(s), %d run(s), %d snapshot(s) ingested this session\n",
		*dbPath, len(final.Records), final.TotalRuns(), s.ingested.Value())
	return 0
}

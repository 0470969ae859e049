package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"inlinec/internal/obs"
	"inlinec/internal/profdb"
)

// ingestReq is one parsed snapshot waiting for the writer, with the
// channel its HTTP handler blocks on until commit.
type ingestReq struct {
	program string
	rec     *profdb.Record
	done    chan error
}

// node is the daemon's HTTP server over a single profdb database. All
// mutation flows through the writer goroutine (serve loop over
// ingestCh); readers take the RLock. With a backing store, an ingest is
// acknowledged only after its write-ahead log frame is durable; without
// one (pure in-memory mode) the node serves tests.
//
// All operational counters live in the obs registry: /stats reads them
// through the same handles /metrics exports, so the two endpoints are
// views of one set of numbers and cannot drift apart.
type node struct {
	mu         sync.RWMutex
	db         *profdb.DB
	store      *profdb.Store // nil in pure in-memory mode
	flushEvery int

	ingestCh chan ingestReq
	writerWG sync.WaitGroup

	obs  *obs.Registry
	logw io.Writer // request-log destination (nil = no log lines)

	// Recovery, when set (store-backed nodes), is what Open found; it is
	// reported on /healthz so an operator can see a node that restarted
	// dirty.
	recovery *profdb.Recovery
	started  time.Time

	ingested     *obs.Counter // snapshots committed
	ingestErrors *obs.Counter // rejected payloads (parse/program mismatch)
	runsIngested *obs.Counter
	merges       *obs.Counter // /profile responses served
	staleMerged  *obs.Counter // stale records folded into served merges
	flushes      *obs.Counter
	naks         *obs.Counter   // 503 NAKs: retries observed from this side
	batchSize    *obs.Histogram // records per writer commit
	sinceFlush   int            // writer-goroutine private
}

// newNode returns an in-memory node over db.
func newNode(db *profdb.DB, flushEvery int) *node {
	if flushEvery <= 0 {
		flushEvery = 16
	}
	reg := obs.NewRegistry()
	return &node{
		db:         db,
		flushEvery: flushEvery,
		ingestCh:   make(chan ingestReq, 64),
		obs:        reg,
		started:    time.Now(),
		ingested: reg.Counter("ilprofd_ingested_snapshots_total",
			"Snapshots committed; each was acked only after commit (WAL-durable with a store)."),
		ingestErrors: reg.Counter("ilprofd_ingest_errors_total",
			"Ingest requests rejected: unparseable payloads, program mismatches, or WAL NAKs."),
		runsIngested: reg.Counter("ilprofd_ingested_runs_total",
			"Profiled runs carried by committed snapshots."),
		merges: reg.Counter("ilprofd_merges_served_total",
			"GET /profile merge responses computed."),
		staleMerged: reg.Counter("ilprofd_stale_records_merged_total",
			"Stale or dropped records encountered while serving merges."),
		flushes: reg.Counter("ilprofd_flushes_total",
			"Snapshot flushes completed by the daemon (periodic and shutdown)."),
		naks: reg.Counter("ilprofd_ingest_naks_total",
			"503 NAKs sent because the WAL was unavailable; clients retry these."),
		batchSize: reg.Histogram("ilprofd_commit_batch_records",
			"Records per single-writer commit batch.", obs.SizeBuckets),
	}
}

// newStoreNode wraps a crash-safe store: the served database IS the
// store's, every ack is WAL-durable, and the store's durability metrics
// land on the node's registry. recovery (optional) is surfaced on
// /healthz.
func newStoreNode(store *profdb.Store, flushEvery int, recovery *profdb.Recovery) *node {
	n := newNode(store.DB(), flushEvery)
	n.store = store
	n.recovery = recovery
	store.Obs = n.obs
	if recovery != nil {
		recovery.RecordTo(n.obs)
	}
	return n
}

// DB exposes the served database. Readers must coordinate with the
// node's writer externally — typically by calling this only before
// Start or after Stop, as the tests do.
func (s *node) DB() *profdb.DB { return s.db }

// Start launches the single writer goroutine.
func (s *node) Start() {
	s.writerWG.Add(1)
	go func() {
		defer s.writerWG.Done()
		for {
			req, ok := <-s.ingestCh
			if !ok {
				return
			}
			// Batch: take everything already queued behind this request so
			// one lock acquisition and at most one flush cover the burst.
			batch := []ingestReq{req}
			closed := false
		drain:
			for len(batch) < 64 {
				select {
				case r, more := <-s.ingestCh:
					if !more {
						closed = true
						break drain
					}
					batch = append(batch, r)
				default:
					break drain
				}
			}
			s.commit(batch)
			if closed {
				return
			}
		}
	}()
}

// commit applies one batch under the write lock and flushes if due.
// With a store, the whole batch reaches the write-ahead log with a
// single fsync before any handler is released — the ack barrier.
func (s *node) commit(batch []ingestReq) {
	s.batchSize.Observe(float64(len(batch)))
	s.mu.Lock()
	var errs []error
	if s.store != nil {
		programs := make([]string, len(batch))
		recs := make([]*profdb.Record, len(batch))
		for i, r := range batch {
			programs[i], recs[i] = r.program, r.rec
		}
		errs = s.store.IngestBatch(programs, recs)
	} else {
		errs = make([]error, len(batch))
		for i, r := range batch {
			errs[i] = s.ingestLocked(r.program, r.rec)
		}
	}
	for i, r := range batch {
		if errs[i] == nil {
			s.ingested.Inc()
			s.runsIngested.Add(int64(r.rec.Runs))
			s.sinceFlush++
		} else {
			s.ingestErrors.Inc()
		}
		r.done <- errs[i]
	}
	flush := s.store != nil && s.sinceFlush >= s.flushEvery
	if flush {
		s.sinceFlush = 0
		if err := s.store.Flush(); err == nil {
			s.flushes.Inc()
		}
	}
	s.mu.Unlock()
}

func (s *node) ingestLocked(program string, rec *profdb.Record) error {
	if s.db.Program == "" {
		s.db.Program = program
	} else if program != "" && program != s.db.Program {
		return fmt.Errorf("snapshot is for program %q, store holds %q", program, s.db.Program)
	}
	return s.db.Ingest(rec)
}

// Stop closes the ingest path, waits for the writer to drain, and runs
// the final snapshot flush.
func (s *node) Stop() error {
	close(s.ingestCh)
	s.writerWG.Wait()
	if s.store == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.store.Close(); err != nil {
		return err
	}
	s.flushes.Inc()
	return nil
}

// Handler returns the node's HTTP API wrapped in the request-log
// middleware.
func (s *node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/ingest", s.handleIngest)
	mux.HandleFunc("/profile", s.handleProfile)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	return obs.NewRequestLog(s.logw, s.obs,
		"/ingest", "/profile", "/stats", "/metrics", "/healthz").Wrap(mux)
}

func (s *node) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	body := http.MaxBytesReader(w, r.Body, 64<<20)
	program, rec, err := profdb.ReadSnapshot(body)
	if err != nil {
		s.ingestErrors.Inc()
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	done := make(chan error, 1)
	s.ingestCh <- ingestReq{program: program, rec: rec, done: done}
	if err := <-done; err != nil {
		if errors.Is(err, profdb.ErrWAL) {
			// The payload was fine but could not be made durable. 503 is
			// an explicit NAK — nothing was committed, clients may retry.
			s.naks.Inc()
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, "ok: %d run(s) ingested for %s gen %d\n", rec.Runs, rec.Fingerprint, rec.Gen)
}

// mergeParamsFromQuery parses the /profile merge knobs.
func mergeParamsFromQuery(r *http.Request) (profdb.MergeParams, error) {
	params := profdb.DefaultMergeParams()
	if v := r.URL.Query().Get("halflife"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return params, fmt.Errorf("bad halflife parameter")
		}
		params.HalfLifeGens = n
	}
	if v := r.URL.Query().Get("stale"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || f < 0 || f > 1 {
			return params, fmt.Errorf("bad stale parameter (want 0..1)")
		}
		params.StaleWeight = f
	}
	return params, nil
}

func (s *node) handleProfile(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	fp := r.URL.Query().Get("fingerprint")
	if fp == "" {
		http.Error(w, "missing fingerprint parameter", http.StatusBadRequest)
		return
	}
	params, err := mergeParamsFromQuery(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.mu.RLock()
	merged, stats := s.db.Merge(fp, params)
	program := s.db.Program
	s.mu.RUnlock()
	s.merges.Inc()
	s.staleMerged.Add(int64(stats.StaleRecords + stats.DroppedRecords))
	if stats.Records == 0 || merged.Runs == 0 {
		http.Error(w, fmt.Sprintf("no profile data for fingerprint %s", fp), http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("X-Profdb-Exact-Records", strconv.Itoa(stats.ExactRecords))
	w.Header().Set("X-Profdb-Stale-Records", strconv.Itoa(stats.StaleRecords))
	w.Header().Set("X-Profdb-Dropped-Records", strconv.Itoa(stats.DroppedRecords))
	profdb.WriteSnapshot(w, program, merged)
}

// handleHealthz is the readiness probe: 200 when the node can durably
// ack ingests (store open with a clean WAL, recovery complete), 503
// otherwise.
func (s *node) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	s.mu.RLock()
	ready := s.store == nil || s.store.WALClean()
	records, runs := len(s.db.Records), s.db.TotalRuns()
	s.mu.RUnlock()
	doc := struct {
		Ready    bool   `json:"ready"`
		Mode     string `json:"mode"`
		WALClean bool   `json:"wal_clean"`
		Records  int    `json:"records"`
		Runs     int    `json:"runs"`
		Recovery string `json:"recovery,omitempty"`
	}{
		Ready:    ready,
		Mode:     "store",
		WALClean: ready,
		Records:  records,
		Runs:     runs,
	}
	if s.store == nil {
		doc.Mode = "memory"
	}
	if s.recovery != nil {
		doc.Recovery = s.recovery.String()
	}
	readyGauge := 0.0
	if ready {
		readyGauge = 1
	}
	s.obs.Gauge("ilprofd_ready",
		"1 when the node can durably ack ingests (clean WAL, recovery complete).").Set(readyGauge)
	w.Header().Set("Content-Type", "application/json")
	if !ready {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(&doc)
}

// statsJSON is the GET /stats document.
type statsJSON struct {
	Program         string `json:"program"`
	Records         int    `json:"records"`
	TotalRuns       int    `json:"total_runs"`
	MaxGen          int    `json:"max_gen"`
	IngestedSnaps   int64  `json:"ingested_snapshots"`
	IngestedRuns    int64  `json:"ingested_runs"`
	IngestErrors    int64  `json:"ingest_errors"`
	MergesServed    int64  `json:"merges_served"`
	StaleRecsMerged int64  `json:"stale_records_merged"`
	Flushes         int64  `json:"flushes"`
	UptimeSeconds   int64  `json:"uptime_seconds"`
}

func (s *node) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	s.mu.RLock()
	doc := statsJSON{
		Program:   s.db.Program,
		Records:   len(s.db.Records),
		TotalRuns: s.db.TotalRuns(),
		MaxGen:    s.db.MaxGen(),
	}
	s.mu.RUnlock()
	doc.IngestedSnaps = s.ingested.Value()
	doc.IngestedRuns = s.runsIngested.Value()
	doc.IngestErrors = s.ingestErrors.Value()
	doc.MergesServed = s.merges.Value()
	doc.StaleRecsMerged = s.staleMerged.Value()
	doc.Flushes = s.flushes.Value()
	doc.UptimeSeconds = int64(time.Since(s.started).Seconds())
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(&doc)
}

// handleMetrics serves the registry in Prometheus text exposition
// format. Database-shape gauges are refreshed under the read lock at
// scrape time; everything else is already live in the registry.
func (s *node) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	s.mu.RLock()
	records, runs, maxGen := len(s.db.Records), s.db.TotalRuns(), s.db.MaxGen()
	s.mu.RUnlock()
	s.obs.Gauge("ilprofd_db_records", "Records in the served database.").Set(float64(records))
	s.obs.Gauge("ilprofd_db_runs", "Total profiled runs in the served database.").Set(float64(runs))
	s.obs.Gauge("ilprofd_db_max_gen", "Highest generation in the served database.").Set(float64(maxGen))
	s.obs.Gauge("ilprofd_uptime_seconds", "Seconds since daemon start.").Set(time.Since(s.started).Seconds())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.obs.WritePrometheus(w)
}

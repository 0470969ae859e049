package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"inlinec/internal/chaos"
	"inlinec/internal/profdb"
)

// parsePromText is a strict-enough Prometheus text-format reader for the
// tests: it validates the line grammar (# HELP / # TYPE / sample lines)
// and returns every sample by full series name (including labels).
func parsePromText(t *testing.T, data []byte) map[string]float64 {
	t.Helper()
	samples := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if !strings.HasPrefix(line, "# HELP ") && !strings.HasPrefix(line, "# TYPE ") {
				t.Fatalf("bad comment line: %q", line)
			}
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("sample line without value: %q", line)
		}
		series, valText := line[:sp], line[sp+1:]
		v, err := strconv.ParseFloat(valText, 64)
		if err != nil && valText != "+Inf" {
			t.Fatalf("unparseable sample value in %q: %v", line, err)
		}
		if _, dup := samples[series]; dup {
			t.Fatalf("duplicate series %q", series)
		}
		samples[series] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return samples
}

// TestStatsMetricsAgree fires a concurrent burst of ingests (valid and
// invalid) and merge requests at an in-memory daemon, then cross-checks
// every count /stats reports against the /metrics export. Both views
// read the same registry, so any disagreement is a bug in one of them.
func TestStatsMetricsAgree(t *testing.T) {
	s := newNode(profdb.NewDB("burst.c"), 0)
	s.Start()
	defer s.Stop()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	rec := &profdb.Record{Fingerprint: "aaaa", Runs: 2, IL: 100}
	good := snapshotBytes(t, "burst.c", rec)
	mismatched := snapshotBytes(t, "other.c", rec)

	const goodN, badN, parseBadN, mergeN = 24, 5, 3, 7
	var wg sync.WaitGroup
	post := func(payload []byte, wantOK bool) {
		defer wg.Done()
		resp, err := http.Post(ts.URL+"/ingest", "text/plain", bytes.NewReader(payload))
		if err != nil {
			t.Error(err)
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if ok := resp.StatusCode == http.StatusOK; ok != wantOK {
			t.Errorf("ingest status %d, want ok=%v", resp.StatusCode, wantOK)
		}
	}
	for i := 0; i < goodN; i++ {
		wg.Add(1)
		go post(good, true)
	}
	for i := 0; i < badN; i++ {
		wg.Add(1)
		go post(mismatched, false)
	}
	for i := 0; i < parseBadN; i++ {
		wg.Add(1)
		go post([]byte("not a snapshot\n"), false)
	}
	for i := 0; i < mergeN; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/profile?fingerprint=aaaa")
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}()
	}
	wg.Wait()

	get := func(path string) []byte {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		if id := resp.Header.Get("X-Request-Id"); id == "" {
			t.Errorf("GET %s: no X-Request-Id header", path)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}

	var stats struct {
		IngestedSnaps int64 `json:"ingested_snapshots"`
		IngestedRuns  int64 `json:"ingested_runs"`
		IngestErrors  int64 `json:"ingest_errors"`
		MergesServed  int64 `json:"merges_served"`
		Flushes       int64 `json:"flushes"`
	}
	if err := json.Unmarshal(get("/stats"), &stats); err != nil {
		t.Fatal(err)
	}
	metrics := parsePromText(t, get("/metrics"))

	if stats.IngestedSnaps != goodN {
		t.Errorf("ingested_snapshots = %d, want %d", stats.IngestedSnaps, goodN)
	}
	if stats.IngestErrors != badN+parseBadN {
		t.Errorf("ingest_errors = %d, want %d", stats.IngestErrors, badN+parseBadN)
	}
	cross := map[string]int64{
		"ilprofd_ingested_snapshots_total": stats.IngestedSnaps,
		"ilprofd_ingested_runs_total":      stats.IngestedRuns,
		"ilprofd_ingest_errors_total":      stats.IngestErrors,
		"ilprofd_merges_served_total":      stats.MergesServed,
		"ilprofd_flushes_total":            stats.Flushes,
	}
	for name, want := range cross {
		got, ok := metrics[name]
		if !ok {
			t.Errorf("/metrics is missing %s", name)
			continue
		}
		if int64(got) != want {
			t.Errorf("%s = %v on /metrics but %d on /stats", name, got, want)
		}
	}

	// The request middleware counts scrapes too: the /stats request made
	// above must already be visible in the /metrics scrape that followed.
	statsSeries := fmt.Sprintf("http_requests_total{code=%q,method=%q,path=%q}", "200", "GET", "/stats")
	if metrics[statsSeries] < 1 {
		t.Errorf("%s = %v, want >= 1", statsSeries, metrics[statsSeries])
	}
	// Histograms export the full bucket/sum/count triple.
	if _, ok := metrics["ilprofd_commit_batch_records_bucket{le=\"+Inf\"}"]; !ok {
		t.Error("/metrics is missing ilprofd_commit_batch_records_bucket{le=\"+Inf\"}")
	}
}

// TestHealthzTracksWAL: a clean store-backed node reports ready along
// with what recovery found; once a failed WAL fsync poisons the log,
// /healthz turns 503 and /metrics exports ilprofd_ready 0.
func TestHealthzTracksWAL(t *testing.T) {
	m := chaos.NewMemFS()
	inj := chaos.NewInjector(m, chaos.Config{Seed: 11, SyncErr: 1})
	inj.SetEnabled(false)
	store, recovery, err := profdb.Open(inj, "d/p.profdb", "")
	if err != nil {
		t.Fatal(err)
	}
	s := newStoreNode(store, 0, recovery)
	s.Start()
	defer func() {
		inj.SetEnabled(false)
		s.Stop()
	}()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	type health struct {
		Ready    bool   `json:"ready"`
		Mode     string `json:"mode"`
		WALClean bool   `json:"wal_clean"`
		Recovery string `json:"recovery"`
	}
	healthz := func(wantCode int) health {
		t.Helper()
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantCode {
			t.Fatalf("GET /healthz: status %d, want %d", resp.StatusCode, wantCode)
		}
		var h health
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return h
	}

	h := healthz(http.StatusOK)
	if !h.Ready || !h.WALClean || h.Mode != "store" {
		t.Errorf("clean node: %+v, want ready store node with a clean WAL", h)
	}
	if h.Recovery == "" || h.Recovery != recovery.String() {
		t.Errorf("recovery = %q, want %q", h.Recovery, recovery.String())
	}

	inj.SetEnabled(true)
	rec := &profdb.Record{Fingerprint: "aaaa", Runs: 1, IL: 10}
	resp, err := http.Post(ts.URL+"/ingest", "text/plain", bytes.NewReader(snapshotBytes(t, "p.c", rec)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ingest over a failing fsync: status %d, want 503", resp.StatusCode)
	}

	if h := healthz(http.StatusServiceUnavailable); h.Ready || h.WALClean {
		t.Errorf("poisoned node: %+v, want not ready", h)
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if got, ok := parsePromText(t, body)["ilprofd_ready"]; !ok || got != 0 {
		t.Errorf("ilprofd_ready = %v (present %v), want 0", got, ok)
	}
}

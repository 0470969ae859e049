package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"inlinec"
	"inlinec/internal/bench"
	"inlinec/internal/profdb"
)

// snapshotBytes serializes one record as an ingest payload.
func snapshotBytes(t *testing.T, program string, rec *profdb.Record) []byte {
	t.Helper()
	var sb strings.Builder
	if _, err := profdb.WriteSnapshot(&sb, program, rec); err != nil {
		t.Fatal(err)
	}
	return []byte(sb.String())
}

// TestSmokeEspresso is the end-to-end daemon smoke CI runs: start the
// daemon, ingest the espresso profile twice over HTTP, and assert that
// GET /profile returns exactly the offline merge of the same two
// snapshots — then shut down and check the final flush survives a reload.
func TestSmokeEspresso(t *testing.T) {
	b := bench.Get("espresso")
	if b == nil {
		t.Fatal("espresso benchmark missing")
	}
	prog, err := b.Compile()
	if err != nil {
		t.Fatal(err)
	}
	prof, err := prog.ProfileInputs(b.Inputs[:3]...)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := prog.Snapshot(prof, 0)
	if err != nil {
		t.Fatal(err)
	}
	payload := snapshotBytes(t, "espresso.c", rec)

	dbPath := filepath.Join(t.TempDir(), "espresso.profdb")
	addrCh := make(chan string, 1)
	shutdown := make(chan struct{})
	exitCh := make(chan int, 1)
	var stdout, stderr bytes.Buffer
	go func() {
		exitCh <- run([]string{"-addr", "127.0.0.1:0", "-db", dbPath, "-flush-every", "1000"},
			&stdout, &stderr, func(addr string) { addrCh <- addr }, shutdown)
	}()
	addr := <-addrCh
	base := "http://" + addr

	for i := 0; i < 2; i++ {
		resp, err := http.Post(base+"/ingest", "text/plain", bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest %d: status %d: %s", i, resp.StatusCode, body)
		}
	}

	resp, err := http.Get(base + "/profile?fingerprint=" + rec.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	served, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("profile: status %d: %s", resp.StatusCode, served)
	}

	// Offline merge of the same two snapshots.
	offline := profdb.NewDB("espresso.c")
	if err := offline.Ingest(rec); err != nil {
		t.Fatal(err)
	}
	if err := offline.Ingest(rec); err != nil {
		t.Fatal(err)
	}
	merged, _ := offline.Merge(rec.Fingerprint, profdb.DefaultMergeParams())
	want := snapshotBytes(t, "espresso.c", merged)
	if !bytes.Equal(served, want) {
		t.Fatalf("served merge differs from offline merge:\n--- served ---\n%s--- offline ---\n%s", served, want)
	}

	// The served snapshot must resolve back into the doubled profile.
	_, servedRec, err := profdb.ReadSnapshot(bytes.NewReader(served))
	if err != nil {
		t.Fatal(err)
	}
	got, stats := servedRec.Resolve(profdb.ModuleKeys(prog.Module))
	if stats.DroppedSites != 0 || stats.MovedSites != 0 {
		t.Fatalf("resolve reported staleness on identical module: %+v", stats)
	}
	if got.Runs != 2*prof.Runs || got.TotalIL != 2*prof.TotalIL || got.TotalCalls != 2*prof.TotalCalls {
		t.Errorf("resolved profile is not the doubled profile: runs=%d IL=%d calls=%d",
			got.Runs, got.TotalIL, got.TotalCalls)
	}

	var stats1 struct {
		IngestedSnaps int64 `json:"ingested_snapshots"`
		MergesServed  int64 `json:"merges_served"`
		TotalRuns     int   `json:"total_runs"`
	}
	resp, err = http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats1); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats1.IngestedSnaps != 2 || stats1.MergesServed != 1 || stats1.TotalRuns != 2*prof.Runs {
		t.Errorf("stats: %+v", stats1)
	}

	// Graceful shutdown must flush everything (flush-every was too high to
	// have flushed during the run).
	close(shutdown)
	if code := <-exitCh; code != 0 {
		t.Fatalf("daemon exit code %d\nstderr: %s", code, stderr.String())
	}
	reloaded, err := profdb.ReadDBFile(dbPath, "")
	if err != nil {
		t.Fatal(err)
	}
	if reloaded.TotalRuns() != 2*prof.Runs {
		t.Errorf("reloaded db has %d runs, want %d", reloaded.TotalRuns(), 2*prof.Runs)
	}
	if !strings.Contains(stdout.String(), "flushed") {
		t.Errorf("shutdown did not report the final flush: %q", stdout.String())
	}
}

// TestConcurrentIngest hammers /ingest from many clients and checks the
// store ends up identical to the same snapshots ingested serially —
// the single-writer batching must not lose or double-apply anything.
func TestConcurrentIngest(t *testing.T) {
	p, err := inlinec.Compile("t.c", "int f(int x) { return x + 1; }\nint main() { int i; int s; s = 0; for (i = 0; i < 20; i++) { s = f(s); } return s; }\n")
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	recs := make([]*profdb.Record, n)
	for i := 0; i < n; i++ {
		prof, err := p.ProfileInputs(make([]inlinec.Input, i%3+1)...)
		if err != nil {
			t.Fatal(err)
		}
		recs[i], err = p.Snapshot(prof, i%5)
		if err != nil {
			t.Fatal(err)
		}
	}

	s := newNode(profdb.NewDB("t.c"), 0)
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/ingest", "text/plain",
				bytes.NewReader(snapshotBytes(t, "t.c", recs[i])))
			if err != nil {
				errs[i] = err
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d: %s", resp.StatusCode, body)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
	}
	if err := s.Stop(); err != nil {
		t.Fatal(err)
	}

	serial := profdb.NewDB("t.c")
	for _, rec := range recs {
		if err := serial.Ingest(rec); err != nil {
			t.Fatal(err)
		}
	}
	var a, b strings.Builder
	s.DB().WriteTo(&a)
	serial.WriteTo(&b)
	if a.String() != b.String() {
		t.Errorf("concurrent ingest diverged from serial ingest:\n%s\nvs\n%s", a.String(), b.String())
	}
}

// TestIngestRejections: bad payloads 400, program mismatches 409, and
// neither corrupts the store.
func TestIngestRejections(t *testing.T) {
	s := newNode(profdb.NewDB("a.c"), 0)
	s.Start()
	defer s.Stop()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/ingest", "text/plain", strings.NewReader("not a snapshot"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage payload: status %d, want 400", resp.StatusCode)
	}

	rec := profdb.NewRecord("ffff", 0)
	rec.Runs = 1
	resp, err = http.Post(ts.URL+"/ingest", "text/plain",
		bytes.NewReader(snapshotBytes(t, "other.c", rec)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("program mismatch: status %d, want 409", resp.StatusCode)
	}
	if len(s.DB().Records) != 0 {
		t.Errorf("rejected payloads reached the store: %d records", len(s.DB().Records))
	}

	resp, err = http.Get(ts.URL + "/profile?fingerprint=none")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing fingerprint: status %d, want 404", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/profile")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("no fingerprint param: status %d, want 400", resp.StatusCode)
	}
}

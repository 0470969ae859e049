package profdb

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"inlinec/internal/chaos"
)

func testClient(base string) *Client {
	c := NewClient(base)
	c.Backoff = time.Millisecond
	c.MaxBackoff = 2 * time.Millisecond
	c.sleep = func(time.Duration) {}
	return c
}

// TestClientFetchRetries5xx: GET /profile is idempotent — the client
// rides out transient 5xx responses and reports the retries.
func TestClientFetchRetries5xx(t *testing.T) {
	fails := 2
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if fails > 0 {
			fails--
			http.Error(w, "sync: injected fault", http.StatusServiceUnavailable)
			return
		}
		WriteSnapshot(w, "prog", testRec("fp", 1, 2))
	}))
	defer srv.Close()

	var warns bytes.Buffer
	c := testClient(srv.URL)
	c.Warn = &warns
	program, rec, err := c.FetchProfile("fp", nil)
	if err != nil {
		t.Fatalf("FetchProfile: %v", err)
	}
	if program != "prog" || rec.Runs != 2 {
		t.Errorf("got program %q, runs %d", program, rec.Runs)
	}
	if !strings.Contains(warns.String(), "retry") {
		t.Errorf("retries were silent: %q", warns.String())
	}
}

// TestClientFetch404NotRetried: a 4xx is a definitive answer, not a
// transient fault — exactly one request, typed error back.
func TestClientFetch404NotRetried(t *testing.T) {
	hits := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits++
		http.Error(w, "no profile data", http.StatusNotFound)
	}))
	defer srv.Close()

	c := testClient(srv.URL)
	_, _, err := c.FetchProfile("fp", nil)
	var he *HTTPError
	if !errors.As(err, &he) || he.StatusCode != http.StatusNotFound {
		t.Fatalf("want HTTPError 404, got %v", err)
	}
	if hits != 1 {
		t.Errorf("404 was retried: %d requests", hits)
	}
}

// TestClientPostRetries5xxNAK: a 5xx from the daemon is an explicit
// "nothing committed", so POST may retry it safely.
func TestClientPostRetries5xxNAK(t *testing.T) {
	hits := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits++
		if hits == 1 {
			http.Error(w, "wal fsync failed", http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte("ok: ingested\n"))
	}))
	defer srv.Close()

	c := testClient(srv.URL)
	body, err := c.PostSnapshot("prog", testRec("fp", 1, 2))
	if err != nil {
		t.Fatalf("PostSnapshot: %v", err)
	}
	if hits != 2 || !strings.Contains(body, "ok") {
		t.Errorf("hits = %d, body = %q", hits, body)
	}
}

// TestClientPostNoRetryAfterAmbiguousFailure: when the connection dies
// after the request may have been delivered, the client must NOT send
// again — ingestion is not idempotent and a blind retry double-counts.
func TestClientPostNoRetryAfterAmbiguousFailure(t *testing.T) {
	hits := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits++
		w.Write([]byte("ok\n"))
	}))
	defer srv.Close()

	rt := chaos.NewRoundTripper(nil, chaos.HTTPConfig{Seed: 1, Reset: 1})
	rt.AfterSend = true // the dangerous case: delivered, then the reply is lost
	c := testClient(srv.URL)
	c.HTTP = &http.Client{Transport: rt}
	_, err := c.PostSnapshot("prog", testRec("fp", 1, 2))
	if err == nil {
		t.Fatal("ambiguous failure reported success")
	}
	if hits != 1 {
		t.Errorf("ambiguous POST was retried: server saw %d requests", hits)
	}
}

// TestClientPostNoRetry502: a gateway answers 502 when it cannot tell
// whether the daemon committed the write; retrying could double-count,
// so the client must surface it after ONE attempt.
func TestClientPostNoRetry502(t *testing.T) {
	attempts := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts++
		http.Error(w, "upstream reset after the body was sent (do NOT retry)", http.StatusBadGateway)
	}))
	defer srv.Close()
	c := testClient(srv.URL)
	rec := NewRecord("cafe", 0)
	rec.Runs = 1
	_, err := c.PostSnapshot("p.c", rec)
	if err == nil {
		t.Fatal("502 reported as success")
	}
	if attempts != 1 {
		t.Fatalf("client sent %d attempts after 502, want exactly 1", attempts)
	}
	var he *HTTPError
	if !errors.As(err, &he) || he.StatusCode != http.StatusBadGateway {
		t.Errorf("unexpected error shape: %v", err)
	}
}

// TestClientPostStillRetries503: 503 remains the explicit
// nothing-committed NAK and is retried as before.
func TestClientPostStillRetries503(t *testing.T) {
	fails := 2
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if fails > 0 {
			fails--
			http.Error(w, "wal unavailable: nothing committed (safe to retry)", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()
	c := testClient(srv.URL)
	rec := NewRecord("cafe", 0)
	rec.Runs = 1
	if _, err := c.PostSnapshot("p.c", rec); err != nil {
		t.Fatalf("503s within the attempt budget should be ridden out: %v", err)
	}
}

// TestClientPostRetriesDialFailure: a dial error means the snapshot
// never left the machine — retrying is safe, and the attempts are
// bounded.
func TestClientPostRetriesDialFailure(t *testing.T) {
	c := testClient("http://127.0.0.1:1")
	c.Attempts = 3
	_, err := c.PostSnapshot("prog", testRec("fp", 1, 2))
	if err == nil {
		t.Fatal("post to a dead address succeeded")
	}
	if !strings.Contains(err.Error(), "giving up after 3 attempt(s)") {
		t.Errorf("want bounded-retry error, got: %v", err)
	}
}

package profdb

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"inlinec/internal/obs"
)

// Client is the HTTP client for the ilprofd daemon, shared by ilcc and
// ilprof. It layers resilience over the daemon's plain API:
//
//   - every request carries a timeout (no compile ever hangs on a dead
//     daemon);
//   - idempotent requests (GET /profile) retry transport errors and 5xx
//     responses with bounded exponential backoff plus jitter;
//   - POST /ingest is not idempotent, so it retries only when the
//     snapshot provably never reached the daemon — a dial failure — or
//     when a server answered a 5xx other than 502 (an explicit NAK: the
//     daemon acks only after its write-ahead log is durable, so a 503
//     means nothing was committed). A 502 comes from a gateway between
//     client and daemon, which cannot say whether the daemon committed
//     the snapshot, so it is surfaced, never retried, like an ambiguous
//     mid-request transport error, keeping delivery at-most-once.
type Client struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:7411".
	BaseURL string
	// HTTP performs the requests. NewClient installs a timeout-bearing
	// default.
	HTTP *http.Client
	// Attempts bounds tries per request (including the first).
	Attempts int
	// Backoff is the delay before the first retry; it doubles per retry.
	Backoff time.Duration
	// MaxBackoff caps the doubling.
	MaxBackoff time.Duration
	// Warn, when non-nil, receives one line per retry so operators can
	// see flakiness that resilience would otherwise hide.
	Warn io.Writer
	// Obs, when non-nil, counts the same retries into
	// profdb_client_retries_total so daemon flakiness shows up on
	// /metrics as well as in the warning stream.
	Obs *obs.Registry

	rngMu sync.Mutex
	rng   *rand.Rand
	// sleep is swappable by tests.
	sleep func(time.Duration)
}

// NewClient returns a client with production defaults: 10s request
// timeout, 4 attempts, 150ms initial backoff capped at 2s.
func NewClient(baseURL string) *Client {
	return &Client{
		BaseURL:    strings.TrimRight(baseURL, "/"),
		HTTP:       &http.Client{Timeout: 10 * time.Second},
		Attempts:   4,
		Backoff:    150 * time.Millisecond,
		MaxBackoff: 2 * time.Second,
		rng:        rand.New(rand.NewSource(time.Now().UnixNano())),
		sleep:      time.Sleep,
	}
}

// HTTPError is a non-2xx daemon response.
type HTTPError struct {
	URL        string
	StatusCode int
	Status     string
	Body       string
}

func (e *HTTPError) Error() string {
	return fmt.Sprintf("%s: %s: %s", e.URL, e.Status, e.Body)
}

// provablyUnsent reports whether the request never left this machine:
// only then is an automatic POST retry safe without idempotence.
func provablyUnsent(err error) bool {
	var op *net.OpError
	return errors.As(err, &op) && op.Op == "dial"
}

// postRetriable is the POST /ingest retry policy: dial failures and
// every 5xx except 502 (see Client).
func postRetriable(err error) bool {
	if provablyUnsent(err) {
		return true
	}
	var he *HTTPError
	return errors.As(err, &he) && he.StatusCode >= 500 && he.StatusCode != http.StatusBadGateway
}

// delay computes the backoff before retry number n (0-based) with up
// to 50% additive jitter, so a recovering daemon is not hit by a
// synchronized thundering herd of compile jobs.
func (c *Client) delay(n int) time.Duration {
	d := c.Backoff << uint(n)
	if c.MaxBackoff > 0 && d > c.MaxBackoff {
		d = c.MaxBackoff
	}
	if d <= 0 {
		return 0
	}
	c.rngMu.Lock()
	j := time.Duration(c.rng.Int63n(int64(d)/2 + 1))
	c.rngMu.Unlock()
	return d + j
}

func (c *Client) warnf(format string, args ...interface{}) {
	if c.Warn != nil {
		fmt.Fprintf(c.Warn, format, args...)
	}
}

// doRetry runs make-request/send cycles under the client's retry
// policy. build must return a fresh request each call (bodies are
// consumed by failed sends). retriable classifies a delivery error —
// transport errors are passed as-is, 5xx responses as *HTTPError. The
// caller owns the response body on success.
func (c *Client) doRetry(what string, build func() (*http.Request, error), retriable func(error) bool) (*http.Response, error) {
	attempts := c.Attempts
	if attempts <= 0 {
		attempts = 1
	}
	var lastErr error
	for n := 0; n < attempts; n++ {
		if n > 0 {
			d := c.delay(n - 1)
			c.warnf("profdb client: %s failed (%v); retry %d/%d in %v\n", what, lastErr, n, attempts-1, d.Round(time.Millisecond))
			c.Obs.Counter("profdb_client_retries_total",
				"Request retries performed by the profdb client, by request.",
				"request", what).Inc()
			c.sleep(d)
		}
		req, err := build()
		if err != nil {
			return nil, err
		}
		resp, err := c.HTTP.Do(req)
		if err != nil {
			lastErr = err
			if retriable(err) {
				continue
			}
			return nil, err
		}
		if resp.StatusCode >= 500 {
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			lastErr = &HTTPError{URL: req.URL.String(), StatusCode: resp.StatusCode,
				Status: resp.Status, Body: strings.TrimSpace(string(body))}
			if retriable(lastErr) {
				continue
			}
			return nil, lastErr
		}
		return resp, nil
	}
	return nil, fmt.Errorf("%s: giving up after %d attempt(s): %w", what, attempts, lastErr)
}

// FetchProfile GETs the merged snapshot for a fingerprint. query may
// carry extra merge parameters (halflife, stale). Idempotent: retried
// on any transport error and on 5xx.
func (c *Client) FetchProfile(fingerprint string, query url.Values) (program string, rec *Record, err error) {
	q := url.Values{}
	for k, vs := range query {
		q[k] = vs
	}
	q.Set("fingerprint", fingerprint)
	u := c.BaseURL + "/profile?" + q.Encode()
	resp, err := c.doRetry("GET /profile", func() (*http.Request, error) {
		return http.NewRequest(http.MethodGet, u, nil)
	}, func(error) bool { return true })
	if err != nil {
		return "", nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return "", nil, &HTTPError{URL: u, StatusCode: resp.StatusCode,
			Status: resp.Status, Body: strings.TrimSpace(string(body))}
	}
	program, rec, err = ReadSnapshot(resp.Body)
	if err != nil {
		return "", nil, fmt.Errorf("%s: %w", u, err)
	}
	return program, rec, nil
}

// PostSnapshot delivers one snapshot to /ingest and returns the
// daemon's ack line. Retried only on dial failures and 5xx NAKs other
// than 502; an ambiguous transport error after the body may have been
// sent — or a gateway's 502 — is returned as-is so the caller decides
// (the payload might already be committed, and profile ingestion is
// not idempotent).
func (c *Client) PostSnapshot(program string, rec *Record) (string, error) {
	var buf bytes.Buffer
	if _, err := WriteSnapshot(&buf, program, rec); err != nil {
		return "", err
	}
	payload := buf.Bytes()
	u := c.BaseURL + "/ingest"
	resp, err := c.doRetry("POST /ingest", func() (*http.Request, error) {
		req, err := http.NewRequest(http.MethodPost, u, bytes.NewReader(payload))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "text/plain")
		return req, nil
	}, postRetriable)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		return "", &HTTPError{URL: u, StatusCode: resp.StatusCode,
			Status: resp.Status, Body: strings.TrimSpace(string(body))}
	}
	return string(body), nil
}

package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("burst_total", "help").Inc()
			}
		}()
	}
	wg.Wait()
	if got := r.CounterValue("burst_total"); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
	r.Gauge("depth", "help").Set(3.5)
	var sb bytes.Buffer
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE burst_total counter", "burst_total 8000",
		"# TYPE depth gauge", "depth 3.5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	r.Counter("a", "").Add(1)
	r.Gauge("b", "").Set(1)
	r.Histogram("c", "", nil).Observe(1)
	r.StartSpan("p")()
	if r.Spans() != nil {
		t.Error("nil registry returned non-nil data")
	}
	var sb bytes.Buffer
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.Len() != 0 {
		t.Errorf("nil registry wrote %q", sb.String())
	}
}

func TestHistogramBucketsAndExport(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
	var sb bytes.Buffer
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`lat_seconds_bucket{le="0.01"} 1`,
		`lat_seconds_bucket{le="0.1"} 3`,
		`lat_seconds_bucket{le="1"} 4`,
		`lat_seconds_bucket{le="+Inf"} 5`,
		`lat_seconds_count 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("histogram export missing %q:\n%s", want, out)
		}
	}
}

func TestLabelsCanonicalOrder(t *testing.T) {
	r := NewRegistry()
	r.Counter("reqs_total", "", "code", "200", "method", "GET").Add(2)
	// Same label set, different argument order: must be the same series.
	r.Counter("reqs_total", "", "method", "GET", "code", "200").Add(3)
	if got := r.CounterValue("reqs_total", "code", "200", "method", "GET"); got != 5 {
		t.Errorf("labelled counter = %d, want 5", got)
	}
	var sb bytes.Buffer
	r.WritePrometheus(&sb)
	if !strings.Contains(sb.String(), `reqs_total{code="200",method="GET"} 5`) {
		t.Errorf("bad label rendering:\n%s", sb.String())
	}
}

func TestPrometheusExportDeterministic(t *testing.T) {
	r := NewRegistry()
	r.Counter("z_total", "").Add(1)
	r.Counter("a_total", "").Add(2)
	r.Gauge("m", "").Set(7)
	r.Histogram("h", "", []float64{1}).Observe(0.5)
	var a, b bytes.Buffer
	r.WritePrometheus(&a)
	r.WritePrometheus(&b)
	if a.String() != b.String() {
		t.Error("two exports of an unchanged registry differ")
	}
	if strings.Index(a.String(), "a_total") > strings.Index(a.String(), "z_total") {
		t.Errorf("families not sorted by name:\n%s", a.String())
	}
}

func TestSpansAndChromeTrace(t *testing.T) {
	r := NewRegistry()
	end := r.StartSpan("parse")
	time.Sleep(time.Millisecond)
	end()
	r.StartSpanWorker("expand", 3)()
	spans := r.Spans()
	if len(spans) != 2 || spans[0].Name != "parse" || spans[0].Dur <= 0 || spans[1].Worker != 3 {
		t.Errorf("spans = %+v, want a timed parse span then expand on worker 3", spans)
	}
	var sb bytes.Buffer
	if err := r.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(sb.Bytes(), &events); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, sb.String())
	}
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}
	for _, ev := range events {
		if ev["ph"] != "X" {
			t.Errorf("event ph = %v, want X", ev["ph"])
		}
	}
}

func TestInlineTraceJSONLRoundTrip(t *testing.T) {
	events := []ArcEvent{
		{Site: 3, Caller: "main", Callee: "hot", Weight: 120, Outcome: OutcomeExpanded,
			Cost: &CostTerms{Weight: 120, Threshold: 10, CalleeSize: 9, ProgSize: 100, SizeLimit: 125}},
		{Site: 7, Caller: "main", Callee: "cold", Weight: 2, Outcome: OutcomeRejected,
			Reason: ReasonWeightThreshold, Detail: "weight below threshold",
			Cost: &CostTerms{Weight: 2, Threshold: 10}},
		{Site: 9, Caller: "hot", Callee: "main", Weight: 50, Outcome: OutcomeNotExpandable,
			Reason: ReasonLinearOrder, Detail: "callee does not precede caller"},
	}
	var sb bytes.Buffer
	if err := WriteInlineTraceJSONL(&sb, events); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(sb.String(), "\n"); got != 3 {
		t.Errorf("JSONL has %d lines, want 3", got)
	}
	back, err := ReadInlineTraceJSONL(&sb)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 3 {
		t.Fatalf("round trip lost events: %d", len(back))
	}
	for i := range events {
		if back[i].Site != events[i].Site || back[i].Reason != events[i].Reason ||
			back[i].Outcome != events[i].Outcome {
			t.Errorf("event %d: %+v != %+v", i, back[i], events[i])
		}
	}
	report := FormatInlineReport([]string{"hot", "cold", "main"}, events)
	for _, want := range []string{
		"linear order (3 functions)", "expanded (1 arcs",
		"weight_threshold", "linear_order", "not expandable (1 arcs",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
}

func TestRequestLog(t *testing.T) {
	reg := NewRegistry()
	var logBuf bytes.Buffer
	rl := NewRequestLog(&logBuf, reg, "/stats")
	h := rl.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/missing" {
			http.Error(w, "no", http.StatusNotFound)
			return
		}
		w.Write([]byte("ok"))
	}))
	srv := httptest.NewServer(h)
	defer srv.Close()
	if _, err := http.Get(srv.URL + "/stats"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/missing")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("X-Request-Id") == "" {
		t.Error("missing X-Request-Id header")
	}

	lines := strings.Split(strings.TrimSpace(logBuf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d log lines, want 2:\n%s", len(lines), logBuf.String())
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &doc); err != nil {
		t.Fatalf("log line is not JSON: %v", err)
	}
	for _, k := range []string{"ts", "id", "method", "path", "status", "dur_ms"} {
		if _, ok := doc[k]; !ok {
			t.Errorf("log line missing %q: %s", k, lines[0])
		}
	}
	if got := reg.CounterValue("http_requests_total", "method", "GET", "path", "/stats", "code", "200"); got != 1 {
		t.Errorf("request counter = %d, want 1", got)
	}
	// Unknown paths collapse to "other" in metric labels (bounded
	// cardinality) but keep the raw path in the log line.
	if got := reg.CounterValue("http_requests_total", "method", "GET", "path", "other", "code", "404"); got != 1 {
		t.Errorf("404 counter = %d, want 1", got)
	}
	if got := reg.CounterValue("http_requests_total", "method", "GET", "path", "/missing", "code", "404"); got != 0 {
		t.Errorf("raw-path 404 counter = %d, want 0 (should be normalized)", got)
	}
	if err := json.Unmarshal([]byte(lines[1]), &doc); err != nil {
		t.Fatalf("log line is not JSON: %v", err)
	}
	if doc["path"] != "/missing" {
		t.Errorf("log line path = %v, want raw /missing", doc["path"])
	}
}

// TestScrapeDuringRegistration drives WritePrometheus concurrently with
// first-seen registrations of new label sets (counters and lazily
// created histograms). Under -race this pins down the scrape/registry
// races: the export must snapshot family state under the lock, and a
// histogram must be fully constructed before its instance is visible.
func TestScrapeDuringRegistration(t *testing.T) {
	r := NewRegistry()
	done := make(chan struct{})
	scraperExited := make(chan struct{})
	go func() {
		defer close(scraperExited)
		for {
			select {
			case <-done:
				return
			default:
				if err := r.WritePrometheus(io.Discard); err != nil {
					t.Errorf("WritePrometheus: %v", err)
					return
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				p := "/p" + strconv.Itoa(w) + "-" + strconv.Itoa(i)
				r.Counter("scrape_race_total", "", "path", p).Inc()
				r.Histogram("scrape_race_seconds", "", nil, "path", p).Observe(0.01)
			}
		}(w)
	}
	wg.Wait()
	close(done)
	<-scraperExited
}

func TestGaugeSetMaxConcurrent(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("hwm", "")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i <= 1000; i++ {
				g.SetMax(float64(w*1000 + i))
			}
		}(w)
	}
	wg.Wait()
	if got := g.Value(); got != 8000 {
		t.Errorf("high-water mark = %v, want 8000", got)
	}
	g.SetMax(7) // lower value must not regress it
	if got := g.Value(); got != 8000 {
		t.Errorf("SetMax regressed high-water mark to %v", got)
	}
}

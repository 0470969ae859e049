package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// Span is one timed region of the pipeline: a compiler phase, one
// profiling run, one expansion wave. Start/Dur are relative to the
// registry's epoch so a whole pipeline shares one time base.
type Span struct {
	// Name is the phase name (lex, parse, sema, irgen, profile,
	// callgraph, expand, opt, link, ...).
	Name string
	// Worker distinguishes concurrent lanes (0 for serial phases); it
	// becomes the Chrome trace tid so parallel work renders as stacked
	// tracks.
	Worker int
	Start  time.Duration
	Dur    time.Duration
}

// StartSpan begins a span on worker lane 0. The returned func ends it:
//
//	defer reg.StartSpan("sema")()
func (r *Registry) StartSpan(name string) func() {
	return r.StartSpanWorker(name, 0)
}

// StartSpanWorker begins a span on a specific worker lane.
func (r *Registry) StartSpanWorker(name string, worker int) func() {
	if r == nil {
		return func() {}
	}
	start := time.Since(r.epoch)
	return func() {
		end := time.Since(r.epoch)
		r.mu.Lock()
		r.spans = append(r.spans, Span{Name: name, Worker: worker, Start: start, Dur: end - start})
		r.mu.Unlock()
	}
}

// Spans returns a copy of the recorded spans in completion order.
func (r *Registry) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// chromeEvent is one Chrome trace-event ("X" complete events only) as
// understood by chrome://tracing, Perfetto, and speedscope.
type chromeEvent struct {
	Name string `json:"name"`
	Ph   string `json:"ph"`
	Ts   int64  `json:"ts"`  // microseconds since trace start
	Dur  int64  `json:"dur"` // microseconds
	Pid  int    `json:"pid"`
	Tid  int    `json:"tid"`
	Cat  string `json:"cat"`
}

// WriteChromeTrace renders the recorded spans as a Chrome trace-event
// JSON array, for flame-graph viewing (ilcc -trace out.json; open in
// chrome://tracing or Perfetto). Spans are sorted by start time then
// name so an identical span set always renders identical bytes.
func (r *Registry) WriteChromeTrace(w io.Writer) error {
	if r == nil {
		_, err := io.WriteString(w, "[]\n")
		return err
	}
	spans := r.Spans()
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		if spans[i].Worker != spans[j].Worker {
			return spans[i].Worker < spans[j].Worker
		}
		return spans[i].Name < spans[j].Name
	})
	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		events = append(events, chromeEvent{
			Name: s.Name,
			Ph:   "X",
			Ts:   s.Start.Microseconds(),
			Dur:  s.Dur.Microseconds(),
			Pid:  1,
			Tid:  s.Worker,
			Cat:  "phase",
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(events); err != nil {
		return fmt.Errorf("obs: chrome trace: %w", err)
	}
	return nil
}

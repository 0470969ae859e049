package main

import "time"

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function. Spans nest strictly: the benchmark is a
// single closed-loop client, so a parent's children run one after another
// inside it and never overlap each other.
type span struct {
	id, parent int // parent is -1 for a pass root
	job        int // index of the workload job, -1 for a pass root
	name       string
	start, end time.Duration // since the tracer's origin
	childTime  time.Duration // total duration of direct children
	failed     bool
}

func (s *span) self() time.Duration { return s.end - s.start - s.childTime }

// tracer keeps spans in memory; they are written out once the run ends.
// A nil tracer records nothing, which is how untraced passes run.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int // stack of open span ids
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span under the innermost open span and returns its id.
func (t *tracer) begin(name string, job int) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{id: id, parent: parent, job: job, name: name, start: time.Since(t.origin)})
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span, marking it
// failed when err is non-nil.
func (t *tracer) end(id int, err error) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	s.end = time.Since(t.origin)
	s.failed = err != nil
	t.open = t.open[:len(t.open)-1]
	if s.parent >= 0 {
		t.spans[s.parent].childTime += s.end - s.start
	}
}

// layerStat sums the spans of one layer name.
type layerStat struct {
	calls, errors int
	self          time.Duration
}

// rootLayers sums self time, calls and errors per span name under each
// root span called rootName, one map per root in the order they ran. A
// root's own self time is the part of it no layer covers.
func (t *tracer) rootLayers(rootName string) []map[string]*layerStat {
	var out []map[string]*layerStat
	rootOf := make([]int, len(t.spans)) // index into out, -1 for other roots
	for i := range t.spans {
		s := &t.spans[i]
		switch {
		case s.parent >= 0:
			rootOf[i] = rootOf[s.parent] // parents are recorded first
		case s.name == rootName:
			rootOf[i] = len(out)
			out = append(out, make(map[string]*layerStat))
		default:
			rootOf[i] = -1
		}
		if rootOf[i] < 0 {
			continue
		}
		m := out[rootOf[i]]
		ls := m[s.name]
		if ls == nil {
			ls = &layerStat{}
			m[s.name] = ls
		}
		ls.calls++
		ls.self += s.self()
		if s.failed {
			ls.errors++
		}
	}
	return out
}

// chromeEvent is one Chrome trace-event record.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// chromeEvents renders the spans as complete ("X") events of process pid,
// named process, loadable in chrome://tracing or Perfetto. Span, parent
// and job ids ride in args so the tree survives the format.
func (t *tracer) chromeEvents(pid int, process string) []chromeEvent {
	events := []chromeEvent{{Name: "process_name", Ph: "M", Pid: pid, Tid: 1, Args: map[string]any{"name": process}}}
	for _, s := range t.spans {
		events = append(events, chromeEvent{
			Name: s.name, Ph: "X", Pid: pid, Tid: 1,
			Ts:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  float64((s.end - s.start).Nanoseconds()) / 1e3,
			Args: map[string]any{"id": s.id, "parent": s.parent, "job": s.job, "failed": s.failed},
		})
	}
	return events
}

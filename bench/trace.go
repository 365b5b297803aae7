package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the tracer's epoch. Parent is the index of the enclosing span on the
// same track, or -1; Op is the operation (MD step, request) the span belongs
// to. Synthetic spans were not timed around a call: their duration comes
// from a public counter of the program (KernelProfile, RuntimeStats) read
// right after the enclosing call, and they are laid out back to back from
// the parent's start.
type span struct {
	Name      string
	Layer     string
	Track     int
	Parent    int
	Op        int
	Start     int64
	End       int64
	Synthetic bool
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. Recording is switched per
// operation (on) so one run yields traced and untraced operations of the
// same trajectory; a nil tracer records nothing.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	op    atomic.Int64

	mu     sync.Mutex
	spans  []span
	stacks map[int][]int // open spans per track, innermost last
	names  map[int]string
}

func newTracer() *tracer {
	return &tracer{
		epoch:  time.Now(),
		spans:  make([]span, 0, 1<<14),
		stacks: map[int][]int{},
		names:  map[int]string{},
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// enabled reports whether spans are being recorded right now.
func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

// nameTrack labels a track in the Chrome trace (thread name).
func (t *tracer) nameTrack(track int, name string) {
	t.mu.Lock()
	t.names[track] = name
	t.mu.Unlock()
}

// begin opens a span on a track that one goroutine drives at a time; its
// parent is the innermost span still open there. It returns the span's
// index for end.
func (t *tracer) begin(track int, name, layer string) int {
	now := t.now()
	t.mu.Lock()
	parent := -1
	if st := t.stacks[track]; len(st) > 0 {
		parent = st[len(st)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Layer: layer, Track: track, Parent: parent, Op: int(t.op.Load()), Start: now, End: now})
	t.stacks[track] = append(t.stacks[track], id)
	t.mu.Unlock()
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	now := t.now()
	t.mu.Lock()
	t.spans[id].End = now
	track := t.spans[id].Track
	if st := t.stacks[track]; len(st) > 0 && st[len(st)-1] == id {
		t.stacks[track] = st[:len(st)-1]
	}
	t.mu.Unlock()
}

// add records a finished span with an explicit parent and operation: the
// form for goroutines that do not own their track's stack (rank endpoints,
// HTTP handlers) and for synthetic spans.
func (t *tracer) add(s span) int {
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return id
}

// closeAt sets the end of a span recorded open with add.
func (t *tracer) closeAt(id int, end int64) {
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// startOf returns the start time of a recorded span.
func (t *tracer) startOf(id int) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id].Start
}

// current returns the innermost open span of a track, or -1.
func (t *tracer) current(track int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if st := t.stacks[track]; len(st) > 0 {
		return st[len(st)-1]
	}
	return -1
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its direct children on the same track cover. Overlapping children are
// counted once (interval union) and children are clipped to the parent, so
// a synthetic child laid out past the parent's end cannot make self time
// negative.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) && spans[s.Parent].Track == s.Track {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur()
		kids := children[i]
		if len(kids) == 0 {
			continue
		}
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered := int64(0)
		reach := s.Start // everything before reach is already counted
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < reach {
				lo = reach
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] -= covered
	}
	return self
}

// hasChildren marks the spans that have at least one same-track child.
func hasChildren(spans []span) []bool {
	out := make([]bool, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) && spans[s.Parent].Track == s.Track {
			out[s.Parent] = true
		}
	}
	return out
}

// residualFrac is the share of operation time that no leaf span measured:
// the self time of every span that has children, over the summed duration of
// the root spans named root. A layer whose cost is only known by subtraction
// (the integrator inside a step, HTTP around the service) lands here.
func residualFrac(spans []span, root string) float64 {
	self := selfTimes(spans)
	parent := hasChildren(spans)
	var total, resid int64
	for i, s := range spans {
		if s.Name == root && s.Parent < 0 {
			total += s.dur()
		}
		if parent[i] {
			resid += self[i]
		}
	}
	if total == 0 {
		return 0
	}
	return float64(resid) / float64(total)
}

// spanDurations collects the durations (ms) of every span with the name.
func spanDurations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e6)
		}
	}
	return out
}

// spanSelf collects the self times (ms) of every span with the name.
func spanSelf(spans []span, name string) []float64 {
	self := selfTimes(spans)
	var out []float64
	for i, s := range spans {
		if s.Name == name {
			out = append(out, float64(self[i])/1e6)
		}
	}
	return out
}

// perOpSum sums, per operation, the durations (ms) of the spans with the
// name on tracks accepted by keep, and returns one value per operation that
// has at least one such span.
func perOpSum(spans []span, name string, keep func(track int) bool) []float64 {
	byOp := map[int]float64{}
	for _, s := range spans {
		if s.Name == name && keep(s.Track) {
			byOp[s.Op] += float64(s.dur()) / 1e6
		}
	}
	out := make([]float64, 0, len(byOp))
	for _, v := range byOp {
		out = append(out, v)
	}
	return out
}

// chromeEvent is one complete ("X") or metadata ("M") event of the Chrome
// trace-event format (chrome://tracing, Perfetto).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes the spans as Chrome trace JSON: one track per tid,
// the layer as category, and id/parent/op/synthetic in args.
func (t *tracer) writeChromeTrace(path string) error {
	spans := t.snapshot()
	t.mu.Lock()
	names := make(map[int]string, len(t.names))
	for k, v := range t.names {
		names[k] = v
	}
	t.mu.Unlock()

	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	enc := json.NewEncoder(w)
	first := true
	emit := func(ev chromeEvent) error {
		if !first {
			fmt.Fprint(w, ",")
		}
		first = false
		return enc.Encode(ev)
	}
	tracks := make([]int, 0, len(names))
	for k := range names {
		tracks = append(tracks, k)
	}
	sort.Ints(tracks)
	for _, k := range tracks {
		if err := emit(chromeEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: k, Args: map[string]any{"name": names[k]}}); err != nil {
			f.Close()
			return err
		}
	}
	for i, s := range spans {
		ev := chromeEvent{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.dur()) / 1e3,
			Pid: 1, Tid: s.Track,
			Args: map[string]any{"id": i, "parent": s.Parent, "op": s.Op},
		}
		if s.Synthetic {
			ev.Args["synthetic"] = true
		}
		if err := emit(ev); err != nil {
			f.Close()
			return err
		}
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

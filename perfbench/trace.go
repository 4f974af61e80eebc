package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Layers are the repository's modules; every span belongs to one. bench is
// the benchmark's own driving code (a cycle, a wave, a restart).
const (
	layerBench      = "bench"
	layerPartition  = "partition"
	layerCore       = "core"
	layerRuntime    = "runtime"
	layerAnytime    = "anytime"
	layerCentrality = "centrality"
)

var layers = []string{layerBench, layerPartition, layerCore, layerRuntime, layerAnytime, layerCentrality}

// spanKind tells the runtime decorator what an unlabelled Parallel call
// inside a span is doing: the IA phase inside core.New, or a sweep inside a
// dynamic apply.
type spanKind uint8

const (
	kindPlain spanKind = iota
	kindNew
	kindApply
)

// span is one timed call at a layer boundary. Times are offsets from the
// tracer's epoch; Parent is 0 for a root span; spans of one batch, wave or
// query share Req.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	kind   spanKind
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. Engine-side spans nest
// through a stack: exactly one goroutine drives an engine at any time (the
// benchmark's own in edge-dynamic and vertex-waves, the session's
// orchestration goroutine in serve-ingest), so the stack top is the caller
// of whatever the decorators observe. Client goroutines record flat spans
// with add.
type tracer struct {
	mu       sync.Mutex
	epoch    time.Time
	on       bool
	req      int64
	spans    []span
	stack    []int // indices into spans
	flushers map[*tracedRuntime]bool
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), flushers: make(map[*tracedRuntime]bool)}
}

// setOn opens or closes the accounting window: spans and counts outside it
// (warm-up, the tail past a fixed window) are dropped.
func (t *tracer) setOn(on bool) {
	t.mu.Lock()
	t.on = on
	t.mu.Unlock()
}

func (t *tracer) active() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.on
}

// setReq sets the request ID stamped on engine-side spans from now on.
func (t *tracer) setReq(req int64) {
	t.mu.Lock()
	t.req = req
	t.mu.Unlock()
}

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

// begin opens an engine-side span under the current stack top and returns
// its handle for end (0 when nothing is recorded).
func (t *tracer) begin(name, layer string, kind spanKind) int {
	t.flushPending()
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return 0
	}
	s := span{ID: int64(len(t.spans) + 1), Parent: t.topLocked(), Req: t.req, Name: name, Layer: layer, kind: kind}
	s.Start = t.since(time.Now())
	t.spans = append(t.spans, s)
	t.stack = append(t.stack, len(t.spans)-1)
	return len(t.spans)
}

// end closes the span begin returned, after labelling any Parallel call
// still pending inside it.
func (t *tracer) end(h int) {
	if h == 0 {
		return
	}
	t.flushPending()
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[h-1].End = t.since(now)
	for i := len(t.stack) - 1; i >= 0; i-- {
		if t.stack[i] == h-1 {
			t.stack = t.stack[:i]
			break
		}
	}
}

func (t *tracer) topLocked() int64 {
	if len(t.stack) == 0 {
		return 0
	}
	return t.spans[t.stack[len(t.stack)-1]].ID
}

// context reports the current stack top, request ID and the innermost
// non-plain kind on the stack, for a span the runtime decorator will label
// later.
func (t *tracer) context() (parent, req int64, kind spanKind, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return 0, 0, kindPlain, false
	}
	for i := len(t.stack) - 1; i >= 0; i-- {
		if k := t.spans[t.stack[i]].kind; k != kindPlain {
			kind = k
			break
		}
	}
	return t.topLocked(), t.req, kind, true
}

// add records a finished span with an explicit parent and request ID. Client
// goroutines (writer, reader) use it with parent 0.
func (t *tracer) add(name, layer string, parent, req int64, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return
	}
	t.spans = append(t.spans, span{
		ID: int64(len(t.spans) + 1), Parent: parent, Req: req, Name: name, Layer: layer,
		Start: t.since(start), End: t.since(end),
	})
}

func (t *tracer) register(r *tracedRuntime, on bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if on {
		t.flushers[r] = true
	} else {
		delete(t.flushers, r)
	}
}

// flushPending labels every runtime decorator's pending Parallel call: a
// span boundary means no Exchange can follow it inside the same step.
func (t *tracer) flushPending() {
	t.mu.Lock()
	rs := make([]*tracedRuntime, 0, len(t.flushers))
	for r := range t.flushers {
		rs = append(rs, r)
	}
	t.mu.Unlock()
	for _, r := range rs {
		r.flush()
	}
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeJSONL writes every span, one JSON object per line.
func writeJSONL(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// selfTime returns each layer's self time: the sum over its spans of the
// span's duration minus the part of that interval its child spans cover.
func selfTime(spans []span) map[string]time.Duration {
	children := make(map[int64][]*span)
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			children[p] = append(children[p], &spans[i])
		}
	}
	out := make(map[string]time.Duration)
	for i := range spans {
		s := &spans[i]
		out[s.Layer] += s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered returns how much of s's interval the union of kids covers.
func covered(s *span, kids []*span) time.Duration {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, s.Start), min(k.End, s.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi int64
	open := false
	for _, v := range ivs {
		if open && v.lo <= curHi {
			curHi = max(curHi, v.hi)
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = v.lo, v.hi, true
	}
	if open {
		total += curHi - curLo
	}
	return time.Duration(total)
}

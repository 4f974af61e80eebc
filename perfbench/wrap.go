package main

import (
	"sync"
	"time"

	"aacc/internal/cluster"
	"aacc/internal/core"
	"aacc/internal/graph"
	"aacc/internal/logp"
	"aacc/internal/partition"
	"aacc/internal/runtime"
)

// This file holds the traced run's decorators. They sit on the program's
// public seams — the partitioner in core.Options.Partitioner, the runtime
// built by core.Options.RuntimeFactory, the engine handed to
// anytime.NewWith — and record spans and counts from outside the program.
// Untraced runs install none of them.

// probe carries a traced run's tracer and the counts read from public
// return values. A nil probe is an untraced run: every method is a no-op
// that calls straight through.
type probe struct {
	tr *tracer

	mu sync.Mutex
	c  counts
}

// counts are the per-layer quantities that are not span times.
type counts struct {
	steps, rowsSent, rowsChanged, messages int64
	innerRounds, reconvSteps               int64
	stats                                  cluster.Stats

	batches, opsToEngine, opsEnqueued, epochs int64
	enqueueBlockUs                            []float64
	prunedFrac, resolvedK                     []float64
}

func newProbe() *probe { return &probe{tr: newTracer()} }

func (p *probe) active() bool { return p != nil && p.tr.active() }

func (p *probe) count(f func(c *counts)) {
	if !p.active() {
		return
	}
	p.mu.Lock()
	f(&p.c)
	p.mu.Unlock()
}

func (p *probe) setOn(on bool) {
	if p != nil {
		p.tr.setOn(on)
	}
}

func (p *probe) setReq(req int64) {
	if p != nil {
		p.tr.setReq(req)
	}
}

// begin/end open and close an engine-side span; nil-safe.
func (p *probe) begin(name, layer string, kind spanKind) int {
	if p == nil {
		return 0
	}
	return p.tr.begin(name, layer, kind)
}

func (p *probe) end(h int) {
	if p != nil {
		p.tr.end(h)
	}
}

// add records a flat span from a client goroutine; nil-safe.
func (p *probe) add(name, layer string, req int64, start, end time.Time) {
	if p != nil {
		p.tr.add(name, layer, 0, req, start, end)
	}
}

// addStats folds the runtime accounting an engine did between two
// snapshots into the window's totals.
func (p *probe) addStats(before, after cluster.Stats) {
	p.count(func(c *counts) {
		c.stats.SimCompute += after.SimCompute - before.SimCompute
		c.stats.SimComm += after.SimComm - before.SimComm
		c.stats.BytesSent += after.BytesSent - before.BytesSent
		c.stats.MessagesSent += after.MessagesSent - before.MessagesSent
		c.stats.ExchangeRounds += after.ExchangeRounds - before.ExchangeRounds
		c.stats.Broadcasts += after.Broadcasts - before.Broadcasts
	})
}

// step runs one RC step under a span named name and counts its report.
// reconv marks a step that follows a dynamic change.
func (p *probe) step(e *core.Engine, name string, reconv bool) (core.StepReport, error) {
	if p == nil {
		return e.Step()
	}
	h := p.tr.begin(name, layerCore, kindPlain)
	rep, err := e.Step()
	p.tr.end(h)
	if err == nil {
		p.count(func(c *counts) {
			c.steps++
			c.rowsSent += int64(rep.RowsSent)
			c.rowsChanged += int64(rep.RowsChanged)
			c.messages += int64(rep.MessagesSent)
			if reconv {
				c.reconvSteps++
			}
		})
	}
	return rep, err
}

// apply runs one dynamic change under an apply span, counting the exchange
// rounds the engine ran inside it.
func (p *probe) apply(e *core.Engine, name string, fn func() error) error {
	if p == nil {
		return fn()
	}
	before := e.Stats().ExchangeRounds
	h := p.tr.begin(name, layerCore, kindApply)
	err := fn()
	p.tr.end(h)
	after := e.Stats().ExchangeRounds
	p.count(func(c *counts) { c.innerRounds += after - before })
	return err
}

// options returns opts with the partitioner and runtime decorated.
func (p *probe) options(opts core.Options) core.Options {
	if p == nil {
		return opts
	}
	opts.Partitioner = tracedPartitioner{Partitioner: opts.Partitioner, tr: p.tr}
	kind := opts.Runtime
	opts.RuntimeFactory = func(n int, model logp.Params) (runtime.Runtime, error) {
		rt, err := runtime.New(kind, n, model, core.WireCodec{})
		if err != nil {
			return nil, err
		}
		r := &tracedRuntime{Runtime: rt, tr: p.tr}
		p.tr.register(r, true)
		return r, nil
	}
	return opts
}

// tracedPartitioner times every DD, CutEdge-PS and Repartition-S partition.
type tracedPartitioner struct {
	partition.Partitioner
	tr *tracer
}

func (t tracedPartitioner) Partition(g *graph.Graph, k int) partition.Assignment {
	h := t.tr.begin("partition.Partition", layerPartition, kindPlain)
	a := t.Partitioner.Partition(g, k)
	t.tr.end(h)
	return a
}

// tracedRuntime times the runtime's calls and labels the engine's RC step
// phases from their order: the last Parallel before an Exchange is collect,
// the Parallel right after it is install-relax. Any other Parallel is the IA
// phase inside core.New, a sweep inside a dynamic apply, or other compute.
type tracedRuntime struct {
	runtime.Runtime
	tr *tracer

	mu            sync.Mutex
	pending       *parallelCall
	afterExchange bool
}

// parallelCall is a Parallel call waiting for its label.
type parallelCall struct {
	parent, req int64
	kind        spanKind
	start, end  time.Time
}

// Parallel runs compute on the engine's behalf; its time is core time.
func (r *tracedRuntime) Parallel(fn func(proc int)) {
	r.flush()
	parent, req, kind, ok := r.tr.context()
	start := time.Now()
	r.Runtime.Parallel(fn)
	end := time.Now()
	r.mu.Lock()
	install := r.afterExchange
	r.afterExchange = false
	if ok && !install {
		r.pending = &parallelCall{parent: parent, req: req, kind: kind, start: start, end: end}
	}
	r.mu.Unlock()
	if ok && install {
		r.tr.add("core.rc.install_relax", layerCore, parent, req, start, end)
	}
}

func (r *tracedRuntime) Exchange(out [][]*cluster.Mail) ([][]*cluster.Mail, error) {
	r.mu.Lock()
	collect := r.pending
	r.pending = nil
	r.mu.Unlock()
	if collect != nil {
		r.tr.add("core.rc.collect", layerCore, collect.parent, collect.req, collect.start, collect.end)
	}
	parent, req, _, ok := r.tr.context()
	start := time.Now()
	in, err := r.Runtime.Exchange(out)
	end := time.Now()
	if ok {
		r.tr.add("runtime.Exchange", layerRuntime, parent, req, start, end)
	}
	r.mu.Lock()
	r.afterExchange = err == nil
	r.mu.Unlock()
	return in, err
}

func (r *tracedRuntime) Broadcast(root int, m *cluster.Mail) *cluster.Mail {
	r.flush()
	parent, req, _, ok := r.tr.context()
	start := time.Now()
	out := r.Runtime.Broadcast(root, m)
	if ok {
		r.tr.add("runtime.Broadcast", layerRuntime, parent, req, start, time.Now())
	}
	return out
}

func (r *tracedRuntime) Close() error {
	r.flush()
	r.tr.register(r, false)
	return r.Runtime.Close()
}

// flush labels a pending Parallel that no Exchange followed.
func (r *tracedRuntime) flush() {
	r.mu.Lock()
	pc := r.pending
	r.pending = nil
	r.mu.Unlock()
	if pc == nil {
		return
	}
	name := "core.parallel"
	switch pc.kind {
	case kindNew:
		name = "core.ia"
	case kindApply:
		name = "core.dyn.sweep"
	}
	r.tr.add(name, layerCore, pc.parent, pc.req, pc.start, pc.end)
}

// tracedEngine is the anytime.Engine a traced serve-ingest session drives:
// it times the session's calls into the engine. Its spans are named after
// the caller (anytime.engine.*) and belong to the callee's layer, core.
type tracedEngine struct {
	*core.Engine
	p       *probe
	applied bool // set by the session goroutine only
}

func (e *tracedEngine) Step() (core.StepReport, error) {
	return e.p.step(e.Engine, "anytime.engine.Step", e.applied)
}

func (e *tracedEngine) ApplyBatch(b *core.Batch) error {
	e.applied = true
	e.p.count(func(c *counts) {
		c.batches++
		c.opsToEngine += int64(len(b.Ops))
	})
	return e.p.apply(e.Engine, "anytime.engine.ApplyBatch", func() error { return e.Engine.ApplyBatch(b) })
}

func (e *tracedEngine) Distances() map[graph.ID][]int32 {
	h := e.p.begin("anytime.engine.Distances", layerCore, kindPlain)
	d := e.Engine.Distances()
	e.p.end(h)
	return d
}

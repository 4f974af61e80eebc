package main

import (
	"fmt"
	goruntime "runtime"
	"time"

	"aacc/internal/cluster"
	"aacc/internal/core"
	"aacc/internal/graph"
	"aacc/internal/partition"
	"aacc/internal/runtime"
)

// benchP is the processor count of every workload.
const benchP = 8

// datasetSeed generates each workload's graph, which stays fixed like a
// dataset; --seed draws everything else: the changes, the query keys and
// the partitioner's seed. Graphs drawn afresh per seed moved the
// vertex-waves figures by up to a quarter between seeds.
const datasetSeed = 42

// maxSteps bounds one convergence loop; the engine's own default is 8P+n+16.
const maxSteps = 100000

// baseOptions configures an engine the way the CLI does by default apart
// from P: multilevel DD and one pool worker per usable core.
func baseOptions(seed int64, kind runtime.Kind) core.Options {
	return core.Options{
		P:           benchP,
		Seed:        seed,
		Workers:     goruntime.GOMAXPROCS(0),
		Partitioner: partition.Multilevel{Seed: seed},
		Runtime:     kind,
	}
}

// newEngine runs core.New (DD + IA) under a span.
func newEngine(p *probe, g *graph.Graph, opts core.Options) (*core.Engine, error) {
	h := p.begin("core.New", layerCore, kindNew)
	e, err := core.New(g, opts)
	p.end(h)
	if err != nil {
		return nil, fmt.Errorf("building engine: %w", err)
	}
	return e, nil
}

// converge steps e until it converges.
func converge(p *probe, e *core.Engine, reconv bool) error {
	for n := 0; !e.Converged(); n++ {
		if n >= maxSteps {
			return fmt.Errorf("no convergence after %d RC steps", n)
		}
		if _, err := p.step(e, "core.Step", reconv); err != nil {
			return err
		}
	}
	return nil
}

// buildConverged builds builds engines on copies of g and runs each to
// convergence, timing DD + IA + convergence. The first build is a warm-up
// whose time is dropped; the last engine is returned for the measured phase.
func buildConverged(p *probe, g *graph.Graph, opts core.Options, builds int) (*core.Engine, []float64, error) {
	var e *core.Engine
	var times []float64
	for b := 0; b < builds; b++ {
		if e != nil {
			e.Close()
		}
		goruntime.GC()
		p.setOn(b > 0)
		clone := g.Clone()
		start := time.Now()
		var err error
		if e, err = newEngine(p, clone, opts); err != nil {
			return nil, nil, err
		}
		if err := converge(p, e, false); err != nil {
			e.Close()
			return nil, nil, err
		}
		el := time.Since(start)
		if b > 0 {
			times = append(times, el.Seconds())
			p.addStats(cluster.Stats{}, e.Stats())
		}
	}
	p.setOn(false)
	return e, times, nil
}

// liveHeapMB runs a full collection and returns the live heap in MiB.
// Workloads call it at fixed checkpoints outside their timed regions and
// report the largest value as peak_heap_mb: the most state the program held
// at once, independent of when collections happened to run.
func liveHeapMB() float64 {
	goruntime.GC()
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// heapCheck records a peak_heap_mb checkpoint.
func (r *result) heapCheck() {
	r.e2e["peak_heap_mb"] = max(r.e2e["peak_heap_mb"], liveHeapMB())
}

package main

import (
	"fmt"
	goruntime "runtime"
	"time"

	"aacc/internal/cluster"
	"aacc/internal/core"
	"aacc/internal/gen"
	"aacc/internal/graph"
	"aacc/internal/runtime"
	"aacc/internal/workload"
)

// edge-dynamic parameters. At n=600, the size the deletion probes in
// ROADMAP.md used, the DV matrix (n² int32) is 1.4 MiB, near the 2 MiB
// per-core L2 of the host the benchmark was sized on.
const (
	edgeN        = 600
	edgeM        = 2 // Barabási–Albert attachments per vertex
	edgeBatch    = 8 // edges per deletion batch and per addition batch
	edgeBuilds   = 6 // set-up builds, the first a warm-up
	restartEvery = 4 // every 4th measured cycle is also timed as a restart
	checkEvery   = 8 // every 8th cycle is checked against the oracle
	edgeWindow   = 16
)

// runEdgeDynamic converges a Barabási–Albert analysis, then alternates
// barrier edge-deletion batches and edge-addition batches, each followed by
// RC steps to convergence. Cycle 0 is a warm-up. A traced run keeps its
// per-layer window to the set-up builds and the first edgeWindow measured
// cycles, so counts repeat exactly for a seed.
func runEdgeDynamic(seed int64, p *probe, dur time.Duration) (*result, error) {
	g0 := gen.BarabasiAlbert(edgeN, edgeM, datasetSeed, gen.Config{})
	opts := p.options(baseOptions(seed, runtime.Sim))
	eng, setup, err := buildConverged(p, g0, opts, edgeBuilds)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	mirror := g0.Clone()
	res := newResult()
	res.heapCheck()
	var del, add, restart []float64
	var windowStart cluster.Stats
	deadline := time.Now().Add(dur)
	c := 0
	for ; ; c++ {
		measured := c > 0
		switch c {
		case 1:
			windowStart = eng.Stats()
		case edgeWindow + 1:
			p.addStats(windowStart, eng.Stats()) // before the window closes
		}
		p.setOn(measured && c <= edgeWindow)
		if measured && time.Now().After(deadline) && (p == nil || c > edgeWindow) {
			break
		}
		p.setReq(int64(c))
		cseed := seed*7919 + int64(c)*2

		dels := workload.RandomEdgeDeletions(mirror, edgeBatch, cseed)
		if len(dels) != edgeBatch {
			return nil, fmt.Errorf("cycle %d: found %d deletable edges, want %d", c, len(dels), edgeBatch)
		}
		for _, d := range dels {
			mirror.RemoveEdge(d[0], d[1])
		}
		h := p.begin("bench.cycle", layerBench, kindPlain)
		d, err := timeChange(p, eng, "core.ApplyEdgeDeletions", func() error { return eng.ApplyEdgeDeletions(dels) })
		if err != nil {
			return nil, fmt.Errorf("cycle %d deletions: %w", c, err)
		}

		adds := workload.RandomEdgeAdditions(mirror, edgeBatch, 1, cseed+1)
		if len(adds) != edgeBatch {
			return nil, fmt.Errorf("cycle %d: found %d new edges, want %d", c, len(adds), edgeBatch)
		}
		for _, e := range adds {
			mirror.AddEdge(e.U, e.V, e.W)
		}
		a, err := timeChange(p, eng, "core.ApplyEdgeAdditions", func() error { return eng.ApplyEdgeAdditions(adds) })
		p.end(h)
		if err != nil {
			return nil, fmt.Errorf("cycle %d additions: %w", c, err)
		}
		res.attempted += 2
		if measured {
			del = append(del, d)
			add = append(add, a)
		}

		if measured && c%restartEvery == 0 {
			r, err := timeRestart(p, mirror, opts)
			if err != nil {
				return nil, fmt.Errorf("cycle %d restart: %w", c, err)
			}
			restart = append(restart, r)
		}
		if c%checkEvery == 0 {
			if err := checkDistances(eng.Distances(), mirror); err != nil {
				return nil, fmt.Errorf("cycle %d: %w", c, err)
			}
			res.heapCheck()
		}
	}
	p.setOn(false)
	if err := checkDistances(eng.Distances(), mirror); err != nil {
		return nil, fmt.Errorf("after cycle %d: %w", c-1, err)
	}

	res.e2e["setup_s"] = median(setup)
	res.rows = append(res.rows, row{name: "setup_s", value: median(setup), unit: "s", samples: len(setup), note: "setup_s"})
	res.timing("headline_ms", "reconverge_del_ms", "ms", 1, del, 90)
	res.timing("companion_ms", "reconverge_add_ms", "ms", 1, add, 90)
	res.rows = append(res.rows, row{name: "restart_ms.p50", value: median(restart), unit: "ms", samples: len(restart),
		note: fmt.Sprintf("re-analysis baseline; restart/reconverge_del = %.2f", median(restart)/median(del))})
	edges := float64(2 * edgeBatch * len(del))
	res.e2e["throughput_per_s"] = edges / ((sum(del) + sum(add)) / 1e3)
	res.rows = append(res.rows, row{name: "edge_updates_per_s", value: res.e2e["throughput_per_s"], unit: "1/s", samples: len(del), note: "throughput_per_s"})
	res.unitNote = fmt.Sprintf("sums over %d set-up builds and the first %d measured cycles", edgeBuilds-1, edgeWindow)
	return res, nil
}

// timeChange applies one change and steps to convergence, returning the
// milliseconds from the apply call to Converged(). It collects garbage
// first, so one change's garbage is not charged to the next.
func timeChange(p *probe, eng *core.Engine, name string, apply func() error) (float64, error) {
	goruntime.GC()
	start := time.Now()
	if err := p.apply(eng, name, apply); err != nil {
		return 0, err
	}
	if err := converge(p, eng, true); err != nil {
		return 0, err
	}
	return msSince(start), nil
}

// timeRestart times the re-analysis baseline: core.New + RC steps to
// convergence on a copy of g.
func timeRestart(p *probe, g *graph.Graph, opts core.Options) (float64, error) {
	clone := g.Clone()
	goruntime.GC()
	h := p.begin("bench.restart", layerBench, kindPlain)
	start := time.Now()
	e, err := newEngine(p, clone, opts)
	if err == nil {
		err = converge(p, e, false)
	}
	el := msSince(start)
	p.end(h)
	if e != nil {
		p.addStats(cluster.Stats{}, e.Stats())
		e.Close()
	}
	return el, err
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

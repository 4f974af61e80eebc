package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"aacc/internal/anytime"
	"aacc/internal/core"
	"aacc/internal/gen"
	"aacc/internal/graph"
	"aacc/internal/runtime"
	"aacc/internal/workload"
)

// serve-ingest parameters. The open-loop rates are fixed; writeRate is
// about half the burst rate the benchmark measured on the commit that
// introduced it (README.md).
const (
	serveN      = 300
	serveM      = 2
	serveBuilds = 6 // set-up builds, the first a warm-up
	churnMaxW   = 4
	writeRate   = 150.0 // mutations per second, one writer
	readRate    = 200.0 // top-k + distance reads per second, one reader
	warmup      = time.Second
	burstOps    = 200
	bursts      = 10
	topK        = 10
)

// runServeIngest serves a converged analysis from a live anytime.Session
// while one writer streams workload.Churn mutations through Enqueue and one
// reader issues top-k and distance reads, both open loop at fixed rates.
// A watcher blocked in WaitFor stamps when each mutation became visible.
// Flat-out bursts closed by Flush give throughput.
func runServeIngest(seed int64, p *probe, dur time.Duration) (*result, error) {
	g0 := gen.BarabasiAlbert(serveN, serveM, datasetSeed, gen.Config{MaxWeight: churnMaxW})
	opts := p.options(baseOptions(seed, runtime.Sim))
	ce, setup, err := buildConverged(p, g0, opts, serveBuilds)
	if err != nil {
		return nil, err
	}
	var eng anytime.Engine = ce
	if p != nil {
		eng = &tracedEngine{Engine: ce, p: p}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sess, err := anytime.NewWith(ctx, eng, anytime.Options{})
	if err != nil {
		ce.Close()
		return nil, err
	}
	defer sess.Close()

	st := &serveState{
		sess:   sess,
		p:      p,
		mirror: g0.Clone(),
		churn:  workload.NewChurn(g0, churnMaxW, seed),
		rng:    rand.New(rand.NewSource(seed + 1)),
		live:   g0.Vertices(),
	}
	res := newResult()
	res.heapCheck()
	if _, err := st.load(ctx, warmup, false); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	p.setOn(true)
	sn0 := sess.Snapshot()
	lr, err := st.load(ctx, dur*4/5, true)
	if err != nil {
		return nil, err
	}
	res.heapCheck()
	// A fixed number of bursts, so every run with a seed applies the same
	// mutation sequence: Churn grows the graph as it goes, so the session's
	// cost per op drifts over a run. Throughput is the bursts' total ops
	// over their total time.
	var burstTime time.Duration
	for b := 0; b < bursts; b++ {
		t, err := st.burst(ctx, int64(b))
		if err != nil {
			return nil, fmt.Errorf("burst %d: %w", b, err)
		}
		burstTime += t
	}
	rate := float64(bursts*burstOps) / burstTime.Seconds()
	sn1 := sess.Snapshot()
	p.addStats(sn0.Stats, sn1.Stats)
	p.count(func(c *counts) { c.epochs += int64(sn1.Epoch - sn0.Epoch) })
	p.setOn(false)

	wctx, wcancel := context.WithTimeout(ctx, time.Minute)
	defer wcancel()
	sn, err := sess.WaitFor(wctx, func(sn *anytime.Snapshot) bool { return sn.Converged })
	if err != nil {
		return nil, fmt.Errorf("waiting for convergence: %w", err)
	}
	dist := make(map[graph.ID][]int32, len(sn.Vertices()))
	for _, v := range sn.Vertices() {
		dist[v] = sn.Row(v)
	}
	if err := checkDistances(dist, st.mirror); err != nil {
		return nil, err
	}
	if err := checkTopK(sess.TopK(topK, true), st.mirror, topK); err != nil {
		return nil, err
	}
	res.heapCheck()

	res.attempted = lr.writes + lr.reads + bursts*burstOps + st.warmOps
	res.failed = st.failed
	res.writerLag, res.readerLag = lr.writerLag, lr.readerLag
	res.e2e["setup_s"] = median(setup)
	res.rows = append(res.rows, row{name: "setup_s", value: median(setup), unit: "s", samples: len(setup), note: "setup_s"})
	res.timing("headline_ms", "mutation_visible_ms", "ms", 1, lr.visible, 90)
	res.timing("companion_ms", "topk_query_us", "us", 1e3, lr.query, 90)
	res.rows = append(res.rows,
		row{name: "mutation_visible_ms.p99", value: percentile(lr.visible, 99), unit: "ms", samples: len(lr.visible), note: "p99 moved too much between runs to gate on"},
		row{name: "topk_query_us.p99", value: percentile(lr.query, 99) * 1e3, unit: "us", samples: len(lr.query), note: "p99 moved too much between runs to gate on"})
	res.e2e["throughput_per_s"] = rate
	res.rows = append(res.rows,
		row{name: "ingest_mut_per_s", value: rate, unit: "1/s", samples: bursts * burstOps, note: fmt.Sprintf("throughput_per_s; %d bursts of %d", bursts, burstOps)},
		row{name: "load.writer_lag_ms.p99", value: percentile(lr.writerLag, 99), unit: "ms", samples: len(lr.writerLag), note: fmt.Sprintf("open loop at %g/s", writeRate)},
		row{name: "load.reader_lag_ms.p99", value: percentile(lr.readerLag, 99), unit: "ms", samples: len(lr.readerLag), note: fmt.Sprintf("open loop at %g/s", readRate)},
	)
	res.unitNote = fmt.Sprintf("sums over %d set-up builds, the open-loop phase and the bursts", serveBuilds-1)
	return res, nil
}

// serveState is the workload's client side. mirror, churn and failed belong
// to the writer while a load phase runs; rng and live to the reader.
type serveState struct {
	sess    *anytime.Session
	p       *probe
	mirror  *graph.Graph
	churn   *workload.Churn
	rng     *rand.Rand
	live    []graph.ID
	failed  int
	warmOps int
}

// loadResult holds one open-loop phase's samples, in ms.
type loadResult struct {
	writes, reads        int
	visible, query       []float64
	writerLag, readerLag []float64
}

// load runs the writer, the reader and the visibility watcher for d.
func (st *serveState) load(ctx context.Context, d time.Duration, record bool) (*loadResult, error) {
	start := time.Now().Add(time.Millisecond)
	end := start.Add(d)
	base := st.sess.Snapshot().AppliedOps
	maxOps := int(writeRate*d.Seconds()) + 1
	visible := make([]time.Time, maxOps)
	var stamped atomic.Int64
	wctx, stopWatch := context.WithCancel(ctx)
	defer stopWatch()
	var watch sync.WaitGroup
	watch.Add(1)
	go func() {
		defer watch.Done()
		seen := base
		for {
			sn, err := st.sess.WaitFor(wctx, func(sn *anytime.Snapshot) bool { return sn.AppliedOps > seen })
			if err != nil {
				return
			}
			now := time.Now()
			for i := seen; i < sn.AppliedOps && i-base < maxOps; i++ {
				visible[i-base] = now
			}
			seen = sn.AppliedOps
			stamped.Store(int64(seen - base))
		}
	}()

	lr := &loadResult{}
	var dues []time.Time
	var clients sync.WaitGroup
	clients.Add(2)
	go func() {
		defer clients.Done()
		dues = st.write(start, end, maxOps, lr)
	}()
	go func() {
		defer clients.Done()
		st.read(start, end, lr)
	}()
	clients.Wait()
	if err := st.sess.Flush(ctx); err != nil {
		return nil, fmt.Errorf("flush: %w", err)
	}
	for give := time.Now().Add(10 * time.Second); stamped.Load() < int64(len(dues)); {
		if time.Now().After(give) {
			return nil, fmt.Errorf("only %d of %d flushed mutations became visible", stamped.Load(), len(dues))
		}
		time.Sleep(100 * time.Microsecond)
	}
	stopWatch()
	watch.Wait()
	if !record {
		st.warmOps += lr.writes + lr.reads
		return lr, nil
	}
	for k, due := range dues {
		lr.visible = append(lr.visible, float64(visible[k].Sub(due))/float64(time.Millisecond))
	}
	return lr, nil
}

// write enqueues one churn mutation per 1/writeRate from start until end,
// timing from each op's due time, and returns the due times of the ops the
// session accepted, in queue order.
func (st *serveState) write(start, end time.Time, maxOps int, lr *loadResult) []time.Time {
	var dues []time.Time
	for i := 0; i < maxOps; i++ {
		due := start.Add(time.Duration(float64(i) / writeRate * float64(time.Second)))
		if !due.Before(end) {
			break
		}
		sleepUntil(due)
		lr.writerLag = append(lr.writerLag, msSince(due))
		if st.enqueue(int64(i)) {
			dues = append(dues, due)
		}
		lr.writes++
	}
	return dues
}

// enqueue submits the next churn mutation and mirrors it once accepted.
func (st *serveState) enqueue(req int64) bool {
	m := st.churn.Next()
	t := time.Now()
	err := st.sess.Enqueue(m)
	done := time.Now()
	if err != nil {
		st.failed++
		return false
	}
	st.p.add("anytime.Enqueue", layerAnytime, req, t, done)
	st.p.count(func(c *counts) {
		c.opsEnqueued++
		c.enqueueBlockUs = append(c.enqueueBlockUs, float64(done.Sub(t))/float64(time.Microsecond))
	})
	applyMirror(st.mirror, m)
	return true
}

// read issues one top-k query and one distance read per 1/readRate.
func (st *serveState) read(start, end time.Time, lr *loadResult) {
	for q := 0; ; q++ {
		due := start.Add(time.Duration(float64(q) / readRate * float64(time.Second)))
		if !due.Before(end) {
			return
		}
		sleepUntil(due)
		lr.readerLag = append(lr.readerLag, msSince(due))
		u := st.live[st.rng.Intn(len(st.live))]
		v := st.live[st.rng.Intn(len(st.live))]
		t := time.Now()
		top := st.sess.TopK(topK, true)
		t2 := time.Now()
		_ = st.sess.Snapshot().Distance(u, v)
		t3 := time.Now()
		lr.query = append(lr.query, msSince(due))
		lr.reads++
		st.p.add("centrality.TopK", layerCentrality, int64(q), t, t2)
		st.p.add("anytime.Snapshot", layerAnytime, int64(q), t2, t3)
		st.p.count(func(c *counts) {
			c.prunedFrac = append(c.prunedFrac, ratio(float64(top.Pruned), float64(top.Candidates)))
			c.resolvedK = append(c.resolvedK, float64(top.Resolved))
		})
	}
}

// burst enqueues burstOps mutations flat out and flushes, returning the
// time from the first enqueue to Flush's return.
func (st *serveState) burst(ctx context.Context, b int64) (time.Duration, error) {
	start := time.Now()
	for i := 0; i < burstOps; i++ {
		st.enqueue(b*burstOps + int64(i))
	}
	if err := st.sess.Flush(ctx); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// applyMirror applies a churn mutation to the benchmark's own graph.
func applyMirror(g *graph.Graph, m core.Mutation) {
	switch m.Kind {
	case core.MutEdgeAdd:
		for _, e := range m.Edges {
			g.AddEdge(e.U, e.V, e.W)
		}
	case core.MutEdgeDelete, core.MutEdgeDeleteEager:
		for _, pr := range m.Pairs {
			g.RemoveEdge(pr[0], pr[1])
		}
	}
}

func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

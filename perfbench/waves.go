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

// vertex-waves parameters. The base graph keeps about wavesN vertices and
// grows by the extracted communities; its DV matrix is several times the
// 2 MiB per-core L2 of the host the benchmark was sized on.
const (
	wavesN     = 1300
	wavesX     = 180 // vertices extracted as whole Louvain communities
	waveCount  = 6   // waves per analysis, rotating RoundRobin-PS, CutEdge-PS, Repartition-S
	firstWave  = 2   // RC step of the first wave
	waveEvery  = 2   // RC steps between waves
	minAnalyse = 3   // measured analyses a traced half runs at least
)

// waveSchedule is one analysis's input: the base graph, the waves in
// injection order, and the graph every wave applied, with the IDs the engine
// must assign.
type waveSchedule struct {
	base   *graph.Graph
	chunks []*core.VertexBatch
	ids    [][]graph.ID
	mirror *graph.Graph
	added  int
}

// newWaveSchedule extracts the communities and splits them into waves,
// predicting that the engine numbers new vertices after the current ID
// space, as graph.AddVertices does.
func newWaveSchedule(seed int64) (*waveSchedule, error) {
	add, err := workload.ExtractAddition(wavesN, wavesX, seed, gen.Config{})
	if err != nil {
		return nil, err
	}
	ws := &waveSchedule{base: add.Base, mirror: add.Base.Clone(), added: add.Batch.Count}
	inc := workload.NewIncremental(add.Batch, waveCount)
	for chunk := inc.Next(); chunk != nil; chunk = inc.Next() {
		first := ws.mirror.AddVertices(chunk.Count)
		ids := make([]graph.ID, chunk.Count)
		for i := range ids {
			ids[i] = first + graph.ID(i)
		}
		for _, e := range chunk.Internal {
			ws.mirror.AddEdge(ids[e.A], ids[e.B], e.W)
		}
		for _, e := range chunk.External {
			ws.mirror.AddEdge(ids[e.New], e.To, e.W)
		}
		inc.NoteIDs(ids)
		ws.chunks = append(ws.chunks, chunk)
		ws.ids = append(ws.ids, ids)
	}
	return ws, nil
}

// runVertexWaves repeats one analysis over the TCP wire runtime: DD + IA,
// then RC steps with a wave of new vertices injected every waveEvery steps,
// then RC steps to convergence. Analysis 0 is a warm-up. Per-layer metrics
// are given per analysis.
func runVertexWaves(seed int64, p *probe, dur time.Duration) (*result, error) {
	kind, err := runtime.ParseKind("tcp")
	if err != nil {
		return nil, err
	}
	ws, err := newWaveSchedule(datasetSeed)
	if err != nil {
		return nil, err
	}
	opts := p.options(baseOptions(seed, kind))
	res := newResult()
	var setup, conv, apply, steps []float64
	deadline := time.Now().Add(dur)
	for it := 0; ; it++ {
		measured := it > 0
		if measured && time.Now().After(deadline) && (p == nil || it > minAnalyse) {
			break
		}
		p.setOn(measured)
		p.setReq(int64(it) * 100)
		chunks := make([]*core.VertexBatch, len(ws.chunks))
		for i, c := range ws.chunks {
			chunks[i] = c.Clone()
		}
		base := ws.base.Clone()
		goruntime.GC()

		start := time.Now()
		eng, err := newEngine(p, base, opts)
		if err != nil {
			return nil, err
		}
		s := time.Since(start).Seconds()
		c, lat, st, err := analyse(p, eng, ws, chunks, opts, int64(it)*100)
		res.attempted += len(chunks)
		if err == nil && (it == 0 || time.Now().After(deadline)) {
			err = checkDistances(eng.Distances(), ws.mirror)
		}
		res.heapCheck()
		p.addStats(cluster.Stats{}, eng.Stats())
		eng.Close()
		if err != nil {
			return nil, fmt.Errorf("analysis %d: %w", it, err)
		}
		if measured {
			setup = append(setup, s)
			conv = append(conv, c)
			apply = append(apply, lat...)
			steps = append(steps, mean(st))
			res.units = float64(len(conv))
		}
	}
	p.setOn(false)

	res.e2e["setup_s"] = median(setup)
	res.rows = append(res.rows, row{name: "setup_s", value: median(setup), unit: "s", samples: len(setup), note: "setup_s"})
	res.timing("headline_ms", "converge_ms", "ms", 1, conv, 90)
	res.rows = append(res.rows, row{name: "converge_s", value: median(conv) / 1e3, unit: "s", samples: len(conv), note: "headline_ms.p50 in seconds"})
	// The companion is each analysis's mean RC step time: single steps mix
	// the heavy first steps after IA and after each wave with light late
	// ones, and their median moved by 15% between runs.
	res.timing("companion_ms", "step_ms", "ms", 1, steps, 90)
	res.rows = append(res.rows,
		row{name: "wave_apply_ms.p50", value: median(apply), unit: "ms", samples: len(apply), note: "a mixture of three strategies' costs; its median moved by a third between runs"},
		row{name: "wave_apply_ms.p90", value: percentile(apply, 90), unit: "ms", samples: len(apply)})
	res.e2e["throughput_per_s"] = float64(ws.added) / (median(conv) / 1e3)
	res.rows = append(res.rows, row{name: "vertices_absorbed_per_s", value: res.e2e["throughput_per_s"], unit: "1/s", samples: len(conv), note: "throughput_per_s"})
	res.unitNote = fmt.Sprintf("per analysis, mean over %.0f measured analyses", res.units)
	return res, nil
}

// analyse runs one analysis from its first RC step to convergence after
// the last wave, returning that time, each wave's apply latency and each RC
// step's time (ms).
func analyse(p *probe, eng *core.Engine, ws *waveSchedule, chunks []*core.VertexBatch, opts core.Options, req int64) (float64, []float64, []float64, error) {
	rr := &core.RoundRobinPS{}
	ce := &core.CutEdgePS{Partitioner: opts.Partitioner, Seed: opts.Seed}
	lat := make([]float64, 0, len(chunks))
	var steps []float64
	got := make([][]graph.ID, 0, len(chunks))
	start := time.Now()
	wave := 0
	for {
		if wave < len(chunks) && (eng.StepCount() >= firstWave+wave*waveEvery || eng.Converged()) {
			p.setReq(req + int64(wave) + 1)
			h := p.begin("bench.wave", layerBench, kindPlain)
			t := time.Now()
			var ids []graph.ID
			var err error
			switch wave % 3 {
			case 0:
				err = p.apply(eng, "core.ApplyVertexAdditions", func() (e error) {
					ids, e = eng.ApplyVertexAdditions(chunks[wave], rr)
					return e
				})
			case 1:
				err = p.apply(eng, "core.ApplyVertexAdditions", func() (e error) {
					ids, e = eng.ApplyVertexAdditions(chunks[wave], ce)
					return e
				})
			case 2:
				err = p.apply(eng, "core.Repartition", func() error {
					r, e := eng.Repartition(chunks[wave])
					if e == nil {
						ids = r.NewIDs
					}
					return e
				})
			}
			lat = append(lat, msSince(t))
			p.end(h)
			if err != nil {
				return 0, nil, nil, fmt.Errorf("wave %d: %w", wave, err)
			}
			got = append(got, ids)
			wave++
			continue
		}
		if eng.Converged() {
			break
		}
		if eng.StepCount() >= maxSteps {
			return 0, nil, nil, fmt.Errorf("no convergence after %d RC steps", eng.StepCount())
		}
		t := time.Now()
		if _, err := p.step(eng, "core.Step", wave > 0); err != nil {
			return 0, nil, nil, err
		}
		steps = append(steps, msSince(t))
	}
	el := msSince(start)
	for w, ids := range got {
		if fmt.Sprint(ids) != fmt.Sprint(ws.ids[w]) {
			return 0, nil, nil, fmt.Errorf("wave %d: engine assigned IDs %v, mirror expects %v", w, ids, ws.ids[w])
		}
	}
	return el, lat, steps, nil
}

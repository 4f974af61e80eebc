package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd lists the end-to-end metrics every workload reports.
// BENCHMARK.json holds one metric set for all workloads, so each workload
// maps its own operations onto the slots (README.md has the table):
//
//	headline:   the operation the workload exists for
//	companion:  the operation run beside it, so work moved off the headline
//	            path shows up somewhere
//	throughput: updates absorbed per second
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"headline_ms.p50", "ms"},
	{"headline_ms.tail", "ms"},
	{"companion_ms.p50", "ms"},
	{"throughput_per_s", "1/s"},
	{"peak_heap_mb", "MB"},
}

// perLayer lists the traced run's metrics. Each workload reports all of
// them; a layer a workload does not reach reads 0.
var perLayer = []metricDef{
	{"partition.ms", "ms"},
	{"partition.calls", "count"},
	{"core.ia_ms", "ms"},
	{"core.rc.collect_ms", "ms"},
	{"core.rc.exchange_ms", "ms"},
	{"core.rc.install_relax_ms", "ms"},
	{"core.rc.steps", "count"},
	{"core.rc.rows_sent", "count"},
	{"core.rc.rows_changed", "count"},
	{"core.rc.messages", "count"},
	{"core.rc.useful_ratio", "ratio"},
	{"core.dyn.del_apply_ms", "ms"},
	{"core.dyn.add_apply_ms", "ms"},
	{"core.dyn.vertex_apply_ms", "ms"},
	{"core.dyn.repartition_ms", "ms"},
	{"core.dyn.apply_sweep_ms", "ms"},
	{"core.dyn.apply_inner_steps", "count"},
	{"core.dyn.reconverge_steps", "count"},
	{"runtime.exchange_ms.p50", "ms"},
	{"runtime.bytes_sent", "B"},
	{"runtime.exchange_rounds", "count"},
	{"runtime.broadcasts", "count"},
	{"runtime.sim_compute_s", "s"},
	{"runtime.sim_comm_s", "s"},
	{"anytime.engine_apply_ms", "ms"},
	{"anytime.engine_step_ms", "ms"},
	{"anytime.publish_copy_ms", "ms"},
	{"anytime.batches", "count"},
	{"anytime.coalesce_ratio", "ratio"},
	{"anytime.epochs", "count"},
	{"anytime.enqueue_block_us.p99", "us"},
	{"centrality.topk_pruned_fraction", "ratio"},
	{"centrality.topk_resolved_k", "count"},
	{"load.writer_lag_ms.p99", "ms"},
	{"load.reader_lag_ms.p99", "ms"},
	{"self.bench_ms", "ms"},
	{"self.partition_ms", "ms"},
	{"self.core_ms", "ms"},
	{"self.runtime_ms", "ms"},
	{"self.anytime_ms", "ms"},
	{"self.centrality_ms", "ms"},
	{"trace_overhead.setup_s", "s"},
	{"trace_overhead.headline_ms.p50", "ms"},
	{"trace_overhead.headline_ms.tail", "ms"},
	{"trace_overhead.companion_ms.p50", "ms"},
	{"trace_overhead.throughput_per_s", "1/s"},
}

// row is one line of the human-readable table: a metric under the name the
// workload gives it, with the number of samples behind it.
type row struct {
	name    string
	value   float64
	unit    string
	samples int
	note    string
}

// result is what one workload run measured.
type result struct {
	e2e       map[string]float64
	rows      []row
	attempted int
	failed    int
	// units divides the per-layer totals: 1, or the number of analyses
	// when per-layer metrics are given per analysis.
	units      float64
	unitNote   string
	writerLag  []float64 // ms, open-loop writer
	readerLag  []float64 // ms, open-loop reader
	layer      map[string]float64
	layerNotes []string
}

func newResult() *result {
	return &result{e2e: make(map[string]float64), units: 1}
}

// timing reports a latency sample set into an end-to-end slot (as ms) and
// under the workload's own name (in unit, scaled from ms by scale). tail is
// the slot's fixed tail percentile; the note records which percentile the
// tail rule supports at this sample count. BENCHMARK.json bounds only the
// headline's tail: the companions' tails moved by a third between runs as
// the host's speed drifted.
func (r *result) timing(slot, name, unit string, scale float64, ms []float64, tail float64) {
	r.e2e[slot+".p50"] = median(ms)
	r.e2e[slot+".tail"] = percentile(ms, tail)
	n := len(ms)
	note := fmt.Sprintf("highest percentile with >=%d samples beyond: %s", minBeyond, pctName(tailRule(n)))
	if slot == "headline_ms" {
		note = "headline_ms.tail; " + note
	}
	r.rows = append(r.rows,
		row{name: name + ".p50", value: median(ms) * scale, unit: unit, samples: n, note: slot + ".p50"},
		row{name: fmt.Sprintf("%s.%s", name, pctName(tail)), value: percentile(ms, tail) * scale, unit: unit, samples: n, note: note},
	)
}

func pctName(p float64) string {
	if p == 0 {
		return "none"
	}
	return fmt.Sprintf("p%g", p)
}

// layerMetrics derives the per-layer metrics of a traced run. untraced is
// the same workload run without decorators in the same invocation; the
// difference of the two gives the tracing overhead.
func layerMetrics(p *probe, traced, untraced *result) map[string]float64 {
	spans := p.tr.snapshot()
	u := traced.units
	byName := make(map[string][]float64)
	for i := range spans {
		byName[spans[i].Name] = append(byName[spans[i].Name], float64(spans[i].dur())/1e6)
	}
	ms := func(name string) float64 { return sum(byName[name]) / u }
	c := p.c
	m := map[string]float64{
		"partition.ms":                    ms("partition.Partition"),
		"partition.calls":                 float64(len(byName["partition.Partition"])) / u,
		"core.ia_ms":                      ms("core.ia"),
		"core.rc.collect_ms":              ms("core.rc.collect"),
		"core.rc.exchange_ms":             ms("runtime.Exchange"),
		"core.rc.install_relax_ms":        ms("core.rc.install_relax"),
		"core.rc.steps":                   float64(c.steps) / u,
		"core.rc.rows_sent":               float64(c.rowsSent) / u,
		"core.rc.rows_changed":            float64(c.rowsChanged) / u,
		"core.rc.messages":                float64(c.messages) / u,
		"core.rc.useful_ratio":            ratio(float64(c.rowsChanged), float64(c.rowsSent)),
		"core.dyn.del_apply_ms":           ms("core.ApplyEdgeDeletions"),
		"core.dyn.add_apply_ms":           ms("core.ApplyEdgeAdditions"),
		"core.dyn.vertex_apply_ms":        ms("core.ApplyVertexAdditions"),
		"core.dyn.repartition_ms":         ms("core.Repartition"),
		"core.dyn.apply_sweep_ms":         ms("core.dyn.sweep"),
		"core.dyn.apply_inner_steps":      float64(c.innerRounds) / u,
		"core.dyn.reconverge_steps":       float64(c.reconvSteps) / u,
		"runtime.exchange_ms.p50":         zeroNaN(median(byName["runtime.Exchange"])),
		"runtime.bytes_sent":              float64(c.stats.BytesSent) / u,
		"runtime.exchange_rounds":         float64(c.stats.ExchangeRounds) / u,
		"runtime.broadcasts":              float64(c.stats.Broadcasts) / u,
		"runtime.sim_compute_s":           c.stats.SimCompute.Seconds() / u,
		"runtime.sim_comm_s":              c.stats.SimComm.Seconds() / u,
		"anytime.engine_apply_ms":         ms("anytime.engine.ApplyBatch"),
		"anytime.engine_step_ms":          ms("anytime.engine.Step"),
		"anytime.publish_copy_ms":         ms("anytime.engine.Distances"),
		"anytime.batches":                 float64(c.batches) / u,
		"anytime.coalesce_ratio":          ratio(float64(c.opsToEngine), float64(c.opsEnqueued)),
		"anytime.epochs":                  float64(c.epochs) / u,
		"anytime.enqueue_block_us.p99":    zeroNaN(percentile(c.enqueueBlockUs, 99)),
		"centrality.topk_pruned_fraction": zeroNaN(mean(c.prunedFrac)),
		"centrality.topk_resolved_k":      zeroNaN(mean(c.resolvedK)),
		"load.writer_lag_ms.p99":          zeroNaN(percentile(untraced.writerLag, 99)),
		"load.reader_lag_ms.p99":          zeroNaN(percentile(untraced.readerLag, 99)),
	}
	self := selfTime(spans)
	for _, l := range layers {
		m["self."+l+"_ms"] = float64(self[l]) / float64(time.Millisecond) / u
	}
	for _, d := range endToEnd {
		if d.name == "peak_heap_mb" {
			continue // one process holds both runs' heaps
		}
		m["trace_overhead."+d.name] = traced.e2e[d.name] - untraced.e2e[d.name]
	}
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sum(xs) / float64(len(xs))
}

func zeroNaN(x float64) float64 {
	if math.IsNaN(x) {
		return 0
	}
	return x
}

// output is the last line of standard output.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints the table and then the result line: every end-to-end metric
// for an untraced run, every per-layer metric for a traced one.
func emit(w io.Writer, workload string, traced bool, r *result) error {
	fmt.Fprintf(w, "workload %s: %d ops attempted, %d failed, failed_ops_ratio %g\n",
		workload, r.attempted, r.failed, ratio(float64(r.failed), float64(r.attempted)))
	for _, x := range r.rows {
		fmt.Fprintf(w, "  %-34s %14.4f %-6s n=%-6d %s\n", x.name, x.value, x.unit, x.samples, x.note)
	}
	defs, vals := endToEnd, r.e2e
	if traced {
		defs, vals = perLayer, r.layer
		fmt.Fprintf(w, "per-layer metrics (%s):\n", r.unitNote)
		for _, n := range r.layerNotes {
			fmt.Fprintf(w, "  %s\n", n)
		}
	} else {
		fmt.Fprintln(w, "end-to-end metrics:")
	}
	out := output{Correct: true, Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metric, len(defs))}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		out.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", d.name, v, d.unit)
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

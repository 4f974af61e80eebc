// Command perfbench is the repository's benchmark. It runs one named
// workload from a seed, checks the program's outputs against a Dijkstra
// oracle, and prints every metric by name with its unit and sample count;
// the last line of standard output is a JSON result.
//
//	perfbench --workload edge-dynamic --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics with no decorators installed.
// --trace 1 runs the workload twice, half the time each: untraced, then
// with span-recording decorators on the program's public seams. It prints
// the per-layer metrics, each layer's self time and the tracing overhead
// (traced end-to-end numbers minus untraced ones), and writes the spans as
// JSON lines under --out. README.md describes the workloads and metrics.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(seed int64, p *probe, dur time.Duration) (*result, error){
	"edge-dynamic": runEdgeDynamic,
	"vertex-waves": runVertexWaves,
	"serve-ingest": runServeIngest,
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload: edge-dynamic, vertex-waves or serve-ingest")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 20, "measured time per run")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	out := flag.String("out", ".", "directory the traced run writes its spans to")
	flag.Parse()
	drive, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
	}
	dur := time.Duration(*seconds * float64(time.Second))
	measure := func(p *probe, d time.Duration) (*result, error) {
		res, err := drive(*seed, p, d)
		if err != nil {
			return nil, err
		}
		res.rows = append(res.rows, row{name: "peak_heap_mb", value: res.e2e["peak_heap_mb"], unit: "MB", samples: 1,
			note: "largest live heap after a full collection at the workload's checkpoints"})
		return res, nil
	}
	if *trace == 0 {
		res, err := measure(nil, dur)
		if err != nil {
			return err
		}
		return emit(os.Stdout, *name, false, res)
	}

	untraced, err := measure(nil, dur/2)
	if err != nil {
		return fmt.Errorf("untraced half: %w", err)
	}
	p := newProbe()
	res, err := measure(p, dur/2)
	if err != nil {
		return fmt.Errorf("traced half: %w", err)
	}
	res.layer = layerMetrics(p, res, untraced)
	res.rows = untraced.rows // end-to-end figures come from the untraced half
	path := filepath.Join(*out, fmt.Sprintf("spans-%s-seed%d.jsonl", *name, *seed))
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	if err := writeJSONL(path, p.tr.snapshot()); err != nil {
		return err
	}
	res.layerNotes = append(res.layerNotes, "spans written to "+path)
	res.attempted += untraced.attempted
	res.failed += untraced.failed
	return emit(os.Stdout, *name, true, res)
}

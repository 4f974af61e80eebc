package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"aacc/internal/centrality"
	"aacc/internal/cluster"
	"aacc/internal/gen"
	"aacc/internal/graph"
	"aacc/internal/logp"
	"aacc/internal/runtime"
	"aacc/internal/sssp"
)

func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90},
		{199, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9},
	} {
		if got := tailRule(c.n); got != c.want {
			t.Errorf("tailRule(%d) = p%g, want p%g", c.n, got, c.want)
		}
		if p := tailRule(c.n); p > 0 && beyond(c.n, p) < minBeyond {
			t.Errorf("tailRule(%d) = p%g leaves only %d samples beyond", c.n, p, beyond(c.n, p))
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6}} {
		if got := percentile(xs, c.p); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("percentile(p%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "a", Layer: layerCore, Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "b", Layer: layerRuntime, Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "c", Layer: layerPartition, Start: 20, End: 50}, // overlaps b
		{ID: 4, Parent: 2, Name: "d", Layer: layerCore, Start: 15, End: 25},
		{ID: 5, Parent: 1, Name: "e", Layer: layerBench, Start: 90, End: 120}, // runs past its parent
		{ID: 6, Name: "f", Layer: layerCentrality, Start: 200, End: 210},
	}
	got := selfTime(spans)
	want := map[string]time.Duration{
		layerCore:       (100 - 40 - 10) + 10, // a minus [10,50] and [90,100]; d
		layerRuntime:    20 - 10,
		layerPartition:  30,
		layerBench:      30,
		layerCentrality: 10,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTime = %v, want %v", got, want)
	}
}

func TestStepPhaseLabels(t *testing.T) {
	tr := newTracer()
	tr.setOn(true)
	r := &tracedRuntime{Runtime: runtime.NewSim(2, logp.GigabitCluster(2)), tr: tr}
	tr.register(r, true)
	noop := func(int) {}
	exchange := func() {
		if _, err := r.Exchange(make([][]*cluster.Mail, 2)); err != nil {
			t.Fatal(err)
		}
	}

	h := tr.begin("core.New", layerCore, kindNew)
	r.Parallel(noop) // IA
	tr.end(h)
	h = tr.begin("core.Step", layerCore, kindPlain)
	r.Parallel(noop) // collect
	exchange()
	r.Parallel(noop) // install-relax
	tr.end(h)
	h = tr.begin("core.ApplyEdgeDeletions", layerCore, kindApply)
	r.Broadcast(0, &cluster.Mail{})
	r.Parallel(noop) // sweep
	r.Parallel(noop) // sweep
	r.Parallel(noop) // collect of a step run inside the apply
	exchange()
	r.Parallel(noop) // its install-relax
	tr.end(h)
	r.Parallel(noop) // outside any span
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	var got []string
	parents := map[string]int64{}
	for _, s := range tr.snapshot() {
		got = append(got, s.Name)
		parents[s.Name] = s.Parent
	}
	sort.Strings(got)
	want := []string{
		"core.ApplyEdgeDeletions", "core.New", "core.Step",
		"core.dyn.sweep", "core.dyn.sweep", "core.ia", "core.parallel",
		"core.rc.collect", "core.rc.collect", "core.rc.install_relax", "core.rc.install_relax",
		"runtime.Broadcast", "runtime.Exchange", "runtime.Exchange",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("labels = %v\nwant %v", got, want)
	}
	if parents["core.ia"] != 1 || parents["core.parallel"] != 0 {
		t.Errorf("parents: core.ia under %d, core.parallel under %d; want 1 and 0", parents["core.ia"], parents["core.parallel"])
	}
}

func TestOracleRejectsCorruptRow(t *testing.T) {
	g := gen.BarabasiAlbert(40, 2, 7, gen.Config{MaxWeight: 3})
	dist := sssp.APSP(g, 1)
	if err := checkDistances(dist, g); err != nil {
		t.Fatalf("exact distances rejected: %v", err)
	}
	bad := make(map[graph.ID][]int32, len(dist))
	for v, row := range dist {
		bad[v] = append([]int32(nil), row...)
	}
	bad[3][17]++
	if err := checkDistances(bad, g); err == nil {
		t.Error("a corrupted distance entry passed the oracle")
	}
	delete(dist, 5)
	if err := checkDistances(dist, g); err == nil {
		t.Error("a missing distance row passed the oracle")
	}
}

func TestTopKOracle(t *testing.T) {
	g := gen.BarabasiAlbert(40, 2, 7, gen.Config{})
	exact := centrality.Exact(g, 1)
	ids := centrality.TopK(exact, exact.Harmonic, 5)
	res := centrality.TopKResult{Harmonic: true}
	for _, v := range ids {
		res.Entries = append(res.Entries, centrality.TopKEntry{V: v})
	}
	if err := checkTopK(res, g, 5); err != nil {
		t.Fatalf("exact ranking rejected: %v", err)
	}
	res.Entries[1], res.Entries[2] = res.Entries[2], res.Entries[1]
	if err := checkTopK(res, g, 5); err == nil {
		t.Error("a reordered ranking passed the oracle")
	}
}

// TestBenchmarkJSON keeps the metric and workload names the benchmark
// prints in step with the BENCHMARK.json at the repository root.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v; the benchmark has %d", names, len(workloads))
	}
	same := func(kind string, listed []struct{ Name, Unit string }, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark prints %d", kind, len(listed), len(defs))
			return
		}
		for i, d := range defs {
			if listed[i].Name != d.name || listed[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s [%s], the benchmark prints %s [%s]", kind, i, listed[i].Name, listed[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

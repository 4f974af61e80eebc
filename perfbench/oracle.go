package main

import (
	"fmt"

	"aacc/internal/centrality"
	"aacc/internal/graph"
	"aacc/internal/sssp"
)

// checkDistances compares converged distance rows against sssp.Dijkstra on
// the benchmark's own mirror of the graph: every live vertex must have a
// row, and every entry towards a live vertex must match.
func checkDistances(dist map[graph.ID][]int32, mirror *graph.Graph) error {
	live := mirror.Vertices()
	if len(dist) != len(live) {
		return fmt.Errorf("oracle: %d distance rows for %d live vertices", len(dist), len(live))
	}
	for _, v := range live {
		got := dist[v]
		if got == nil {
			return fmt.Errorf("oracle: no distance row for vertex %d", v)
		}
		want := sssp.Dijkstra(mirror, v)
		for _, u := range live {
			if int(u) >= len(got) || got[u] != want[u] {
				g := "missing"
				if int(u) < len(got) {
					g = fmt.Sprint(got[u])
				}
				return fmt.Errorf("oracle: d(%d,%d) = %s, Dijkstra says %d", v, u, g, want[u])
			}
		}
	}
	return nil
}

// checkTopK compares a served top-k ranking against centrality.TopK over
// centrality.Exact on the mirror.
func checkTopK(got centrality.TopKResult, mirror *graph.Graph, k int) error {
	exact := centrality.Exact(mirror, 1)
	vals := exact.Classic
	if got.Harmonic {
		vals = exact.Harmonic
	}
	want := centrality.TopK(exact, vals, k)
	if len(got.Entries) != len(want) {
		return fmt.Errorf("oracle: top-%d served %d entries, exact ranking has %d", k, len(got.Entries), len(want))
	}
	for i, e := range got.Entries {
		if e.V != want[i] {
			return fmt.Errorf("oracle: top-%d rank %d is vertex %d, exact ranking says %d", k, i, e.V, want[i])
		}
	}
	return nil
}

package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"aacc/internal/cluster"
	"aacc/internal/dv"
	"aacc/internal/gen"
	"aacc/internal/graph"
	"aacc/internal/sssp"
)

// supportedRef is the plain deletion test without the prefilter: entry
// (x,t) may be supported through deleted edge ed iff one of the two bounds
// fires on the exact pre-deletion distances.
func supportedRef(pre map[graph.ID][]int32, x graph.ID, t int, ed graph.EdgeTriple) bool {
	row := pre[x]
	if row[t] == dv.Inf || graph.ID(t) == x {
		return false
	}
	through := func(near, far graph.ID) bool {
		if row[near] == dv.Inf || pre[far][t] == dv.Inf {
			return false
		}
		return int64(row[t]) >= int64(row[near])+int64(ed.W)+int64(pre[far][t])
	}
	return through(ed.U, ed.V) || through(ed.V, ed.U)
}

// TestDeletionPrefilterExact: on exact distances the O(1) prefilter is not
// a heuristic. invalidateThroughEdge invalidates at least one entry of row
// x iff |d(x,u) − d(x,v)| = w, and it invalidates exactly the entries the
// unfiltered two-bound test does.
func TestDeletionPrefilterExact(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		g := gen.BarabasiAlbert(60, 2, seed, gen.Config{MaxWeight: 4})
		if seed%2 == 0 {
			// Sparse random graphs leave some pairs unreachable.
			g = gen.ErdosRenyiM(60, 70, seed, gen.Config{MaxWeight: 4})
		}
		pre := sssp.APSP(g, 0)
		fired, filtered := 0, 0
		for _, ed := range g.Edges() {
			for _, x := range g.Vertices() {
				row := pre[x]
				holes, skip := invalidateThroughEdge(row, x, ed, pre[ed.U], pre[ed.V], true, nil)
				plain, _ := invalidateThroughEdge(row, x, ed, pre[ed.U], pre[ed.V], false, nil)
				plain = dedupCols(plain)
				if !slices.Equal(holes, plain) {
					t.Fatalf("seed %d edge %v row %d: prefiltered holes %v, plain test %v", seed, ed, x, holes, plain)
				}
				var want []int32
				for c := range row {
					if supportedRef(pre, x, c, ed) {
						want = append(want, int32(c))
					}
				}
				if !slices.Equal(holes, want) {
					t.Fatalf("seed %d edge %v row %d: holes %v, reference %v", seed, ed, x, holes, want)
				}
				du, dvv := row[ed.U], row[ed.V]
				onPath := du != dv.Inf && dvv != dv.Inf && (du-dvv == ed.W || dvv-du == ed.W)
				if (len(holes) > 0) != onPath {
					t.Fatalf("seed %d edge %v row %d: %d holes with d(x,u)=%d d(x,v)=%d", seed, ed, x, len(holes), du, dvv)
				}
				if skip != (du != dv.Inf && dvv != dv.Inf && !onPath) {
					t.Fatalf("seed %d edge %v row %d: filtered=%v with d(x,u)=%d d(x,v)=%d", seed, ed, x, skip, du, dvv)
				}
				if onPath {
					fired++
				}
				if skip {
					filtered++
				}
			}
		}
		if fired == 0 || filtered == 0 {
			t.Fatalf("seed %d: degenerate case mix: %d pairs fired, %d filtered", seed, fired, filtered)
		}
	}
}

// TestDeletionKeepsNonHolesExact pins the premise of the hole-only reseed:
// right after ApplyEdgeDeletions, before any Step, every finite entry of
// every local row and held snapshot is an upper bound on the post-deletion
// distance, and every entry the deletion test does not punch already equals
// it — so only the holes can change, and scanning only them is exact.
func TestDeletionKeepsNonHolesExact(t *testing.T) {
	for _, p := range []int{1, 3, 8} {
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("P=%d/workers=%d", p, workers), func(t *testing.T) {
				g := gen.BarabasiAlbert(90, 2, int64(10*p+workers), gen.Config{MaxWeight: 4})
				e, err := New(g, Options{P: p, Seed: 3, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				mustRun(t, e)
				pre := sssp.APSP(e.Graph(), 0)
				rng := rand.New(rand.NewSource(int64(p*workers) + 5))
				edges := e.Graph().Edges()
				var batch []graph.EdgeTriple
				var pairs [][2]graph.ID
				for _, i := range rng.Perm(len(edges))[:6] {
					batch = append(batch, edges[i])
					pairs = append(pairs, [2]graph.ID{edges[i].U, edges[i].V})
				}
				if err := e.ApplyEdgeDeletions(pairs); err != nil {
					t.Fatal(err)
				}
				post := sssp.APSP(e.Graph(), 0)
				punched := func(x graph.ID, c int) bool {
					for _, ed := range batch {
						if supportedRef(pre, x, c, ed) {
							return true
						}
					}
					return false
				}
				check := func(what string, x graph.ID, row []int32) {
					for c, d := range row {
						if d != dv.Inf && d < post[x][c] {
							t.Fatalf("%s %d: d(%d,%d) = %d below the post-deletion distance %d", what, x, x, c, d, post[x][c])
						}
						if !punched(x, c) && d != post[x][c] {
							t.Fatalf("%s %d: unpunched d(%d,%d) = %d, post-deletion distance %d", what, x, x, c, d, post[x][c])
						}
					}
				}
				for x, row := range e.Distances() {
					check("row", x, row)
				}
				for _, pr := range e.procs {
					for s, row := range pr.ext {
						check("snapshot", s, row)
					}
				}
				mustRun(t, e)
				checkExact(t, e)
			})
		}
	}
}

// TestDeletionPunchedSnapshotLifetime covers the receiver's record of the
// snapshots its deletion sweep punched: whatever runs between the sweep and
// the first RC step — an addition batch, a second deletion, Repartition-S,
// an eager deletion — the analysis converges to the Dijkstra oracle, and
// every record is consumed by a refresh or cleared with its snapshot.
func TestDeletionPunchedSnapshotLifetime(t *testing.T) {
	follow := []struct {
		name string
		op   func(e *Engine, rng *rand.Rand) error
	}{
		{"addition", func(e *Engine, rng *rand.Rand) error {
			var adds []graph.EdgeTriple
			for len(adds) < 4 {
				u := graph.ID(rng.Intn(e.Graph().NumIDs()))
				v := graph.ID(rng.Intn(e.Graph().NumIDs()))
				if u != v {
					adds = append(adds, graph.EdgeTriple{U: u, V: v, W: 1 + rng.Int31n(4)})
				}
			}
			return e.ApplyEdgeAdditions(adds)
		}},
		{"deletion", func(e *Engine, rng *rand.Rand) error {
			return e.ApplyEdgeDeletions(randomPairs(e, rng, 3))
		}},
		{"repartition", func(e *Engine, rng *rand.Rand) error {
			_, err := e.Repartition(nil)
			return err
		}},
		{"eager", func(e *Engine, rng *rand.Rand) error {
			return e.ApplyEdgeDeletionsEager(randomPairs(e, rng, 3))
		}},
	}
	for _, f := range follow {
		name, op := f.name, f.op
		for _, p := range []int{3, 8} {
			for _, workers := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/P=%d/workers=%d", name, p, workers), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(len(name)*100 + p*10 + workers)))
					g := gen.BarabasiAlbert(100, 2, rng.Int63(), gen.Config{MaxWeight: 4})
					e, err := New(g, Options{P: p, Seed: 11, Workers: workers})
					if err != nil {
						t.Fatal(err)
					}
					for round := 0; round < 3; round++ {
						mustRun(t, e)
						if err := e.ApplyEdgeDeletions(randomPairs(e, rng, 5)); err != nil {
							t.Fatal(err)
						}
						records := 0
						for _, pr := range e.procs {
							records += pr.punched.Len()
						}
						if records == 0 {
							t.Fatal("the deletion sweep punched no snapshot")
						}
						if err := op(e, rng); err != nil {
							t.Fatal(err)
						}
						mustRun(t, e)
						checkExact(t, e)
						for q, pr := range e.procs {
							for _, s := range pr.punched.Dense() {
								if _, held := pr.ext[s]; !held {
									t.Fatalf("processor %d keeps a punched record for dropped snapshot %d", q, s)
								}
								if name != "eager" {
									t.Fatalf("processor %d still has snapshot %d punched after convergence", q, s)
								}
							}
						}
					}
				})
			}
		}
	}
}

// eventLog is a Tracer that keeps the dynamic-operation events.
type eventLog struct{ events []string }

func (l *eventLog) StepDone(StepReport, cluster.Stats) {}
func (l *eventLog) Event(kind, details string)         { l.events = append(l.events, kind+": "+details) }

// TestDeletionTraceEventCounts: the edge-delete event says how narrow the
// sweep was — rows and snapshots hit, entries invalidated, (row, edge)
// pairs the prefilter skipped — and the counts agree with each other.
func TestDeletionTraceEventCounts(t *testing.T) {
	log := &eventLog{}
	g := gen.BarabasiAlbert(120, 2, 4, gen.Config{MaxWeight: 3})
	e, err := New(g, Options{P: 4, Seed: 9, Workers: 2, Tracer: log})
	if err != nil {
		t.Fatal(err)
	}
	mustRun(t, e)
	if err := e.ApplyEdgeDeletions(randomPairs(e, rand.New(rand.NewSource(1)), 4)); err != nil {
		t.Fatal(err)
	}
	var edges, rows, snaps, entries, filtered int
	var ok bool
	for _, ev := range log.events {
		if _, err := fmt.Sscanf(ev, "edge-delete: %d edges removed (barrier mode): %d rows and %d snapshots hit, %d entries invalidated, %d row-edge pairs prefiltered",
			&edges, &rows, &snaps, &entries, &filtered); err == nil {
			ok = true
		}
	}
	if !ok {
		t.Fatalf("no barrier edge-delete event with sweep counts in %q", log.events)
	}
	if edges != 4 || rows == 0 || snaps == 0 || filtered == 0 || entries < rows+snaps {
		t.Fatalf("edge-delete counts: %d edges, %d rows, %d snapshots, %d entries, %d prefiltered", edges, rows, snaps, entries, filtered)
	}
}

// randomPairs picks k distinct live edges.
func randomPairs(e *Engine, rng *rand.Rand, k int) [][2]graph.ID {
	edges := e.Graph().Edges()
	var pairs [][2]graph.ID
	for _, i := range rng.Perm(len(edges))[:min(k, len(edges))] {
		pairs = append(pairs, [2]graph.ID{edges[i].U, edges[i].V})
	}
	return pairs
}

// TestDeletionListsFreedOnDrain: the column lists a deletion fills — a
// punched snapshot's refresh diff, a hit row's holes — are freed when
// drained, so the pooled entries holding them do not pin their largest
// list; every other list keeps its backing array for reuse.
func TestDeletionListsFreedOnDrain(t *testing.T) {
	const width = 600
	cols := make([]int32, width/colCap-1)
	for i := range cols {
		cols[i] = int32(i)
	}
	p := &extPending{}
	st := &rowState{sendFull: true} // sendCols untouched: only srcCols counts
	for _, c := range []struct {
		name      string
		fillDrain func()
		freed     bool
	}{
		{"pending", func() { p.note(width, cols); p.drain() }, false},
		{"pending diff", func() { p.note(width, cols); p.diff = true; p.drain() }, true},
		{"source", func() { st.noteCols(width, cols); st.drainSrc() }, false},
		{"source holes", func() { st.noteCols(width, cols); st.srcHoles = true; st.drainSrc() }, true},
	} {
		allocs := testing.AllocsPerRun(10, c.fillDrain)
		if got := allocs > 0; got != c.freed {
			t.Errorf("%s: %.1f allocations per fill and drain, want freed = %v", c.name, allocs, c.freed)
		}
	}
	if p.full || p.diff || st.srcFull || st.srcHoles {
		t.Fatal("drain left a flag set")
	}
}

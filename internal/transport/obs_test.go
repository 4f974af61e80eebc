package transport

import (
	"strconv"
	"testing"

	"aacc/internal/obs"
)

// TestTCPLoopbackObsCounters: every round counts exactly once (not once per
// endpoint), and a torn-down mesh surfaces as per-peer failure counters
// plus a round-failure count — the wire-level signal a live /metrics scrape
// uses to spot a flaky peer.
func TestTCPLoopbackObsCounters(t *testing.T) {
	const n = 3
	mesh, err := NewLoopback(n, Config{})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	mesh.SetObs(reg)

	frames := make([][][]byte, n)
	for i := range frames {
		frames[i] = make([][]byte, n)
	}
	frames[0][1] = []byte("hello")
	for seq := uint32(1); seq <= 3; seq++ {
		if _, err := mesh.RoundTrip(seq, frames); err != nil {
			t.Fatal(err)
		}
		if got := reg.Counter("aacc_transport_wire_rounds_total", "").Value(); got != float64(seq) {
			t.Fatalf("rounds_total = %v after %d rounds", got, seq)
		}
	}
	if got := reg.Counter("aacc_transport_wire_round_failures_total", "").Value(); got != 0 {
		t.Fatalf("round_failures_total = %v after clean rounds", got)
	}

	if err := mesh.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := mesh.RoundTrip(4, frames); err == nil {
		t.Fatal("RoundTrip on a closed mesh succeeded")
	}
	if got := reg.Counter("aacc_transport_wire_round_failures_total", "").Value(); got != 1 {
		t.Fatalf("round_failures_total = %v after a failed round, want 1", got)
	}
	var peerFails float64
	for i, m := range mesh.meshes {
		peerFails += reg.Counter("aacc_transport_peer_failures_total", "",
			obs.L("peer", strconv.Itoa(i)), obs.L("addr", m.Addr())).Value()
	}
	if peerFails == 0 {
		t.Fatal("no per-peer failure attributed for a failed round")
	}
}

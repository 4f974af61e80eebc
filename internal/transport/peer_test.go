package transport

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// buildPeerMeshes starts n workers' mesh endpoints on ephemeral loopback
// ports with the processors split contiguously across them. A zero cfg
// selects a 5s round timeout.
func buildPeerMeshes(t *testing.T, n, p int, cfg Config) []*PeerMesh {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = l
		addrs[i] = l.Addr().String()
	}
	owner := make([]int, p)
	for i := range owner {
		owner[i] = i * n / p
	}
	if cfg == (Config{}) {
		cfg.RoundTimeout = 5 * time.Second
	}
	meshes := make([]*PeerMesh, n)
	for i := range meshes {
		m, err := NewPeerMesh(lns[i], PeerConfig{
			Self: i, Addrs: addrs, Owner: owner, Config: cfg,
		})
		if err != nil {
			t.Fatal(err)
		}
		meshes[i] = m
		t.Cleanup(func() { m.Close() })
	}
	return meshes
}

// runPeerRound drives one collective round on every mesh concurrently and
// returns each worker's result matrix.
func runPeerRound(t *testing.T, meshes []*PeerMesh, seq uint32, frames [][][]byte) [][][][]byte {
	t.Helper()
	in := make([][][][]byte, len(meshes))
	errs := make([]error, len(meshes))
	var wg sync.WaitGroup
	for i, m := range meshes {
		wg.Add(1)
		go func(i int, m *PeerMesh) {
			defer wg.Done()
			in[i], errs[i] = m.RoundTrip(seq, frames)
		}(i, m)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d round %d: %v", i, seq, err)
		}
	}
	return in
}

// TestPeerMeshRoundTrip checks that a full processor matrix is delivered
// across two real processes' worth of mesh endpoints: every resident dst
// cell arrives exactly as sent, local pairs included.
func TestPeerMeshRoundTrip(t *testing.T) {
	const n, p = 2, 4
	meshes := buildPeerMeshes(t, n, p, Config{})
	frames := make([][][]byte, p)
	for src := range frames {
		frames[src] = make([][]byte, p)
		for dst := range frames[src] {
			if src != dst {
				frames[src][dst] = []byte(fmt.Sprintf("m%d>%d", src, dst))
			}
		}
	}
	in := runPeerRound(t, meshes, 1, frames)
	for w, m := range meshes {
		for dst := 0; dst < p; dst++ {
			for src := 0; src < p; src++ {
				var want []byte
				if m.owner[dst] == w && src != dst {
					want = frames[src][dst]
				}
				if !bytes.Equal(in[w][dst][src], want) {
					t.Errorf("worker %d in[%d][%d] = %q, want %q", w, dst, src, in[w][dst][src], want)
				}
			}
		}
	}
	// A second round on the same connections.
	in = runPeerRound(t, meshes, 2, frames)
	if got := in[1][3][0]; !bytes.Equal(got, frames[0][3]) {
		t.Errorf("round 2: worker 1 in[3][0] = %q", got)
	}
}

// TestPeerMeshAllGather checks the worker-level collective: every worker
// ends up with every worker's payload at its index.
func TestPeerMeshAllGather(t *testing.T) {
	const n = 3
	meshes := buildPeerMeshes(t, n, 6, Config{})
	outs := make([][][]byte, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i, m := range meshes {
		wg.Add(1)
		go func(i int, m *PeerMesh) {
			defer wg.Done()
			outs[i], errs[i] = m.AllGather(7, []byte(fmt.Sprintf("w%d", i)))
		}(i, m)
	}
	wg.Wait()
	for i := range meshes {
		if errs[i] != nil {
			t.Fatalf("worker %d: %v", i, errs[i])
		}
		for w := 0; w < n; w++ {
			if want := fmt.Sprintf("w%d", w); string(outs[i][w]) != want {
				t.Errorf("worker %d gathered[%d] = %q, want %q", i, w, outs[i][w], want)
			}
		}
	}
}

// TestPeerMeshRejoin kills worker 1's mesh endpoint mid-life and rebuilds it
// on the same address: the next round (with a fresh seq) must succeed after
// the survivor's redial and the restarted worker's re-accept.
func TestPeerMeshRejoin(t *testing.T) {
	const n, p = 2, 4
	meshes := buildPeerMeshes(t, n, p, Config{})
	frames := make([][][]byte, p)
	for src := range frames {
		frames[src] = make([][]byte, p)
		for dst := range frames[src] {
			if src != dst {
				frames[src][dst] = []byte{byte(src), byte(dst)}
			}
		}
	}
	runPeerRound(t, meshes, 1, frames)

	// Crash worker 1 and restart it on the same address.
	addr := meshes[1].Addr()
	meshes[1].Close()
	var ln net.Listener
	deadline := time.Now().Add(5 * time.Second)
	for {
		var err error
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebind %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	m1, err := NewPeerMesh(ln, PeerConfig{
		Self: 1, Addrs: []string{meshes[0].addrs[0], addr}, Owner: meshes[1].owner,
		Config: Config{RoundTimeout: 5 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m1.Close() })
	meshes[1] = m1

	in := runPeerRound(t, meshes, 2, frames)
	if got := in[0][0][2]; !bytes.Equal(got, frames[2][0]) {
		t.Errorf("post-rejoin: worker 0 in[0][2] = %v, want %v", got, frames[2][0])
	}
	if got := in[1][2][0]; !bytes.Equal(got, frames[0][2]) {
		t.Errorf("post-rejoin: worker 1 in[2][0] = %v, want %v", got, frames[0][2])
	}
}

// TestPeerMeshVersionMismatch dials a mesh endpoint with a hello from a
// different protocol revision: the acceptor must reject it with the
// bad-version ack (carrying its own version) instead of admitting the peer.
func TestPeerMeshVersionMismatch(t *testing.T) {
	meshes := buildPeerMeshes(t, 2, 2, Config{})
	conn, err := net.Dial("tcp", meshes[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var hello [helloLen]byte
	putHello(hello[:], 1)
	hello[4] = ProtocolVersion + 9 // a future binary
	if _, err := conn.Write(hello[:]); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var ack [ackLen]byte
	if _, err := io.ReadFull(conn, ack[:]); err != nil {
		t.Fatal(err)
	}
	if ack[0] != helloBadVersion || ack[1] != ProtocolVersion {
		t.Fatalf("ack = %v, want [%d %d]", ack, helloBadVersion, ProtocolVersion)
	}
	// The dialer-side helper must turn that ack into a clear error.
	c2, err := net.Dial("tcp", meshes[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	// Fake an old binary by swapping the version byte on the wire: use a
	// raw hello again, but this time through DialHello against a fake
	// acceptor that answers with a bad-version ack.
	fakeLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer fakeLn.Close()
	go func() {
		c, err := fakeLn.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, helloLen)
		io.ReadFull(c, buf)
		c.Write([]byte{helloBadVersion, 42})
	}()
	c3, err := net.Dial("tcp", fakeLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	err = DialHello(c3, 0, time.Now().Add(5*time.Second))
	if err == nil || !strings.Contains(err.Error(), "version mismatch") {
		t.Fatalf("DialHello = %v, want a version-mismatch error", err)
	}
	if !strings.Contains(err.Error(), "v42") {
		t.Fatalf("DialHello error %q does not name the peer's version", err)
	}
}

// TestPeerMeshDeadPeerFailsRound verifies that a round against a closed peer
// fails within the round deadline instead of hanging.
func TestPeerMeshDeadPeerFailsRound(t *testing.T) {
	const n, p = 2, 2
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = l
		addrs[i] = l.Addr().String()
	}
	m0, err := NewPeerMesh(lns[0], PeerConfig{
		Self: 0, Addrs: addrs, Owner: []int{0, 1},
		Config: Config{RoundTimeout: 300 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m0.Close()
	lns[1].Close() // worker 1 never comes up

	frames := [][][]byte{{nil, []byte("x")}, {nil, nil}}
	start := time.Now()
	if _, err := m0.RoundTrip(1, frames); err == nil {
		t.Fatal("round against a dead peer succeeded")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("round against a dead peer took %v", time.Since(start))
	}
}

// Package transport carries the engine's boundary-DV exchanges over real
// TCP connections, standing in for the paper's MPI over 1 Gb/s Ethernet.
// PeerMesh is one endpoint of a mesh: it owns a listener, dials its peers,
// and carries framed all-to-all rounds for the simulated processors it
// hosts. A multi-process deployment runs one endpoint per worker process;
// Loopback runs one endpoint per processor inside a single process, so
// single-process wire mode and the multi-process deployment share one wire
// stack.
//
// The mesh degrades rather than fail-stops: every round runs under an I/O
// deadline, every record on the wire carries the round's sequence number
// and a CRC, leftover bytes from an aborted round are drained by sequence
// number (never returned as this round's data), and a corrupted stream
// resynchronises by scanning for the next record boundary. A failed round
// is not retried here; it surfaces as an error and the caller (the engine's
// step rollback, the session's degraded loop, the coordinator) decides.
package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"strconv"
	"sync"
	"time"

	"aacc/internal/obs"
)

// Config tunes the mesh's deadlines and frame cap. The zero value selects
// the defaults below; Normalize resolves them.
type Config struct {
	// RoundTimeout is the per-round I/O deadline: every send and receive
	// of one round must complete within it. Default 30s.
	RoundTimeout time.Duration
	// SetupTimeout bounds connection establishment (dial and hello
	// handshake). A dialer that stalls mid-hello is dropped when it expires.
	// Default 10s.
	SetupTimeout time.Duration
	// MaxFrame caps a single frame's size. A length header beyond it is
	// treated as stream corruption (the reader resynchronises) rather than
	// an allocation request — a corrupt 4-byte header can no longer demand
	// gigabytes. Default 256 MiB.
	MaxFrame int
}

// Normalize fills unset fields with the defaults.
func (c Config) Normalize() Config {
	if c.RoundTimeout <= 0 {
		c.RoundTimeout = 30 * time.Second
	}
	if c.SetupTimeout <= 0 {
		c.SetupTimeout = 10 * time.Second
	}
	if c.MaxFrame <= 0 {
		c.MaxFrame = 256 << 20
	}
	return c
}

// PeerMesh is one worker's endpoint in a mesh of TCP connections. Workers
// find each other by configured address: each listens on its own address,
// dials its peers on demand, and multiplexes the frames of all its resident
// processors over one connection per peer.
//
// The mesh is built for churn. The accept loop runs for the mesh's whole
// lifetime, and a fresh hello from a known worker *replaces* that worker's
// inbound connection — a restarted worker redials and is back in the mesh
// without any global re-setup. Outbound connections are (re)dialed lazily
// when a round needs them. Round sequence numbers are supplied by the caller
// (the coordinator distributes one global sequence), so every worker stamps
// the same collective with the same seq and restarts cannot diverge; a
// failed round is not retried here — the coordinator decides.
type PeerMesh struct {
	self  int      // this worker's index in addrs
	addrs []string // mesh address of every worker
	owner []int    // processor -> worker index
	cfg   Config
	ln    net.Listener

	mu     sync.Mutex
	out    []net.Conn // out[w]: dialed connection to worker w
	in     []net.Conn // in[w]: accepted connection from worker w
	inR    []*bufio.Reader
	wait   chan struct{} // closed+replaced whenever an inbound conn lands
	closed bool
	// hellos holds accepted connections whose hello is still being read;
	// Close closes them so no handshake outlives the mesh.
	hellos map[net.Conn]struct{}

	acceptDone chan struct{}

	// Wire metrics, nil-safe until SetObs.
	rounds     *obs.Counter
	roundFails *obs.Counter
	reconnects []*obs.Counter
	peerFail   []*obs.Counter
	rec        *obs.Recorder // flight recorder, nil-safe
}

// PeerConfig describes one worker's place in a mesh.
type PeerConfig struct {
	// Self is this worker's index into Addrs.
	Self int
	// Addrs holds every worker's mesh address, indexed by worker.
	Addrs []string
	// Owner maps each simulated processor to the worker that hosts it;
	// len(Owner) is the total processor count.
	Owner []int
	// Config tunes deadlines and frame limits (zero value = defaults).
	Config Config
}

// NewPeerMesh starts a mesh endpoint over ln, which the caller has already
// bound to this worker's advertised address. The mesh takes ownership of ln;
// Close tears it down. The accept loop starts immediately — peers may dial
// in before the first round.
func NewPeerMesh(ln net.Listener, cfg PeerConfig) (*PeerMesh, error) {
	n := len(cfg.Addrs)
	if n < 1 {
		return nil, fmt.Errorf("transport: peer mesh needs at least 1 worker address")
	}
	if cfg.Self < 0 || cfg.Self >= n {
		return nil, fmt.Errorf("transport: self index %d out of range for %d workers", cfg.Self, n)
	}
	for _, w := range cfg.Owner {
		if w < 0 || w >= n {
			return nil, fmt.Errorf("transport: processor owner %d out of range for %d workers", w, n)
		}
	}
	m := &PeerMesh{
		self:       cfg.Self,
		addrs:      append([]string(nil), cfg.Addrs...),
		owner:      append([]int(nil), cfg.Owner...),
		cfg:        cfg.Config.Normalize(),
		ln:         ln,
		out:        make([]net.Conn, n),
		in:         make([]net.Conn, n),
		inR:        make([]*bufio.Reader, n),
		wait:       make(chan struct{}),
		hellos:     make(map[net.Conn]struct{}),
		acceptDone: make(chan struct{}),
	}
	go m.acceptLoop()
	return m, nil
}

// SetObs registers the mesh's wire metrics against reg. Per-peer counters
// carry both the worker index and its configured address, so a flaky or dead
// peer is identifiable from /metrics without cross-referencing logs.
func (m *PeerMesh) SetObs(reg *obs.Registry) {
	m.rec = reg.Events()
	m.rounds = reg.Counter("aacc_transport_wire_rounds_total", "All-to-all rounds carried over the worker peer mesh.")
	m.roundFails = reg.Counter("aacc_transport_wire_round_failures_total", "Rounds that failed with a transport error.")
	m.peerFail = make([]*obs.Counter, len(m.addrs))
	m.reconnects = make([]*obs.Counter, len(m.addrs))
	for w := range m.addrs {
		if w == m.self {
			continue
		}
		m.peerFail[w] = reg.Counter("aacc_transport_peer_failures_total",
			"Send/receive failures by remote worker.",
			obs.L("peer", strconv.Itoa(w)), obs.L("addr", m.addrs[w]))
		m.reconnects[w] = reg.Counter("aacc_transport_peer_reconnects_total",
			"Outbound connections re-dialed after a failure, by remote worker.",
			obs.L("peer", strconv.Itoa(w)), obs.L("addr", m.addrs[w]))
	}
}

func (m *PeerMesh) notePeerFailure(w int) {
	if m.peerFail != nil && w >= 0 && w < len(m.peerFail) && m.peerFail[w] != nil {
		m.peerFail[w].Inc()
	}
	m.rec.Record("transport", "peer-failure", 0, fmt.Sprintf("remote worker %d", w))
}

// acceptLoop admits inbound peer connections for the mesh's lifetime. Each
// hello is read on its own goroutine under the setup deadline, so a dialer
// that connects and stalls cannot hold up the peers behind it.
func (m *PeerMesh) acceptLoop() {
	var hellos sync.WaitGroup
	defer close(m.acceptDone)
	defer hellos.Wait()
	for {
		conn, err := m.ln.Accept()
		if err != nil {
			return // listener closed: the mesh is shutting down
		}
		m.mu.Lock()
		if m.closed {
			m.mu.Unlock()
			conn.Close()
			return
		}
		m.hellos[conn] = struct{}{}
		m.mu.Unlock()
		hellos.Add(1)
		go func() {
			defer hellos.Done()
			m.admit(conn)
		}()
	}
}

// admit reads conn's hello and installs it as the peer's inbound
// connection. A hello from a worker that already has an inbound slot
// replaces it (the old connection is closed): that is how a restarted peer
// rejoins.
func (m *PeerMesh) admit(conn net.Conn) {
	rank, err := AcceptHello(conn, len(m.addrs), time.Now().Add(m.cfg.SetupTimeout))
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.hellos, conn)
	if err != nil || rank == m.self || m.closed {
		conn.Close()
		return
	}
	if old := m.in[rank]; old != nil {
		old.Close()
	}
	m.in[rank] = conn
	// The default 4 KiB buffer: a Loopback holds P(P-1) inbound readers,
	// and payload reads larger than the buffer bypass it anyway.
	m.inR[rank] = bufio.NewReader(conn)
	close(m.wait)
	m.wait = make(chan struct{})
}

// getIn waits (until deadline) for an inbound connection from worker w. The
// wait is how a round started just after a peer restarts still completes:
// the reader blocks here until the peer's redial lands.
func (m *PeerMesh) getIn(w int, deadline time.Time) (net.Conn, *bufio.Reader, error) {
	for {
		m.mu.Lock()
		if m.closed {
			m.mu.Unlock()
			return nil, nil, net.ErrClosed
		}
		if c := m.in[w]; c != nil {
			r := m.inR[w]
			m.mu.Unlock()
			return c, r, nil
		}
		ch := m.wait
		m.mu.Unlock()
		d := time.Until(deadline)
		if d <= 0 {
			return nil, nil, fmt.Errorf("no inbound connection from worker %d (%s)", w, m.addrs[w])
		}
		t := time.NewTimer(d)
		select {
		case <-ch:
			t.Stop()
		case <-t.C:
			return nil, nil, fmt.Errorf("no inbound connection from worker %d (%s) within deadline", w, m.addrs[w])
		}
	}
}

// getOut returns the outbound connection to worker w, dialing it if absent.
func (m *PeerMesh) getOut(w int, deadline time.Time) (net.Conn, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, net.ErrClosed
	}
	if c := m.out[w]; c != nil {
		m.mu.Unlock()
		return c, nil
	}
	m.mu.Unlock()
	conn, err := net.DialTimeout("tcp", m.addrs[w], time.Until(deadline))
	if err != nil {
		return nil, err
	}
	if err := DialHello(conn, m.self, deadline); err != nil {
		conn.Close()
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		conn.Close()
		return nil, net.ErrClosed
	}
	if old := m.out[w]; old != nil {
		// Lost a race with another dial; keep the established one.
		conn.Close()
		return old, nil
	}
	m.out[w] = conn
	return conn, nil
}

// dropOut discards a failed outbound connection so the next round redials.
func (m *PeerMesh) dropOut(w int, c net.Conn) {
	m.mu.Lock()
	if m.out[w] == c {
		m.out[w] = nil
	}
	m.mu.Unlock()
	c.Close()
}

// Each data record in a peer round is tagged with its logical endpoints,
// since one connection multiplexes all processor pairs between two workers:
//
//	u32 src processor | u32 dst processor | frame bytes
const peerTagLen = 8

// RoundTrip carries one personalised all-to-all round for the whole
// processor matrix: frames[src][dst] is the encoded payload from processor
// src to processor dst; the result is indexed [dst][src]. Only rows whose
// src is resident on this worker are sent; only cells whose dst is resident
// here come back — the other workers run the same call with the same seq and
// each keeps its own slice of the matrix. Pairs resident on this worker
// never touch a socket.
//
// A failed round is returned without retry, and the caller must not reuse
// seq for the repaired round (stale records are drained by sequence number
// on the next call).
func (m *PeerMesh) RoundTrip(seq uint32, frames [][][]byte) ([][][]byte, error) {
	p := len(m.owner)
	if len(frames) != p {
		return nil, fmt.Errorf("transport: peer round needs %d rows, got %d", p, len(frames))
	}
	m.rounds.Inc()
	in := make([][][]byte, p)
	for dst := range in {
		in[dst] = make([][]byte, p)
	}
	// Local delivery first: pairs hosted entirely on this worker.
	for src := 0; src < p; src++ {
		if m.owner[src] != m.self || frames[src] == nil {
			continue
		}
		for dst, frame := range frames[src] {
			if frame != nil && m.owner[dst] == m.self {
				in[dst][src] = frame
			}
		}
	}
	var inMu sync.Mutex
	send := func(w int, conn net.Conn) error {
		for src := 0; src < p; src++ {
			if m.owner[src] != m.self || frames[src] == nil {
				continue
			}
			for dst, frame := range frames[src] {
				if frame == nil || m.owner[dst] != w {
					continue
				}
				var tag [peerTagLen]byte
				binary.LittleEndian.PutUint32(tag[0:4], uint32(src))
				binary.LittleEndian.PutUint32(tag[4:8], uint32(dst))
				if err := writeFrame(conn, seq, tag[:], frame); err != nil {
					return err
				}
			}
		}
		return nil
	}
	recv := func(w int, payload []byte) error {
		if len(payload) < peerTagLen {
			return fmt.Errorf("short peer record (%d bytes)", len(payload))
		}
		src := int(binary.LittleEndian.Uint32(payload[0:4]))
		dst := int(binary.LittleEndian.Uint32(payload[4:8]))
		if src < 0 || src >= p || m.owner[src] != w {
			return fmt.Errorf("record claims source processor %d, not resident on worker %d", src, w)
		}
		if dst < 0 || dst >= p || m.owner[dst] != m.self {
			return fmt.Errorf("record for processor %d, not resident here", dst)
		}
		inMu.Lock()
		defer inMu.Unlock()
		if in[dst][src] != nil {
			return fmt.Errorf("duplicate record %d->%d", src, dst)
		}
		in[dst][src] = payload[peerTagLen:]
		return nil
	}
	reset := func(w int) {
		inMu.Lock()
		defer inMu.Unlock()
		for dst := range in {
			for src := range in[dst] {
				if m.owner[src] == w {
					in[dst][src] = nil
				}
			}
		}
	}
	if err := m.collective(seq, send, recv, reset); err != nil {
		return nil, err
	}
	return in, nil
}

// AllGather shares one worker-level payload with every peer and returns all
// workers' payloads indexed by worker (this worker's own payload included).
// It rides the same framed rounds as RoundTrip and therefore needs its own
// fresh seq from the caller.
func (m *PeerMesh) AllGather(seq uint32, payload []byte) ([][]byte, error) {
	out := make([][]byte, len(m.addrs))
	out[m.self] = payload
	send := func(w int, conn net.Conn) error { return writeFrame(conn, seq, nil, payload) }
	recv := func(w int, p []byte) error {
		if out[w] != nil {
			return fmt.Errorf("two all-gather records from worker %d", w)
		}
		out[w] = p
		return nil
	}
	reset := func(w int) { out[w] = nil }
	if err := m.collective(seq, send, recv, reset); err != nil {
		return nil, err
	}
	for w, p := range out {
		if p == nil {
			m.roundFails.Inc()
			return nil, fmt.Errorf("transport: no all-gather record from worker %d (round %d)", w, seq)
		}
	}
	return out, nil
}

// collective runs one framed round against every peer concurrently under
// one round deadline. For each peer w, send writes this worker's records
// for w (the terminator follows), recv consumes each record w sent, and
// reset wipes what recv took from a connection that broke mid-round before
// the round is re-read from w's replacement connection. Calls for distinct
// peers run concurrently. The first error fails the round.
func (m *PeerMesh) collective(seq uint32, send func(w int, conn net.Conn) error, recv func(w int, payload []byte) error, reset func(w int)) error {
	deadline := time.Now().Add(m.cfg.RoundTimeout)
	var wg sync.WaitGroup
	errs := make(chan error, 2*len(m.addrs))
	for w := range m.addrs {
		if w == m.self {
			continue
		}
		wg.Add(2)
		go func() {
			defer wg.Done()
			if err := m.sendTo(w, seq, deadline, send); err != nil {
				m.notePeerFailure(w)
				errs <- fmt.Errorf("transport: send to worker %d (round %d): %w", w, seq, err)
			}
		}()
		go func() {
			defer wg.Done()
			if err := m.recvFrom(w, seq, deadline, recv, reset); err != nil {
				m.notePeerFailure(w)
				errs <- fmt.Errorf("transport: recv from worker %d (round %d): %w", w, seq, err)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		m.roundFails.Inc()
		return err
	}
	return nil
}

// sendTo writes this worker's records for worker w, then the round
// terminator. A write failure on a cached connection triggers one redial
// within the round deadline — the fast path for a peer that restarted since
// the last round.
func (m *PeerMesh) sendTo(w int, seq uint32, deadline time.Time, send func(w int, conn net.Conn) error) error {
	attempt := func(conn net.Conn) error {
		conn.SetWriteDeadline(deadline)
		if err := send(w, conn); err != nil {
			return err
		}
		return writeTerminator(conn, seq)
	}
	conn, err := m.getOut(w, deadline)
	if err != nil {
		return err
	}
	if err := attempt(conn); err == nil {
		return nil
	}
	// One redial: the cached connection may be a casualty of the peer's
	// earlier crash even though the peer itself is back.
	m.dropOut(w, conn)
	if m.reconnects != nil && m.reconnects[w] != nil {
		m.reconnects[w].Inc()
	}
	m.rec.Record("transport", "peer-reconnect", uint64(seq), fmt.Sprintf("re-dialing worker %d", w))
	conn, err = m.getOut(w, deadline)
	if err != nil {
		return err
	}
	if err := attempt(conn); err != nil {
		m.dropOut(w, conn)
		return err
	}
	return nil
}

// recvFrom drains worker w's records for round seq into recv. A read
// failure does not doom the round immediately: if a fresh inbound
// connection from w lands within the deadline (the peer restarted and
// redialed), the partial contribution is wiped by reset and the round is
// re-read from the replacement — so the first round after a rejoin
// completes instead of failing on the dead incarnation's connection.
func (m *PeerMesh) recvFrom(w int, seq uint32, deadline time.Time, recv func(w int, payload []byte) error, reset func(w int)) error {
	onRecord := func(payload []byte) error { return recv(w, payload) }
	var lastErr error
	for {
		conn, br, err := m.getIn(w, deadline)
		if err != nil {
			if lastErr != nil {
				return lastErr
			}
			return err
		}
		conn.SetReadDeadline(deadline)
		if lastErr = readRecords(br, seq, m.cfg.MaxFrame, onRecord); lastErr == nil {
			return nil
		}
		if !m.awaitReplacement(w, conn, deadline) {
			return lastErr
		}
		reset(w)
	}
}

// awaitReplacement waits until worker w's inbound connection is no longer
// conn (a redial landed) or the deadline passes. It reports whether a
// replacement is available.
func (m *PeerMesh) awaitReplacement(w int, conn net.Conn, deadline time.Time) bool {
	for {
		m.mu.Lock()
		if m.closed {
			m.mu.Unlock()
			return false
		}
		if m.in[w] != nil && m.in[w] != conn {
			m.mu.Unlock()
			return true
		}
		ch := m.wait
		m.mu.Unlock()
		d := time.Until(deadline)
		if d <= 0 {
			return false
		}
		t := time.NewTimer(d)
		select {
		case <-ch:
			t.Stop()
		case <-t.C:
			return false
		}
	}
}

// Close tears the mesh down: the listener stops accepting and every
// connection in both directions, and every pending hello, is closed. The
// first error wins. Safe to call more than once.
func (m *PeerMesh) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	close(m.wait)
	m.wait = make(chan struct{})
	conns := make([]net.Conn, 0, 2*len(m.addrs)+len(m.hellos))
	for i := range m.out {
		if m.out[i] != nil {
			conns = append(conns, m.out[i])
			m.out[i] = nil
		}
		if m.in[i] != nil {
			conns = append(conns, m.in[i])
			m.in[i] = nil
		}
	}
	for c := range m.hellos {
		conns = append(conns, c)
	}
	m.mu.Unlock()
	err := m.ln.Close()
	for _, c := range conns {
		if cerr := c.Close(); err == nil {
			err = cerr
		}
	}
	<-m.acceptDone
	return err
}

// Addr returns the listener's bound address (useful when the configured
// address used port 0).
func (m *PeerMesh) Addr() string { return m.ln.Addr().String() }

package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"aacc/internal/obs"
)

// Failure-path coverage: the framing reader against truncated, stale and
// malformed streams, redial and resynchronisation after failed rounds,
// accepting against misbehaving dialers, and Close semantics under
// concurrency. The contract throughout: errors surface within the
// configured deadlines, stale bytes are never returned as fresh data, and
// nothing hangs.

// readRound reads one round's records from br with readRecords: at most one
// frame followed by the round terminator, all stamped with sequence number
// want. It returns the frame (nil if the round carried nothing).
func readRound(br *bufio.Reader, want uint32) ([]byte, error) {
	var frame []byte
	seen := false
	err := readRecords(br, want, Config{}.Normalize().MaxFrame, func(payload []byte) error {
		if seen {
			return errors.New("two frames in one round")
		}
		seen = true
		frame = payload
		return nil
	})
	return frame, err
}

// pipePair returns a connected in-process conn pair with a deadline so a
// framing bug fails the test instead of hanging it.
func pipePair(t *testing.T) (net.Conn, net.Conn) {
	t.Helper()
	a, b := net.Pipe()
	dl := time.Now().Add(5 * time.Second)
	a.SetDeadline(dl)
	b.SetDeadline(dl)
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

func TestReadRoundShortHeader(t *testing.T) {
	a, b := pipePair(t)
	go func() {
		a.Write([]byte{7, 0}) // a fraction of a record header
		a.Close()
	}()
	if _, err := readRound(bufio.NewReader(b), 1); err == nil {
		t.Fatal("truncated header accepted")
	}
}

func TestReadRoundTruncatedPayload(t *testing.T) {
	a, b := pipePair(t)
	go func() {
		var hdr [recordHdrLen]byte
		putRecordHeader(hdr[:], 1, 100) // promise 100 bytes
		binary.LittleEndian.PutUint32(hdr[12:16], crc32.ChecksumIEEE(hdr[:12]))
		a.Write(hdr[:])
		a.Write([]byte("only twenty bytes...")) // deliver 20
		a.Close()
	}()
	if _, err := readRound(bufio.NewReader(b), 1); err == nil {
		t.Fatal("truncated payload accepted")
	}
}

func TestReadRoundMissingTerminator(t *testing.T) {
	a, b := pipePair(t)
	go func() {
		writeFrame(a, 1, nil, []byte("complete frame, no terminator"))
		a.Close()
	}()
	if _, err := readRound(bufio.NewReader(b), 1); err == nil {
		t.Fatal("round without terminator accepted")
	}
}

func TestReadRoundTwoFramesOneRound(t *testing.T) {
	a, b := pipePair(t)
	go func() {
		writeFrame(a, 1, nil, []byte("first"))
		writeFrame(a, 1, nil, []byte("second"))
		writeTerminator(a, 1)
	}()
	_, err := readRound(bufio.NewReader(b), 1)
	if err == nil || !strings.Contains(err.Error(), "two frames") {
		t.Fatalf("second frame in a round: err = %v", err)
	}
}

func TestReadRoundZeroLengthFrame(t *testing.T) {
	a, b := pipePair(t)
	go func() {
		writeFrame(a, 1, nil, []byte{})
		writeTerminator(a, 1)
	}()
	frame, err := readRound(bufio.NewReader(b), 1)
	if err != nil {
		t.Fatal(err)
	}
	// A zero-length frame is a real (empty) message, distinct from the nil
	// of "nothing sent this round".
	if frame == nil || len(frame) != 0 {
		t.Fatalf("zero-length frame read back as %v", frame)
	}
}

func TestReadRoundDrainsStaleRecords(t *testing.T) {
	a, b := pipePair(t)
	go func() {
		// Leftovers of aborted rounds 1 and 2, then the live round 3.
		writeFrame(a, 1, nil, []byte("stale one"))
		writeTerminator(a, 1)
		writeFrame(a, 2, nil, []byte("stale two"))
		writeFrame(a, 3, nil, []byte("fresh"))
		writeTerminator(a, 3)
	}()
	frame, err := readRound(bufio.NewReader(b), 3)
	if err != nil {
		t.Fatal(err)
	}
	if string(frame) != "fresh" {
		t.Fatalf("round 3 read %q, want the fresh frame", frame)
	}
}

func TestReadRoundRejectsFutureSeq(t *testing.T) {
	a, b := pipePair(t)
	go func() {
		writeFrame(a, 9, nil, []byte("from the future"))
		writeTerminator(a, 9)
	}()
	_, err := readRound(bufio.NewReader(b), 3)
	if err == nil || !strings.Contains(err.Error(), "future round") {
		t.Fatalf("future-round frame: err = %v", err)
	}
}

func TestReadRoundResyncsPastGarbage(t *testing.T) {
	a, b := pipePair(t)
	go func() {
		a.Write([]byte("line noise that is definitely not a record header"))
		writeFrame(a, 1, nil, []byte("recovered"))
		writeTerminator(a, 1)
	}()
	frame, err := readRound(bufio.NewReader(b), 1)
	if err != nil {
		t.Fatal(err)
	}
	if string(frame) != "recovered" {
		t.Fatalf("resync read %q", frame)
	}
}

// TestReadRoundHugeLengthHeaderDoesNotAllocate feeds a header whose length
// field demands ~4 GiB. The reader must treat it as corruption and
// resynchronise, not allocate.
func TestReadRoundHugeLengthHeaderDoesNotAllocate(t *testing.T) {
	a, b := pipePair(t)
	go func() {
		var hdr [recordHdrLen]byte
		putRecordHeader(hdr[:], 1, 0xFFFFFFF0) // not the terminator marker
		binary.LittleEndian.PutUint32(hdr[12:16], crc32.ChecksumIEEE(hdr[:12]))
		a.Write(hdr[:])
		writeFrame(a, 1, nil, []byte("after the bomb"))
		writeTerminator(a, 1)
	}()
	frame, err := readRound(bufio.NewReader(b), 1)
	if err != nil {
		t.Fatal(err)
	}
	if string(frame) != "after the bomb" {
		t.Fatalf("read %q", frame)
	}
}

func TestReadRoundCRCMismatch(t *testing.T) {
	a, b := pipePair(t)
	go func() {
		payload := []byte("checksummed")
		var hdr [recordHdrLen]byte
		putRecordHeader(hdr[:], 1, uint32(len(payload)))
		crc := crc32.Update(0, crc32.IEEETable, hdr[:12])
		crc = crc32.Update(crc, crc32.IEEETable, payload)
		binary.LittleEndian.PutUint32(hdr[12:16], crc^0xDEAD) // poison the CRC
		a.Write(hdr[:])
		a.Write(payload)
		writeTerminator(a, 1)
	}()
	_, err := readRound(bufio.NewReader(b), 1)
	if err == nil || !strings.Contains(err.Error(), "crc") {
		t.Fatalf("corrupt payload: err = %v", err)
	}
}

// flakyConn wraps a mesh connection and fails a set number of writes, leaving
// a partial header on the wire when asked — the shape of a torn transfer.
type flakyConn struct {
	net.Conn
	mu         sync.Mutex
	failWrites int
	partial    bool
}

func (c *flakyConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	fail := c.failWrites > 0
	if fail {
		c.failWrites--
	}
	partial := c.partial
	c.mu.Unlock()
	if fail {
		if partial && len(p) > 1 {
			n, _ := c.Conn.Write(p[:len(p)/2])
			return n, errors.New("injected write failure (torn)")
		}
		return 0, errors.New("injected write failure")
	}
	return c.Conn.Write(p)
}

// plant replaces endpoint src's established outbound connection to dst
// with wrap(conn).
func plant(l *Loopback, src, dst int, wrap func(net.Conn) net.Conn) {
	m := l.meshes[src]
	m.mu.Lock()
	m.out[dst] = wrap(m.out[dst])
	m.mu.Unlock()
}

func meshFrames(n int, fill func(src, dst int) []byte) [][][]byte {
	frames := make([][][]byte, n)
	for src := range frames {
		frames[src] = make([][]byte, n)
		for dst := range frames[src] {
			if src != dst {
				frames[src][dst] = fill(src, dst)
			}
		}
	}
	return frames
}

// TestRoundTripRetriesTornWrite tears one connection's first write
// mid-header and expects the round to succeed anyway: the sender redials
// once within the round deadline and resends, and the receiver abandons the
// torn stream for the replacement connection.
func TestRoundTripRetriesTornWrite(t *testing.T) {
	mesh := newLoopback(t, 3, Config{RoundTimeout: 2 * time.Second})
	reg := obs.NewRegistry()
	mesh.SetObs(reg)
	plant(mesh, 0, 1, func(c net.Conn) net.Conn { return &flakyConn{Conn: c, failWrites: 1, partial: true} })
	frames := meshFrames(3, func(src, dst int) []byte {
		return []byte{byte(src), byte(dst), 0xAB}
	})
	in, err := mesh.RoundTrip(1, frames)
	if err != nil {
		t.Fatalf("redial did not recover the round: %v", err)
	}
	for dst := 0; dst < 3; dst++ {
		for src := 0; src < 3; src++ {
			if src == dst {
				continue
			}
			if !bytes.Equal(in[dst][src], []byte{byte(src), byte(dst), 0xAB}) {
				t.Fatalf("frame %d->%d = %v", src, dst, in[dst][src])
			}
		}
	}
	reconnects := reg.Counter("aacc_transport_peer_reconnects_total", "",
		obs.L("peer", "1"), obs.L("addr", mesh.meshes[0].addrs[1])).Value()
	if reconnects < 1 {
		t.Fatalf("reconnects counter = %v, want >= 1", reconnects)
	}
}

// stallConn passes a set number of writes through, then stalls every later
// one until its write deadline: a sender wedged on a dead link, which no
// redial within the round can rescue.
type stallConn struct {
	net.Conn
	mu       sync.Mutex
	allow    int
	deadline time.Time
}

func (c *stallConn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	c.deadline = t
	c.mu.Unlock()
	return c.Conn.SetWriteDeadline(t)
}

func (c *stallConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	stall := c.allow == 0
	if c.allow > 0 {
		c.allow--
	}
	dl := c.deadline
	c.mu.Unlock()
	if stall {
		time.Sleep(time.Until(dl))
		return 0, os.ErrDeadlineExceeded
	}
	return c.Conn.Write(p)
}

// TestRoundTripFailsWithinDeadlineNoHang wedges one sender: the round must
// error out within the round deadline — the regression test for the
// missing-terminator deadlock, where receivers blocked forever on a peer
// that bailed out.
func TestRoundTripFailsWithinDeadlineNoHang(t *testing.T) {
	mesh := newLoopback(t, 3, Config{RoundTimeout: 500 * time.Millisecond})
	plant(mesh, 0, 1, func(c net.Conn) net.Conn { return &stallConn{Conn: c} })
	frames := meshFrames(3, func(src, dst int) []byte { return []byte("payload") })
	done := make(chan error, 1)
	go func() {
		_, err := mesh.RoundTrip(1, frames)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("round with a dead sender succeeded")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("partially failed round hung instead of erroring")
	}
}

// TestRoundAfterFailureDeliversFreshData fails one round completely — the
// frame goes out whole but its terminator does not, leaving a complete stale
// frame parked in the receiver's buffer — then runs a healthy round and
// checks every delivered frame is the new round's, never the leftovers.
func TestRoundAfterFailureDeliversFreshData(t *testing.T) {
	mesh := newLoopback(t, 3, Config{RoundTimeout: 400 * time.Millisecond})
	// writeFrame is two writes (header, payload); the terminator is the
	// third. Allow exactly two, so the stale frame lands intact.
	plant(mesh, 0, 1, func(c net.Conn) net.Conn { return &stallConn{Conn: c, allow: 2} })
	staleRound := meshFrames(3, func(src, dst int) []byte { return []byte("stale") })
	if _, err := mesh.RoundTrip(1, staleRound); err == nil {
		t.Fatal("expected the sabotaged round to fail")
	}
	freshRound := meshFrames(3, func(src, dst int) []byte { return []byte("fresh") })
	in, err := mesh.RoundTrip(2, freshRound)
	if err != nil {
		t.Fatalf("post-failure round did not recover: %v", err)
	}
	for dst := 0; dst < 3; dst++ {
		for src := 0; src < 3; src++ {
			if src == dst {
				continue
			}
			if string(in[dst][src]) != "fresh" {
				t.Fatalf("frame %d->%d = %q: stale data survived the failed round", src, dst, in[dst][src])
			}
		}
	}
}

func TestRoundTripAfterCloseErrors(t *testing.T) {
	mesh, err := NewLoopback(3, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := mesh.Close(); err != nil {
		t.Fatal(err)
	}
	frames := make([][][]byte, 3)
	for i := range frames {
		frames[i] = make([][]byte, 3)
	}
	frames[0][1] = []byte("into the void")
	if _, err := mesh.RoundTrip(1, frames); err == nil {
		t.Fatal("RoundTrip on a closed mesh succeeded")
	}
}

func TestDoubleCloseReturnsSameResult(t *testing.T) {
	mesh, err := NewLoopback(2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	first := mesh.Close()
	second := mesh.Close()
	if first != second {
		t.Fatalf("double Close disagreed: %v then %v", first, second)
	}
}

// errCloseConn reports a fixed error from Close.
type errCloseConn struct {
	net.Conn
	err error
}

func (c *errCloseConn) Close() error {
	c.Conn.Close()
	return c.err
}

// TestCloseSurfacesInboxErrors plants a failing Close on an accept-side
// (inbound) connection: the mesh's Close must report it, not just
// listener errors.
func TestCloseSurfacesInboxErrors(t *testing.T) {
	mesh, err := NewLoopback(2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	m := mesh.meshes[0]
	if _, _, err := m.getIn(1, time.Now().Add(5*time.Second)); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("inbox close failed")
	m.mu.Lock()
	m.in[1] = &errCloseConn{Conn: m.in[1], err: boom}
	m.mu.Unlock()
	if got := mesh.Close(); !errors.Is(got, boom) {
		t.Fatalf("Close = %v, want the inbox-side error", got)
	}
}

// dialSilent connects to addr and sends the given prefix of a hello (nil:
// nothing), holding the connection open until test cleanup.
func dialSilent(t *testing.T, addr string, prefix []byte) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if prefix != nil {
		if _, err := c.Write(prefix); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// TestSetupToleratesRogueDialer connects a half-hello dialer that stays
// connected and one that aborts mid-hello to a worker's mesh port before any
// peer has dialed in: the peers' round must still complete within a round
// deadline far shorter than the setup deadline the rogue holds.
func TestSetupToleratesRogueDialer(t *testing.T) {
	meshes := buildPeerMeshes(t, 2, 4, Config{RoundTimeout: time.Second, SetupTimeout: 10 * time.Second})
	dialSilent(t, meshes[0].Addr(), []byte{1})
	dialSilent(t, meshes[0].Addr(), []byte{1, 2}).Close()
	frames := meshFrames(4, func(src, dst int) []byte { return []byte{byte(src), byte(dst)} })
	in := runPeerRound(t, meshes, 1, frames)
	if got := in[0][1][3]; !bytes.Equal(got, frames[3][1]) {
		t.Fatalf("worker 0 in[1][3] = %v, want %v", got, frames[3][1])
	}
}

// TestSetupStalledHelloTimesOut connects a dialer that never sends its hello
// to a worker's mesh port before any peer has dialed in. The stalled hello
// must hold up no other handshake — the peers' round completes within a
// round deadline shorter than the setup deadline — and the stalled
// connection is dropped once the setup deadline passes.
func TestSetupStalledHelloTimesOut(t *testing.T) {
	const setup = 2 * time.Second
	meshes := buildPeerMeshes(t, 2, 2, Config{RoundTimeout: 500 * time.Millisecond, SetupTimeout: setup})
	staller := dialSilent(t, meshes[0].Addr(), nil)
	start := time.Now()
	frames := meshFrames(2, func(src, dst int) []byte { return []byte("x") })
	runPeerRound(t, meshes, 1, frames)
	staller.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := staller.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Fatalf("stalled hello connection: read err = %v, want EOF (dropped by the mesh)", err)
	}
	if waited := time.Since(start); waited < setup/2 {
		t.Fatalf("stalled hello dropped after %v, before the %v setup deadline", waited, setup)
	}
}

// TestCloseRacesInFlightRoundTrip closes the mesh while RoundTrips are in
// flight from another goroutine. The contract under test is narrow: no
// panic, no deadlock — each RoundTrip either completes or returns an error.
func TestCloseRacesInFlightRoundTrip(t *testing.T) {
	const n = 4
	mesh, err := NewLoopback(n, Config{RoundTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 1<<20)
	frames := make([][][]byte, n)
	for src := range frames {
		frames[src] = make([][]byte, n)
		for dst := range frames[src] {
			if dst != src {
				frames[src][dst] = big
			}
		}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if _, err := mesh.RoundTrip(uint32(i+1), frames); err != nil {
				return // closed under us: the expected exit
			}
		}
	}()
	time.Sleep(2 * time.Millisecond)
	mesh.Close()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("RoundTrip deadlocked against Close")
	}
}

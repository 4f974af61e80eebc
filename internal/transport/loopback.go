package transport

import (
	"fmt"
	"net"
	"sync"
	"time"

	"aacc/internal/obs"
)

// Loopback runs a whole P-processor mesh inside one process: P PeerMesh
// endpoints on 127.0.0.1, endpoint p hosting processor p, so every
// off-diagonal frame crosses a real TCP connection. It is the byte substrate
// of single-process wire mode and has the shape runtime.Remote drives.
type Loopback struct {
	meshes []*PeerMesh

	closeOnce sync.Once
	closeErr  error

	// The endpoints' own round counters are disabled; one loopback round
	// is one mesh round, counted here.
	rounds     *obs.Counter
	roundFails *obs.Counter
}

// NewLoopback binds p listeners on 127.0.0.1:0, starts one PeerMesh endpoint
// per processor and dials the full mesh, all within cfg.SetupTimeout.
func NewLoopback(p int, cfg Config) (*Loopback, error) {
	if p < 1 {
		return nil, fmt.Errorf("transport: need at least 1 processor, got %d", p)
	}
	cfg = cfg.Normalize()
	lns := make([]net.Listener, p)
	addrs := make([]string, p)
	owner := make([]int, p)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, fmt.Errorf("transport: listen for processor %d: %w", i, err)
		}
		lns[i], addrs[i], owner[i] = ln, ln.Addr().String(), i
	}
	l := &Loopback{meshes: make([]*PeerMesh, 0, p)}
	for i, ln := range lns {
		m, err := NewPeerMesh(ln, PeerConfig{Self: i, Addrs: addrs, Owner: owner, Config: cfg})
		if err != nil {
			l.Close()
			for _, rest := range lns[i:] {
				rest.Close()
			}
			return nil, err
		}
		l.meshes = append(l.meshes, m)
	}
	deadline := time.Now().Add(cfg.SetupTimeout)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for i, m := range l.meshes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for w := range l.meshes {
				if w == i {
					continue
				}
				if _, err := m.getOut(w, deadline); err != nil {
					errs[i] = fmt.Errorf("transport: dial %d->%d: %w", i, w, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			l.Close()
			return nil, err
		}
	}
	return l, nil
}

// SetObs registers the endpoints' per-peer counters and the loopback's own
// round counters against reg.
func (l *Loopback) SetObs(reg *obs.Registry) {
	for _, m := range l.meshes {
		m.SetObs(reg)
		m.rounds, m.roundFails = nil, nil
	}
	l.rounds = reg.Counter("aacc_transport_wire_rounds_total", "All-to-all rounds carried over the worker peer mesh.")
	l.roundFails = reg.Counter("aacc_transport_wire_round_failures_total", "Rounds that failed with a transport error.")
}

// RoundTrip runs one round on every endpoint concurrently with the same seq
// and assembles the [dst][src] result from each endpoint's resident row.
// Any endpoint's error fails the round.
func (l *Loopback) RoundTrip(seq uint32, frames [][][]byte) ([][][]byte, error) {
	p := len(l.meshes)
	if len(frames) != p {
		return nil, fmt.Errorf("transport: round trip needs %d rows, got %d", p, len(frames))
	}
	l.rounds.Inc()
	in := make([][][]byte, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for i, m := range l.meshes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := m.RoundTrip(seq, frames)
			if err == nil {
				in[i] = got[i]
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			l.roundFails.Inc()
			return nil, err
		}
	}
	return in, nil
}

// AllGather is the one-process identity: a loopback hosts every processor,
// so there is no other contribution to gather.
func (l *Loopback) AllGather(seq uint32, payload []byte) ([][]byte, error) {
	return [][]byte{payload}, nil
}

// Close closes every endpoint; the first error wins and is returned by
// every later call too.
func (l *Loopback) Close() error {
	l.closeOnce.Do(func() {
		for _, m := range l.meshes {
			if err := m.Close(); err != nil && l.closeErr == nil {
				l.closeErr = err
			}
		}
	})
	return l.closeErr
}

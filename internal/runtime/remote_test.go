package runtime

import (
	"fmt"
	"sync/atomic"
	"testing"

	"aacc/internal/cluster"
	"aacc/internal/logp"
)

func model(p int) logp.Params {
	return logp.Params{Latency: 1e-3, Overhead: 1e-4, Gap: 1e-9, P: p, MaxMsg: 1 << 20}
}

// chanTransport is an in-process RemoteTransport double: frames are
// transposed synchronously. It lets the wire path be tested without sockets.
type chanTransport struct {
	n      int
	rounds int
	fail   bool
	closed int
}

func (c *chanTransport) RoundTrip(seq uint32, frames [][][]byte) ([][][]byte, error) {
	if c.fail {
		return nil, fmt.Errorf("injected transport failure")
	}
	c.rounds++
	in := make([][][]byte, c.n)
	for dst := range in {
		in[dst] = make([][]byte, c.n)
	}
	for src := range frames {
		for dst, f := range frames[src] {
			if f != nil {
				in[dst][src] = f
			}
		}
	}
	return in, nil
}

func (c *chanTransport) AllGather(seq uint32, payload []byte) ([][]byte, error) {
	return [][]byte{payload}, nil
}

func (c *chanTransport) Close() error {
	c.closed++
	return nil
}

// stringCodec encodes string payloads for the double.
type stringCodec struct{}

func (stringCodec) Encode(p any) ([]byte, error) {
	s, ok := p.(string)
	if !ok {
		return nil, fmt.Errorf("not a string: %T", p)
	}
	return []byte(s), nil
}

func (stringCodec) Decode(frame []byte) (any, error) { return string(frame), nil }

// newWire builds a full-range Remote over tr: the single-process wire
// runtime with a socket-free transport.
func newWire(t *testing.T, p int, tr RemoteTransport) *Remote {
	t.Helper()
	w, err := NewRemote(p, 0, p, model(p), stringCodec{}, tr)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestWireExchangeRoutesAndAccounts(t *testing.T) {
	tr := &chanTransport{n: 3}
	w := newWire(t, 3, tr)
	out := make([][]*cluster.Mail, 3)
	for i := range out {
		out[i] = make([]*cluster.Mail, 3)
	}
	out[0][2] = &cluster.Mail{Payload: "hello", Bytes: 999} // Bytes estimate ignored in wire mode
	out[1][0] = &cluster.Mail{Payload: "yo", Bytes: 999}
	in, err := w.Exchange(out)
	if err != nil {
		t.Fatal(err)
	}
	if in[2][0] == nil || in[2][0].Payload != "hello" {
		t.Fatalf("payload lost: %+v", in[2][0])
	}
	if in[2][0].Bytes != 5 {
		t.Fatalf("wire bytes %d, want measured 5", in[2][0].Bytes)
	}
	st := w.Stats()
	if st.BytesSent != 5+2 {
		t.Fatalf("accounted %d bytes, want 7 (measured frames)", st.BytesSent)
	}
	if st.MessagesSent != 2 || st.ExchangeRounds != 1 {
		t.Fatalf("stats %+v", st)
	}
	if tr.rounds != 1 {
		t.Fatalf("transport rounds %d", tr.rounds)
	}
}

func TestWireExchangeErrorsOnTransportFailure(t *testing.T) {
	w := newWire(t, 2, &chanTransport{n: 2, fail: true})
	out := [][]*cluster.Mail{{nil, {Payload: "x", Bytes: 1}}, {nil, nil}}
	in, err := w.Exchange(out)
	if err == nil {
		t.Fatal("expected error on transport failure")
	}
	if in != nil {
		t.Fatal("failed exchange returned partial results")
	}
	if st := w.Stats(); st.ExchangeRounds != 0 || st.BytesSent != 0 {
		t.Fatalf("failed round folded into traffic accounting: %+v", st)
	}
}

func TestWireExchangeErrorsOnCodecFailure(t *testing.T) {
	w := newWire(t, 2, &chanTransport{n: 2})
	out := [][]*cluster.Mail{{nil, {Payload: 42, Bytes: 1}}, {nil, nil}}
	if _, err := w.Exchange(out); err == nil {
		t.Fatal("expected error on codec failure")
	}
}

func TestNewWireValidates(t *testing.T) {
	tr := &chanTransport{n: 2}
	for _, tc := range []struct {
		name   string
		lo, hi int
		codec  cluster.WireCodec
		tr     RemoteTransport
	}{
		{"nil codec", 0, 2, nil, tr},
		{"nil transport", 0, 2, stringCodec{}, nil},
		{"empty range", 1, 1, stringCodec{}, tr},
		{"range past P", 1, 3, stringCodec{}, tr},
	} {
		if _, err := NewRemote(2, tc.lo, tc.hi, model(2), tc.codec, tc.tr); err == nil {
			t.Errorf("%s: NewRemote accepted it", tc.name)
		}
	}
}

func TestWireCloseClosesTransport(t *testing.T) {
	tr := &chanTransport{n: 2}
	w := newWire(t, 2, tr)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if tr.closed != 1 {
		t.Fatalf("transport closed %d times, want 1", tr.closed)
	}
}

func TestParseKind(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Kind
		err  bool
	}{
		{"", Sim, false},
		{"sim", Sim, false},
		{"mem", Sim, false},
		{"tcp", WireTCP, false},
		{"wire", WireTCP, false},
		{"mpi", "", true},
	} {
		got, err := ParseKind(tc.in)
		if tc.err != (err != nil) || got != tc.want {
			t.Fatalf("ParseKind(%q) = %v, %v", tc.in, got, err)
		}
	}
}

func TestNewSimIsACluster(t *testing.T) {
	rt, err := New(Sim, 4, model(4), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if rt.P() != 4 {
		t.Fatalf("P = %d", rt.P())
	}
	ran := make([]bool, 4)
	rt.Parallel(func(p int) { ran[p] = true })
	for p, ok := range ran {
		if !ok {
			t.Fatalf("proc %d never ran", p)
		}
	}
}

func TestNewWireKindNeedsCodec(t *testing.T) {
	if _, err := New(WireTCP, 2, model(2), nil); err == nil {
		t.Fatal("expected error for wire runtime without codec")
	}
}

// TestRemoteParallelRunsResidentRange: a worker's Remote runs compute only
// for its resident processors; a full-range one runs every processor.
func TestRemoteParallelRunsResidentRange(t *testing.T) {
	for _, tc := range []struct{ lo, hi int }{{0, 5}, {1, 4}, {4, 5}} {
		r, err := NewRemote(5, tc.lo, tc.hi, model(5), stringCodec{}, &chanTransport{n: 5})
		if err != nil {
			t.Fatal(err)
		}
		var ran [5]atomic.Int32
		r.Parallel(func(p int) { ran[p].Add(1) })
		for p := range ran {
			want := int32(0)
			if p >= tc.lo && p < tc.hi {
				want = 1
			}
			if got := ran[p].Load(); got != want {
				t.Errorf("range [%d,%d): proc %d ran %d times, want %d", tc.lo, tc.hi, p, got, want)
			}
		}
	}
}

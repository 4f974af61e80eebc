package transport

import (
	"bytes"
	"errors"
	"testing"
)

// echoTransport is a loss-free in-process Transport double: frames are
// transposed into fresh allocations, as the TCP mesh would deliver them.
type echoTransport struct {
	n      int
	rounds int
}

func (e *echoTransport) RoundTrip(seq uint32, frames [][][]byte) ([][][]byte, error) {
	e.rounds++
	in := make([][][]byte, e.n)
	for dst := range in {
		in[dst] = make([][]byte, e.n)
	}
	for src := range frames {
		if frames[src] == nil {
			continue
		}
		for dst, f := range frames[src] {
			if f != nil && src != dst {
				in[dst][src] = append([]byte(nil), f...)
			}
		}
	}
	return in, nil
}

func (e *echoTransport) AllGather(seq uint32, payload []byte) ([][]byte, error) {
	return [][]byte{payload}, nil
}

func (e *echoTransport) Close() error { return nil }

func fullFrames(n int) [][][]byte {
	frames := make([][][]byte, n)
	for src := range frames {
		frames[src] = make([][]byte, n)
		for dst := range frames[src] {
			if src != dst {
				frames[src][dst] = []byte{byte(src), byte(dst), 1, 2, 3, 4, 5, 6}
			}
		}
	}
	return frames
}

func TestFaultyZeroRatePassesThrough(t *testing.T) {
	inner := &echoTransport{n: 3}
	f := NewFaulty(inner, FaultOptions{Rate: 0, Seed: 7})
	for i := 0; i < 50; i++ {
		in, err := f.RoundTrip(1, fullFrames(3))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(in[1][0], []byte{0, 1, 1, 2, 3, 4, 5, 6}) {
			t.Fatalf("round %d: frame altered: %v", i, in[1][0])
		}
	}
	for k := FaultKind(0); k < numFaultKinds; k++ {
		if f.Injected(k) != 0 {
			t.Fatalf("rate 0 injected a %v fault", k)
		}
	}
}

func TestFaultyDropSurfacesErrInjected(t *testing.T) {
	inner := &echoTransport{n: 2}
	f := NewFaulty(inner, FaultOptions{Rate: 1, Seed: 3, Kinds: []FaultKind{FaultDrop}})
	_, err := f.RoundTrip(1, fullFrames(2))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("dropped round error = %v, want ErrInjected", err)
	}
	if inner.rounds != 0 {
		t.Fatal("a dropped round still reached the inner transport")
	}
	if f.Injected(FaultDrop) != 1 {
		t.Fatalf("drop count = %d", f.Injected(FaultDrop))
	}
}

func TestFaultyTruncateDamagesOneFrame(t *testing.T) {
	inner := &echoTransport{n: 3}
	f := NewFaulty(inner, FaultOptions{Rate: 1, Seed: 5, Kinds: []FaultKind{FaultTruncate}})
	in, err := f.RoundTrip(1, fullFrames(3))
	if err != nil {
		t.Fatal(err)
	}
	short := 0
	for dst := range in {
		for src, frame := range in[dst] {
			if src == dst {
				continue
			}
			if len(frame) < 8 {
				short++
			}
		}
	}
	if short != 1 {
		t.Fatalf("truncate damaged %d frames, want exactly 1", short)
	}
	if f.Injected(FaultTruncate) != 1 {
		t.Fatalf("truncate count = %d", f.Injected(FaultTruncate))
	}
}

func TestFaultyCorruptSaturatesHeaderBytes(t *testing.T) {
	inner := &echoTransport{n: 2}
	f := NewFaulty(inner, FaultOptions{Rate: 1, Seed: 5, Kinds: []FaultKind{FaultCorrupt}})
	in, err := f.RoundTrip(1, fullFrames(2))
	if err != nil {
		t.Fatal(err)
	}
	corrupted := 0
	for dst := range in {
		for src, frame := range in[dst] {
			if src == dst || frame == nil {
				continue
			}
			if bytes.HasPrefix(frame, []byte{0xFF, 0xFF, 0xFF, 0xFF}) {
				corrupted++
			}
		}
	}
	if corrupted != 1 {
		t.Fatalf("corrupt damaged %d frames, want exactly 1", corrupted)
	}
}

// TestFaultyDeterministic runs two identically seeded wrappers over the same
// round sequence and expects identical injection schedules.
func TestFaultyDeterministic(t *testing.T) {
	run := func() ([numFaultKinds]int64, []bool) {
		f := NewFaulty(&echoTransport{n: 3}, FaultOptions{Rate: 0.4, Seed: 42})
		var dropped []bool
		for i := 0; i < 200; i++ {
			_, err := f.RoundTrip(1, fullFrames(3))
			dropped = append(dropped, errors.Is(err, ErrInjected))
		}
		var counts [numFaultKinds]int64
		for k := FaultKind(0); k < numFaultKinds; k++ {
			counts[k] = f.Injected(k)
		}
		return counts, dropped
	}
	c1, d1 := run()
	c2, d2 := run()
	if c1 != c2 {
		t.Fatalf("fault counts diverged: %v vs %v", c1, c2)
	}
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("drop schedule diverged at round %d", i)
		}
	}
	var total int64
	for _, c := range c1 {
		total += c
	}
	if total == 0 {
		t.Fatal("a 0.4 rate injected nothing in 200 rounds")
	}
}

func TestFaultyCloseForwards(t *testing.T) {
	inner := &echoTransport{n: 2}
	f := NewFaulty(inner, FaultOptions{Rate: 0.5, Seed: 1})
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFaultyKindStrings pins the metric label values.
func TestFaultyKindStrings(t *testing.T) {
	want := map[FaultKind]string{
		FaultDrop: "drop", FaultDelay: "delay",
		FaultTruncate: "truncate", FaultCorrupt: "corrupt",
	}
	for k, s := range want {
		if k.String() != s {
			t.Fatalf("%d.String() = %q, want %q", int(k), k.String(), s)
		}
	}
}

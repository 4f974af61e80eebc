package transport

import (
	"bytes"
	"math/rand"
	"testing"
)

// newLoopback builds a loopback mesh closed at test cleanup.
func newLoopback(t *testing.T, p int, cfg Config) *Loopback {
	t.Helper()
	mesh, err := NewLoopback(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mesh.Close() })
	return mesh
}

func TestRoundTripDelivery(t *testing.T) {
	mesh := newLoopback(t, 4, Config{})
	frames := make([][][]byte, 4)
	for i := range frames {
		frames[i] = make([][]byte, 4)
	}
	frames[0][2] = []byte("zero to two")
	frames[2][0] = []byte("two to zero")
	frames[3][1] = []byte{0, 1, 2, 3, 255}
	in, err := mesh.RoundTrip(1, frames)
	if err != nil {
		t.Fatal(err)
	}
	if string(in[2][0]) != "zero to two" {
		t.Fatalf("in[2][0] = %q", in[2][0])
	}
	if string(in[0][2]) != "two to zero" {
		t.Fatalf("in[0][2] = %q", in[0][2])
	}
	if !bytes.Equal(in[1][3], []byte{0, 1, 2, 3, 255}) {
		t.Fatalf("binary frame corrupted: %v", in[1][3])
	}
	if in[1][0] != nil || in[3][2] != nil {
		t.Fatal("phantom frames delivered")
	}
}

func TestRoundTripEmptyRound(t *testing.T) {
	mesh := newLoopback(t, 3, Config{})
	in, err := mesh.RoundTrip(1, make([][][]byte, 3))
	if err != nil {
		t.Fatal(err)
	}
	for dst := range in {
		for src := range in[dst] {
			if in[dst][src] != nil {
				t.Fatal("empty round delivered a frame")
			}
		}
	}
}

func TestRoundTripManyRounds(t *testing.T) {
	const n = 5
	mesh := newLoopback(t, n, Config{})
	rng := rand.New(rand.NewSource(9))
	for round := 0; round < 20; round++ {
		frames := make([][][]byte, n)
		want := map[[2]int][]byte{}
		for src := 0; src < n; src++ {
			frames[src] = make([][]byte, n)
			for dst := 0; dst < n; dst++ {
				if src == dst || rng.Intn(2) == 0 {
					continue
				}
				f := make([]byte, 1+rng.Intn(5000))
				rng.Read(f)
				frames[src][dst] = f
				want[[2]int{dst, src}] = f
			}
		}
		in, err := mesh.RoundTrip(uint32(round+1), frames)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		got := 0
		for dst := range in {
			for src, f := range in[dst] {
				if f == nil {
					continue
				}
				got++
				if !bytes.Equal(f, want[[2]int{dst, src}]) {
					t.Fatalf("round %d: frame %d->%d corrupted", round, src, dst)
				}
			}
		}
		if got != len(want) {
			t.Fatalf("round %d: delivered %d of %d frames", round, got, len(want))
		}
	}
}

func TestRoundTripLargeFrame(t *testing.T) {
	mesh := newLoopback(t, 2, Config{})
	big := make([]byte, 8<<20) // 8 MiB: far beyond socket buffers
	for i := range big {
		big[i] = byte(i * 31)
	}
	frames := [][][]byte{{nil, big}, {nil, nil}}
	in, err := mesh.RoundTrip(1, frames)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(in[1][0], big) {
		t.Fatal("large frame corrupted")
	}
}

func TestRoundTripShapeValidation(t *testing.T) {
	mesh := newLoopback(t, 2, Config{})
	if _, err := mesh.RoundTrip(1, make([][][]byte, 5)); err == nil {
		t.Fatal("bad shape accepted")
	}
}

func TestNewRejectsZero(t *testing.T) {
	if _, err := NewLoopback(0, Config{}); err == nil {
		t.Fatal("n=0 accepted")
	}
}

func TestSingleNodeMesh(t *testing.T) {
	mesh := newLoopback(t, 1, Config{})
	if _, err := mesh.RoundTrip(1, make([][][]byte, 1)); err != nil {
		t.Fatal(err)
	}
}

func TestCloseIdempotent(t *testing.T) {
	mesh, err := NewLoopback(2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := mesh.Close(); err != nil {
		t.Fatal(err)
	}
	if err := mesh.Close(); err != nil {
		t.Fatal(err)
	}
}

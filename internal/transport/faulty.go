package transport

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"aacc/internal/obs"
)

// ErrInjected tags transport errors manufactured by a Faulty wrapper, so
// tests and operators can tell injected faults from real ones.
var ErrInjected = errors.New("transport: injected fault")

// FaultKind names one class of injected fault.
type FaultKind int

const (
	// FaultDrop fails the whole round with ErrInjected without touching
	// the underlying mesh (the mesh stays consistent, as if the round
	// was lost before reaching the wire).
	FaultDrop FaultKind = iota
	// FaultDelay stalls the round briefly, then delivers it normally — a
	// congested or lossy-link pause, not a failure.
	FaultDelay
	// FaultTruncate delivers the round with one received frame cut short,
	// as a torn transfer would; the codec above detects the damage.
	FaultTruncate
	// FaultCorrupt delivers the round with one received frame's leading
	// header bytes overwritten, as line corruption would; the codec above
	// detects the damage.
	FaultCorrupt

	numFaultKinds
)

// String names the kind for labels and logs.
func (k FaultKind) String() string {
	switch k {
	case FaultDrop:
		return "drop"
	case FaultDelay:
		return "delay"
	case FaultTruncate:
		return "truncate"
	case FaultCorrupt:
		return "corrupt"
	default:
		return fmt.Sprintf("fault(%d)", int(k))
	}
}

// FaultOptions configures a Faulty wrapper.
type FaultOptions struct {
	// Rate is the per-round probability of injecting a fault, in [0,1).
	Rate float64
	// Seed drives the deterministic injection schedule: equal seeds and
	// call sequences inject identical faults.
	Seed int64
	// Kinds restricts which faults are injected (default: all four).
	Kinds []FaultKind
	// Delay is the stall injected by FaultDelay (default 2ms).
	Delay time.Duration
}

// mesh is the collective shape Faulty wraps and exposes: the shape
// runtime.Remote drives (Loopback and PeerMesh have it).
type mesh interface {
	RoundTrip(seq uint32, frames [][][]byte) ([][][]byte, error)
	AllGather(seq uint32, payload []byte) ([][]byte, error)
	Close() error
}

// Faulty wraps a mesh and deterministically injects wire faults — dropped
// rounds, delays, truncated frames, corrupted headers — into its all-to-all
// rounds, for tests and the CLI's -fault-rate mode. AllGather passes
// through. RoundTrip keeps the inner mesh's single-caller contract.
type Faulty struct {
	inner mesh
	opts  FaultOptions
	rng   *rand.Rand

	counts   [numFaultKinds]atomic.Int64
	injected []*obs.Counter // per kind, nil unless SetObs was called
	rec      *obs.Recorder  // flight recorder, nil-safe
}

// NewFaulty wraps inner with a deterministic fault injector.
func NewFaulty(inner mesh, opts FaultOptions) *Faulty {
	if opts.Delay <= 0 {
		opts.Delay = 2 * time.Millisecond
	}
	if len(opts.Kinds) == 0 {
		opts.Kinds = []FaultKind{FaultDrop, FaultDelay, FaultTruncate, FaultCorrupt}
	}
	return &Faulty{inner: inner, opts: opts, rng: rand.New(rand.NewSource(opts.Seed))}
}

// SetObs registers the injection counters and forwards the registry to the
// inner mesh when it is observable too.
func (f *Faulty) SetObs(reg *obs.Registry) {
	f.rec = reg.Events()
	f.injected = make([]*obs.Counter, numFaultKinds)
	for k := FaultKind(0); k < numFaultKinds; k++ {
		f.injected[k] = reg.Counter("aacc_transport_injected_faults_total",
			"Faults injected by the transport fault wrapper, by kind.",
			obs.L("kind", k.String()))
	}
	if ob, ok := f.inner.(interface{ SetObs(*obs.Registry) }); ok {
		ob.SetObs(reg)
	}
}

// Injected returns how many faults of kind k were injected so far.
func (f *Faulty) Injected(k FaultKind) int64 {
	if k < 0 || k >= numFaultKinds {
		return 0
	}
	return f.counts[k].Load()
}

func (f *Faulty) note(k FaultKind) {
	f.counts[k].Add(1)
	if f.injected != nil {
		f.injected[k].Inc()
	}
	f.rec.Record("transport", "injected-fault", 0, k.String())
}

// RoundTrip runs the inner round, injecting at most one fault.
func (f *Faulty) RoundTrip(seq uint32, frames [][][]byte) ([][][]byte, error) {
	if f.opts.Rate <= 0 || f.rng.Float64() >= f.opts.Rate {
		return f.inner.RoundTrip(seq, frames)
	}
	kind := f.opts.Kinds[f.rng.Intn(len(f.opts.Kinds))]
	switch kind {
	case FaultDrop:
		f.note(kind)
		return nil, fmt.Errorf("%w: round dropped", ErrInjected)
	case FaultDelay:
		f.note(kind)
		time.Sleep(f.opts.Delay)
		return f.inner.RoundTrip(seq, frames)
	case FaultTruncate, FaultCorrupt:
		in, err := f.inner.RoundTrip(seq, frames)
		if err != nil {
			return nil, err
		}
		if f.damage(in, kind) {
			f.note(kind)
		}
		return in, nil
	default:
		return f.inner.RoundTrip(seq, frames)
	}
}

// damage mutates one delivered frame in place (a frame read off a socket is
// freshly allocated, never shared with the sender, and a Loopback carries
// every frame over one). It reports whether a frame was available to damage.
func (f *Faulty) damage(in [][][]byte, kind FaultKind) bool {
	var cells [][2]int
	for dst := range in {
		for src, frame := range in[dst] {
			if len(frame) > 0 {
				cells = append(cells, [2]int{dst, src})
			}
		}
	}
	if len(cells) == 0 {
		return false
	}
	c := cells[f.rng.Intn(len(cells))]
	frame := in[c[0]][c[1]]
	switch kind {
	case FaultTruncate:
		in[c[0]][c[1]] = frame[:len(frame)/2]
	case FaultCorrupt:
		// Saturate the frame's leading bytes — for the engine's wire codec
		// that is the row-count header, so the damage is structurally
		// impossible and decoding fails instead of installing bad data.
		for i := 0; i < len(frame) && i < 4; i++ {
			frame[i] = 0xFF
		}
	}
	return true
}

// AllGather passes through to the inner mesh.
func (f *Faulty) AllGather(seq uint32, payload []byte) ([][]byte, error) {
	return f.inner.AllGather(seq, payload)
}

// Close closes the inner mesh.
func (f *Faulty) Close() error { return f.inner.Close() }

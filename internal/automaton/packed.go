package automaton

import "math/bits"

// Packed is the bit-parallel transition view of a complete DFA with at
// most 64 states: per (alphabet position, state) it stores the
// predecessor set {q' : ∆(q', Alphabet[i]) = q} as one uint64 word, so
// a product search can advance ALL automaton states of a graph vertex
// with a handful of AND/OR/shift operations instead of one predecessor
// scan per state (see internal/rspq's bit-parallel kernels).
//
// Like RevIndex, Packed depends only on Delta and Alphabet — never on
// Accept — so shallow DFA copies (WithStart, Complement) may share it
// and SetDelta drops it. The accept mask is derived per use via
// AcceptMask, which keeps Complement's accept flip safe.
//
// The table is immutable once built and safe for concurrent readers.
type Packed struct {
	m, l int
	// pred[i*m+q] is the bitmask of states q' with ∆(q', Alphabet[i]) = q.
	pred []uint64
	// step[i*m+q] = ∆(q, Alphabet[i]): the forward transitions re-packed
	// as one flat byte table (states fit a byte with m ≤ 64), so the
	// distance kernels' witness replay resolves the successor state of a
	// matched bit without touching the DFA's wider Delta array.
	step []uint8
}

// NewPacked builds the packed transition table of d, or nil when d has
// more than 64 states (the bit-parallel kernels then fall back to the
// generic RevIndex form).
func NewPacked(d *DFA) *Packed {
	if d.NumStates > 64 {
		return nil
	}
	L := len(d.Alphabet)
	p := &Packed{
		m:    d.NumStates,
		l:    L,
		pred: make([]uint64, L*d.NumStates),
		step: make([]uint8, L*d.NumStates),
	}
	for q := 0; q < d.NumStates; q++ {
		for i := 0; i < L; i++ {
			t := d.Delta[q*L+i]
			p.pred[i*d.NumStates+t] |= 1 << uint(q)
			p.step[i*d.NumStates+q] = uint8(t)
		}
	}
	return p
}

// NumStates returns the packed state count (≤ 64).
func (p *Packed) NumStates() int { return p.m }

// PredMask returns the bitmask of states stepping into q on the i-th
// alphabet letter.
func (p *Packed) PredMask(q, i int) uint64 { return p.pred[i*p.m+q] }

// StepIndex returns ∆(q, Alphabet[i]) from the packed forward table —
// the byte-tight counterpart of DFA.StepIndex used by the distance
// kernels' witness replay.
func (p *Packed) StepIndex(q, i int) int { return int(p.step[i*p.m+q]) }

// PredOf returns the predecessor word of w under the i-th alphabet
// letter: the bitmask of states q' with ∆(q', Alphabet[i]) ∈ w. One
// call replaces |w| RevIndex.Pred enumerations.
func (p *Packed) PredOf(w uint64, i int) uint64 {
	out := uint64(0)
	base := i * p.m
	for w != 0 {
		q := bits.TrailingZeros64(w)
		w &= w - 1
		out |= p.pred[base+q]
	}
	return out
}

// AcceptMask returns d's accepting states as a bitmask; it must be
// recomputed per use (never cached on Packed) because shallow DFA
// copies share the packed table while disagreeing on Accept.
func AcceptMask(d *DFA) uint64 {
	w := uint64(0)
	for q, acc := range d.Accept {
		if acc && q < 64 {
			w |= 1 << uint(q)
		}
	}
	return w
}

// Packed returns the DFA's packed transition table, building it on
// first use, or nil when the DFA has more than 64 states. The table is
// cached on the DFA and dropped by SetDelta; like Rev, call Packed once
// during setup before querying from multiple goroutines (Solver
// construction does this).
func (d *DFA) Packed() *Packed {
	if !d.packedBuilt {
		d.packed = NewPacked(d)
		d.packedBuilt = true
	}
	return d.packed
}

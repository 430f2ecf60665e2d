package automaton

import "math/bits"

// Packed is the bit-parallel transition view of an automaton over m
// states: per (alphabet position, state) it stores the predecessor set
// {q' : q' -Alphabet[i]-> q} as W = ⌈m/64⌉ uint64 words, one per lane of
// 64 states, so a product search can advance all automaton states of a
// graph vertex with a handful of AND/OR operations instead of one
// predecessor scan per state (see internal/rspq's packed sweep). A DFA
// and an ε-free NFA are stored alike.
//
// Packed depends only on the transitions and the alphabet — never on
// Accept — so shallow DFA copies (WithStart, Complement) may share it and
// SetDelta drops it. The accept lanes are derived per use via AcceptMask,
// which keeps Complement's accept flip safe.
//
// The table is immutable once built and safe for concurrent readers.
type Packed struct {
	m, l, lanes int
	// pred[(k*l+i)*m+q] is lane k of the predecessors of q on
	// Alphabet[i]: bit b set iff state 64k+b steps into q.
	pred []uint64
}

// newPacked returns an empty table for m states over l letters.
func newPacked(m, l int) *Packed {
	lanes := (m + 63) / 64
	return &Packed{m: m, l: l, lanes: lanes, pred: make([]uint64, lanes*l*m)}
}

// addArc records the transition q -Alphabet[i]-> t.
func (p *Packed) addArc(q, i, t int) {
	p.pred[((q/64)*p.l+i)*p.m+t] |= 1 << uint(q%64)
}

// NewPacked builds the packed transition table of d.
func NewPacked(d *DFA) *Packed {
	L := len(d.Alphabet)
	p := newPacked(d.NumStates, L)
	for q := 0; q < d.NumStates; q++ {
		for i := 0; i < L; i++ {
			p.addArc(q, i, d.Delta[q*L+i])
		}
	}
	return p
}

// NewPackedNFA builds the packed predecessor table of the ε-free NFA n
// (its ε-transitions are ignored). A sweep over it runs mark-only: walks
// are read off distances with a DFA's forward steps.
func NewPackedNFA(n *NFA) *Packed {
	p := newPacked(n.NumStates, len(n.Alphabet))
	for q, es := range n.Edges {
		for _, e := range es {
			p.addArc(q, n.Alphabet.Index(e.Label), e.To)
		}
	}
	return p
}

// Lanes returns W = ⌈m/64⌉, the words a state set takes.
func (p *Packed) Lanes() int { return p.lanes }

// PredOf returns lane kt of the predecessor set of w, a set of states
// in lane k, under the i-th alphabet letter: bit b set iff state 64kt+b
// steps on Alphabet[i] into a state of w. One call replaces |w|
// per-state predecessor enumerations.
func (p *Packed) PredOf(w uint64, k, kt, i int) uint64 {
	out := uint64(0)
	base := (kt*p.l+i)*p.m + 64*k
	for w != 0 {
		out |= p.pred[base+bits.TrailingZeros64(w)]
		w &= w - 1
	}
	return out
}

// AcceptMask returns lane k of the accepting set accept: bit b set iff
// state 64k+b accepts. It is derived per use (never cached on Packed)
// because shallow DFA copies share the packed table while disagreeing on
// Accept.
func AcceptMask(accept []bool, k int) uint64 {
	w := uint64(0)
	for b, acc := range accept[64*k : min(64*k+64, len(accept))] {
		if acc {
			w |= 1 << uint(b)
		}
	}
	return w
}

// Packed returns the DFA's packed transition table, building it on
// first use. The table is cached on the DFA and dropped by SetDelta;
// call Packed once during setup before querying from multiple goroutines
// (Solver construction does this).
func (d *DFA) Packed() *Packed {
	if d.packed == nil {
		d.packed = NewPacked(d)
	}
	return d.packed
}

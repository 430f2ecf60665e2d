package automaton

import (
	"fmt"
	"strings"
)

// DFA is a complete deterministic finite automaton. States are dense
// integers in [0, NumStates); the transition function is stored row-major
// in Delta: Delta[q*len(Alphabet)+i] is the successor of q on Alphabet[i].
type DFA struct {
	NumStates int
	Alphabet  Alphabet
	Start     int
	Accept    []bool
	Delta     []int

	// packed caches the packed transition table (see Packed); it
	// depends only on Delta and Alphabet, so shallow copies (WithStart,
	// Complement) may share it, and SetDelta drops it.
	packed *Packed
}

// NewDFA returns a complete DFA skeleton with n states whose transitions
// all point at state 0; the caller fills in Delta.
func NewDFA(n int, alphabet Alphabet, start int) *DFA {
	return &DFA{
		NumStates: n,
		Alphabet:  alphabet,
		Start:     start,
		Accept:    make([]bool, n),
		Delta:     make([]int, n*len(alphabet)),
	}
}

// Step returns ∆(q, label). It panics if label is outside the alphabet;
// use StepOK for a checked variant.
func (d *DFA) Step(q int, label byte) int {
	i := d.Alphabet.Index(label)
	if i < 0 {
		panic(fmt.Sprintf("automaton: label %q outside alphabet %s", label, d.Alphabet))
	}
	return d.Delta[q*len(d.Alphabet)+i]
}

// StepOK returns ∆(q, label) and whether label is in the alphabet.
func (d *DFA) StepOK(q int, label byte) (int, bool) {
	i := d.Alphabet.Index(label)
	if i < 0 {
		return -1, false
	}
	return d.Delta[q*len(d.Alphabet)+i], true
}

// StepIndex returns the successor of q on the i-th alphabet letter.
func (d *DFA) StepIndex(q, i int) int { return d.Delta[q*len(d.Alphabet)+i] }

// SetDelta sets ∆(q, label) = to.
func (d *DFA) SetDelta(q int, label byte, to int) {
	i := d.Alphabet.Index(label)
	if i < 0 {
		panic(fmt.Sprintf("automaton: label %q outside alphabet %s", label, d.Alphabet))
	}
	d.packed = nil
	d.Delta[q*len(d.Alphabet)+i] = to
}

// Run returns ∆(q, w), reading w letter by letter. The second result is
// false if some letter of w is outside the alphabet (the run logically
// falls into a reject sink).
func (d *DFA) Run(q int, w string) (int, bool) {
	for i := 0; i < len(w); i++ {
		next, ok := d.StepOK(q, w[i])
		if !ok {
			return -1, false
		}
		q = next
	}
	return q, true
}

// Member reports whether w ∈ L(A) reading from the start state.
func (d *DFA) Member(w string) bool {
	q, ok := d.Run(d.Start, w)
	return ok && d.Accept[q]
}

// MemberFrom reports whether w ∈ L_q, the language accepted from q.
func (d *DFA) MemberFrom(q int, w string) bool {
	q2, ok := d.Run(q, w)
	return ok && d.Accept[q2]
}

// WithStart returns a shallow copy of the DFA whose start state is q.
// This is the state language L_q of the paper.
func (d *DFA) WithStart(q int) *DFA {
	c := *d
	c.Start = q
	return &c
}

// Clone returns a deep copy.
func (d *DFA) Clone() *DFA {
	c := *d
	c.Accept = append([]bool{}, d.Accept...)
	c.Delta = append([]int{}, d.Delta...)
	return &c
}

// Complement returns the DFA for the complement language (over the same
// alphabet). The receiver must be complete, which all DFAs in this
// package are.
func (d *DFA) Complement() *DFA {
	c := d.Clone()
	for q := range c.Accept {
		c.Accept[q] = !c.Accept[q]
	}
	return c
}

// ExtendAlphabet returns an equivalent DFA over the larger alphabet; new
// letters lead to a fresh rejecting sink.
func (d *DFA) ExtendAlphabet(alpha Alphabet) *DFA {
	if d.Alphabet.Equal(alpha) {
		return d.Clone()
	}
	merged := d.Alphabet.Union(alpha)
	n := d.NumStates
	sink := n
	out := NewDFA(n+1, merged, d.Start)
	copy(out.Accept, d.Accept)
	for q := 0; q <= n; q++ {
		for _, label := range merged {
			to := sink
			if q < n {
				if t, ok := d.StepOK(q, label); ok {
					to = t
				}
			}
			out.SetDelta(q, label, to)
		}
	}
	return out
}

// Reachable returns the set of states reachable from the start state.
func (d *DFA) Reachable() []bool {
	seen := make([]bool, d.NumStates)
	stack := []int{d.Start}
	seen[d.Start] = true
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for i := range d.Alphabet {
			t := d.StepIndex(q, i)
			if !seen[t] {
				seen[t] = true
				stack = append(stack, t)
			}
		}
	}
	return seen
}

// CoReachable returns the set of states from which an accepting state is
// reachable.
func (d *DFA) CoReachable() []bool {
	// Build reverse adjacency.
	radj := make([][]int, d.NumStates)
	for q := 0; q < d.NumStates; q++ {
		for i := range d.Alphabet {
			t := d.StepIndex(q, i)
			radj[t] = append(radj[t], q)
		}
	}
	seen := make([]bool, d.NumStates)
	var stack []int
	for q, acc := range d.Accept {
		if acc {
			seen[q] = true
			stack = append(stack, q)
		}
	}
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range radj[q] {
			if !seen[p] {
				seen[p] = true
				stack = append(stack, p)
			}
		}
	}
	return seen
}

// IsEmpty reports whether L(A) = ∅.
func (d *DFA) IsEmpty() bool {
	reach := d.Reachable()
	for q, acc := range d.Accept {
		if acc && reach[q] {
			return false
		}
	}
	return true
}

// IsSink reports whether q is a rejecting sink: non-accepting with all
// transitions looping on itself.
func (d *DFA) IsSink(q int) bool {
	if d.Accept[q] {
		return false
	}
	for i := range d.Alphabet {
		if d.StepIndex(q, i) != q {
			return false
		}
	}
	return true
}

// String renders the DFA transition table; for debugging and tests.
func (d *DFA) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "DFA states=%d start=%d alphabet=%s\n", d.NumStates, d.Start, d.Alphabet)
	for q := 0; q < d.NumStates; q++ {
		mark := " "
		if d.Accept[q] {
			mark = "*"
		}
		fmt.Fprintf(&b, "%s q%d:", mark, q)
		for i, label := range d.Alphabet {
			fmt.Fprintf(&b, " %c→q%d", label, d.StepIndex(q, i))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ToNFA converts the DFA into an equivalent NFA (no ε-transitions).
func (d *DFA) ToNFA() *NFA {
	n := NewNFA(d.NumStates, d.Alphabet, d.Start)
	copy(n.Accept, d.Accept)
	for q := 0; q < d.NumStates; q++ {
		for i, label := range d.Alphabet {
			n.AddEdge(q, label, d.StepIndex(q, i))
		}
	}
	return n
}

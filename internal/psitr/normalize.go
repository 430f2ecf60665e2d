package psitr

import (
	"fmt"
	"strings"

	"repro/internal/automaton"
)

// FromRegex attempts to normalize a general regular expression into an
// equivalent Ψtr expression. It succeeds exactly on expressions whose
// shape fits the fragment after standard rewrites: distributing unions,
// recognizing homogeneous letter-class factors A^S via an exact
// length-range calculus, absorbing mandatory A^{≥k} factors as A* terms
// plus k boundary letters (A^{≥k} = A^k·A* = A*·A^k), and commuting
// class words through same-class gaps. Languages outside trC — (aa)*,
// a*ba*, (ab)*, … — are structurally rejected.
//
// The normalizer is syntactic: it can fail on contrived regexes whose
// language is nonetheless in trC (on a cyclic graph such a language
// then falls to the exact baseline, unless it is finite or
// subword-closed), but when it succeeds the output denotes exactly the
// input language, which tests verify by DFA equivalence.
func FromRegex(r *automaton.Regex) (*Expr, error) {
	lists, err := expand(r, 0)
	if err != nil {
		return nil, err
	}
	e := &Expr{}
	var firstErr error
	for _, items := range lists {
		seq, err := assemble(items)
		if err != nil {
			// A failing branch may be redundant (mandatory gaps emit
			// A^k·A* and A*·A^k alternatives with identical unions);
			// drop it and let the final equivalence check decide.
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		e.Seqs = append(e.Seqs, seq)
	}
	if err := e.Validate(); err != nil {
		return nil, err
	}
	// Self-verification: the result must denote exactly the input
	// language. This both recovers from dropped redundant branches and
	// guarantees the normalizer can never succeed wrongly.
	want := automaton.CompileRegexToMinDFA(r, nil)
	got := e.MinDFA(nil)
	if !automaton.Equivalent(got, want) {
		if firstErr != nil {
			return nil, firstErr
		}
		return nil, fmt.Errorf("psitr: internal: normalization of %v changed the language", r)
	}
	return e, nil
}

// maxSequences caps the union blowup during normalization.
const maxSequences = 512

// item is an intermediate normalization unit.
type item struct {
	kind itemKind
	w    string             // letters / optWord
	a    automaton.Alphabet // gap class
	k    int                // gap minimum
}

type itemKind int

const (
	itLetters itemKind = iota // mandatory literal letters
	itOptWord                 // (w + ε)
	itOptGap                  // (A^{≥k} + ε)
)

// lrange is the exact length-range abstraction: a language of the form
// {w ∈ A* : |w| ∈ S} with S = ({0} if eps) ∪ [lo, hi], where every
// length in [lo, hi] is fully populated (all A-words of that length).
// hi = -1 denotes ∞; lo = -1 denotes "no non-empty part".
type lrange struct {
	class automaton.Alphabet
	eps   bool
	lo    int
	hi    int
}

func (r lrange) empty() bool { return !r.eps && r.lo < 0 }

// gapRangeOf computes the exact length-range of r, when r is a
// homogeneous letter-class expression. ok = false means r is not of
// that shape (which is not an error; callers fall back to structural
// expansion).
func gapRangeOf(r *automaton.Regex) (lrange, bool) {
	switch r.Op {
	case automaton.OpEmpty:
		return lrange{lo: -1, hi: -1}, true
	case automaton.OpEps:
		return lrange{eps: true, lo: -1, hi: -1}, true
	case automaton.OpLetter:
		return lrange{class: automaton.NewAlphabet(r.Label), lo: 1, hi: 1}, true
	case automaton.OpUnion:
		var acc *lrange
		for _, sub := range r.Subs {
			sr, ok := gapRangeOf(sub)
			if !ok {
				return lrange{}, false
			}
			if acc == nil {
				acc = &sr
			} else {
				merged, ok := unionRanges(*acc, sr)
				if !ok {
					return lrange{}, false
				}
				acc = &merged
			}
		}
		if acc == nil {
			return lrange{lo: -1, hi: -1}, true
		}
		return *acc, true
	case automaton.OpConcat:
		acc := lrange{eps: true, lo: -1, hi: -1}
		for _, sub := range r.Subs {
			sr, ok := gapRangeOf(sub)
			if !ok {
				return lrange{}, false
			}
			merged, ok := concatRanges(acc, sr)
			if !ok {
				return lrange{}, false
			}
			acc = merged
		}
		return acc, true
	case automaton.OpOpt:
		sr, ok := gapRangeOf(r.Subs[0])
		if !ok {
			return lrange{}, false
		}
		sr.eps = true
		return sr, true
	case automaton.OpStar:
		sr, ok := gapRangeOf(r.Subs[0])
		if !ok {
			return lrange{}, false
		}
		return iterRange(sr, 0, -1)
	case automaton.OpPlus:
		sr, ok := gapRangeOf(r.Subs[0])
		if !ok {
			return lrange{}, false
		}
		return iterRange(sr, 1, -1)
	case automaton.OpRepeat:
		sr, ok := gapRangeOf(r.Subs[0])
		if !ok {
			return lrange{}, false
		}
		return iterRange(sr, r.Min, r.Max)
	}
	return lrange{}, false
}

// unionRanges merges two length-ranges when the result is still a
// single contiguous range over one class.
func unionRanges(a, b lrange) (lrange, bool) {
	if a.empty() || a.lo < 0 && !a.eps {
		return b, true
	}
	if b.empty() {
		return a, true
	}
	// Class compatibility: ε-only ranges have no class.
	switch {
	case a.lo < 0:
		b.eps = b.eps || a.eps
		return b, true
	case b.lo < 0:
		a.eps = a.eps || b.eps
		return a, true
	case !a.class.Equal(b.class):
		// Distinct classes merge only at length exactly one:
		// A^[1,1] ∪ B^[1,1] = (A∪B)^[1,1]. At any other length the
		// union is not full over the merged class (e.g. aa|bb ≠ [ab]²).
		if a.lo == 1 && a.hi == 1 && b.lo == 1 && b.hi == 1 {
			return lrange{class: a.class.Union(b.class), eps: a.eps || b.eps, lo: 1, hi: 1}, true
		}
		return lrange{}, false
	}
	lo, hi := a.lo, a.hi
	// Merge [a.lo,a.hi] with [b.lo,b.hi]; they must overlap or touch.
	if b.lo < lo {
		lo, hi, a, b = b.lo, b.hi, b, a
	}
	if hi != -1 && b.lo > hi+1 {
		return lrange{}, false
	}
	if hi != -1 && (b.hi == -1 || b.hi > hi) {
		hi = b.hi
	}
	return lrange{class: a.class, eps: a.eps || b.eps, lo: lo, hi: hi}, true
}

// concatRanges computes the sumset range of two length-ranges.
func concatRanges(a, b lrange) (lrange, bool) {
	if a.empty() || b.empty() {
		return lrange{lo: -1, hi: -1}, true
	}
	if a.lo < 0 { // a is {ε}
		return b, true
	}
	if b.lo < 0 {
		return a, true
	}
	if !a.class.Equal(b.class) {
		return lrange{}, false
	}
	sum := func(x, y int) int {
		if x == -1 || y == -1 {
			return -1
		}
		return x + y
	}
	out := lrange{class: a.class, eps: a.eps && b.eps, lo: sum(a.lo, b.lo), hi: sum(a.hi, b.hi)}
	var parts []lrange
	parts = append(parts, out)
	if a.eps {
		parts = append(parts, lrange{class: a.class, lo: b.lo, hi: b.hi})
	}
	if b.eps {
		parts = append(parts, lrange{class: a.class, lo: a.lo, hi: a.hi})
	}
	acc := parts[0]
	for _, p := range parts[1:] {
		merged, ok := unionRanges(acc, p)
		if !ok {
			return lrange{}, false
		}
		acc = merged
	}
	acc.eps = a.eps && b.eps
	return acc, true
}

// iterRange computes the range of x^{t0..t1} (t1 = -1 for unbounded).
func iterRange(x lrange, t0, t1 int) (lrange, bool) {
	if t1 != -1 && t1 < t0 {
		return lrange{lo: -1, hi: -1}, true // empty repetition spec
	}
	if x.empty() {
		if t0 == 0 {
			return lrange{eps: true, lo: -1, hi: -1}, true
		}
		return lrange{lo: -1, hi: -1}, true
	}
	if x.lo < 0 { // x = {ε}
		return lrange{eps: true, lo: -1, hi: -1}, true
	}
	eps := t0 == 0 || x.eps
	// With ε available in x, any number of non-empty copies up to t1 is
	// achievable regardless of t0.
	s0 := t0
	if x.eps {
		s0 = 0
	}
	if s0 == 0 {
		eps = true
		s0 = 1
	}
	// Non-empty part: ⋃_{s=s0..t1} [s·lo, s·hi].
	if s0 != t1 {
		// Contiguity: consecutive scaled intervals must touch. The
		// binding check is at s0; for hi > lo it then holds for all
		// larger s, and for hi == lo it reduces to lo ≤ 1 uniformly.
		if x.hi != -1 && (s0+1)*x.lo > s0*x.hi+1 {
			return lrange{}, false
		}
	}
	lo := s0 * x.lo
	hi := -1
	if t1 != -1 && x.hi != -1 {
		hi = t1 * x.hi
	}
	return lrange{class: x.class, eps: eps, lo: lo, hi: hi}, true
}

// rangeItems converts an exact length-range into normalization item
// alternatives.
func rangeItems(r lrange) ([][]item, error) {
	if r.empty() {
		return nil, nil
	}
	if r.lo < 0 { // {ε}
		return [][]item{{}}, nil
	}
	if r.hi == -1 {
		if r.eps || r.lo == 0 {
			return [][]item{{{kind: itOptGap, a: r.class, k: r.lo}}}, nil
		}
		// Mandatory A^{≥lo} = A^lo·A* = A*·A^lo: lo boundary letters on
		// either side of a gap. Both orders are emitted as alternatives
		// (their union is still exactly A^{≥lo}): letters-first lets
		// assemble absorb them into the prefix when the gap opens the
		// sequence, letters-last lets them flow toward the suffix when
		// a term precedes. Single-letter classes keep one order; the
		// commute rule in assemble covers the other side.
		words, err := classWords(r.class, r.lo, r.lo)
		if err != nil {
			return nil, err
		}
		var out [][]item
		for _, w := range words {
			out = append(out, []item{{kind: itLetters, w: w}, {kind: itOptGap, a: r.class, k: 0}})
			if len(r.class) > 1 {
				out = append(out, []item{{kind: itOptGap, a: r.class, k: 0}, {kind: itLetters, w: w}})
			}
		}
		if len(out) > maxSequences {
			return nil, fmt.Errorf("psitr: mandatory gap expansion exceeds %d sequences", maxSequences)
		}
		return out, nil
	}
	// Bounded range: enumerate the words. With ε in the range, each
	// word becomes an optional-word term — (w1|…|wn|ε) equals
	// (w1+ε)|…|(wn+ε), and optional terms keep mid-sequence positions
	// legal where mandatory letters would not be.
	words, err := classWords(r.class, r.lo, r.hi)
	if err != nil {
		return nil, err
	}
	var out [][]item
	sawEps := false
	for _, w := range words {
		if w == "" {
			sawEps = true
			out = append(out, []item{})
			continue
		}
		if r.eps {
			out = append(out, []item{{kind: itOptWord, w: w}})
		} else {
			out = append(out, []item{{kind: itLetters, w: w}})
		}
	}
	if r.eps && !sawEps && len(words) == 0 {
		out = append(out, []item{})
	}
	return out, nil
}

// classWords enumerates all words over the class with length in
// [lo, hi], capped.
func classWords(class automaton.Alphabet, lo, hi int) ([]string, error) {
	var out []string
	frontier := []string{""}
	for l := 0; l <= hi; l++ {
		if l >= lo {
			out = append(out, frontier...)
			if len(out) > maxSequences {
				return nil, fmt.Errorf("psitr: class-word expansion exceeds %d sequences", maxSequences)
			}
		}
		if l == hi {
			break
		}
		var next []string
		for _, w := range frontier {
			for _, a := range class {
				next = append(next, w+string(a))
			}
		}
		if len(next) > maxSequences {
			return nil, fmt.Errorf("psitr: class-word expansion exceeds %d sequences", maxSequences)
		}
		frontier = next
	}
	return out, nil
}

// expand flattens r into a disjunction of item lists.
func expand(r *automaton.Regex, depth int) ([][]item, error) {
	if depth > 64 {
		return nil, fmt.Errorf("psitr: expression too deeply nested")
	}
	// Exact words are always items.
	if w, ok := wordShapeOf(r); ok {
		if w == "" {
			return [][]item{{}}, nil
		}
		return [][]item{{{kind: itLetters, w: w}}}, nil
	}
	// Homogeneous class ranges are gap items.
	if rng, ok := gapRangeOf(r); ok {
		return rangeItems(rng)
	}
	switch r.Op {
	case automaton.OpEmpty:
		return nil, nil
	case automaton.OpConcat:
		out := [][]item{{}}
		for _, sub := range r.Subs {
			alts, err := expand(sub, depth+1)
			if err != nil {
				return nil, err
			}
			var next [][]item
			for _, head := range out {
				for _, tail := range alts {
					combined := make([]item, 0, len(head)+len(tail))
					combined = append(combined, head...)
					combined = append(combined, tail...)
					next = append(next, combined)
					if len(next) > maxSequences {
						return nil, fmt.Errorf("psitr: union expansion exceeds %d sequences", maxSequences)
					}
				}
			}
			out = next
		}
		return out, nil
	case automaton.OpUnion:
		var out [][]item
		for _, sub := range r.Subs {
			alts, err := expand(sub, depth+1)
			if err != nil {
				return nil, err
			}
			out = append(out, alts...)
			if len(out) > maxSequences {
				return nil, fmt.Errorf("psitr: union expansion exceeds %d sequences", maxSequences)
			}
		}
		return out, nil
	case automaton.OpOpt:
		if w, ok := wordShapeOf(r.Subs[0]); ok && w != "" {
			return [][]item{{{kind: itOptWord, w: w}}}, nil
		}
		return expand(automaton.Union(r.Subs[0], automaton.Eps()), depth+1)
	case automaton.OpRepeat:
		if r.Max < 0 {
			return nil, fmt.Errorf("psitr: %v is not expressible in Ψtr (unbounded repetition of a non-homogeneous body)", r)
		}
		var out [][]item
		for count := r.Min; count <= r.Max; count++ {
			copies := make([]*automaton.Regex, count)
			for i := range copies {
				copies[i] = r.Subs[0]
			}
			alts, err := expand(automaton.Concat(copies...), depth+1)
			if err != nil {
				return nil, err
			}
			out = append(out, alts...)
			if len(out) > maxSequences {
				return nil, fmt.Errorf("psitr: bounded repetition exceeds %d sequences", maxSequences)
			}
		}
		return out, nil
	case automaton.OpStar, automaton.OpPlus:
		return nil, fmt.Errorf("psitr: %v is not expressible in Ψtr (iteration of a non-homogeneous body)", r)
	}
	return nil, fmt.Errorf("psitr: unsupported regex shape %v", r)
}

// wordShapeOf recognizes expressions denoting a single word.
func wordShapeOf(r *automaton.Regex) (string, bool) {
	switch r.Op {
	case automaton.OpEps:
		return "", true
	case automaton.OpLetter:
		return string(r.Label), true
	case automaton.OpConcat:
		var b strings.Builder
		for _, s := range r.Subs {
			w, ok := wordShapeOf(s)
			if !ok {
				return "", false
			}
			b.WriteString(w)
		}
		return b.String(), true
	case automaton.OpRepeat:
		if r.Min != r.Max || r.Max < 0 {
			return "", false
		}
		w, ok := wordShapeOf(r.Subs[0])
		if !ok {
			return "", false
		}
		return strings.Repeat(w, r.Min), true
	}
	return "", false
}

// assemble runs the Ψtr shape check over one item list: mandatory
// letters may only sit before the first term (prefix), after the last
// term (suffix), or commute through gap terms over their own class
// (w·(A^{≥k}+ε) = (A^{≥k}+ε)·w for w ∈ A*).
func assemble(items []item) (*Sequence, error) {
	seq := &Sequence{}
	pending := ""
	emitTerm := func(t Term) error {
		if len(seq.Terms) == 0 {
			seq.Prefix = pending
			pending = ""
		} else if pending != "" {
			// A pending mandatory word may only commute through a
			// single-letter gap over its own letter: a^j·(a^{≥k}+ε) =
			// (a^{≥k}+ε)·a^j. For |A| > 1 the identity fails
			// (b·[ab]* ≠ [ab]*·b), so the sequence is rejected.
			if t.Kind != Gap || len(t.A) != 1 || !allIn(pending, t.A) {
				return fmt.Errorf("psitr: mandatory word %q between terms is outside the fragment", pending)
			}
			// Keep pending: it commutes to after this gap.
		}
		seq.Terms = append(seq.Terms, t)
		return nil
	}
	for _, it := range items {
		switch it.kind {
		case itLetters:
			pending += it.w
		case itOptWord:
			if err := emitTerm(Term{Kind: OptWord, W: it.w}); err != nil {
				return nil, err
			}
		case itOptGap:
			if err := emitTerm(Term{Kind: Gap, A: it.a, K: it.k}); err != nil {
				return nil, err
			}
		}
	}
	seq.Suffix = pending
	return seq, nil
}

func allIn(w string, a automaton.Alphabet) bool {
	for i := 0; i < len(w); i++ {
		if !a.Contains(w[i]) {
			return false
		}
	}
	return true
}

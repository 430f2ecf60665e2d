package automaton

import "testing"

// expandedSize bounds the NFA a regex compiles to: the node count with
// every bounded repetition unrolled. It saturates at limit so hostile
// bounds (a{999999999}) cannot overflow.
func expandedSize(r *Regex, limit int) int {
	n := 1
	for _, s := range r.Subs {
		n += expandedSize(s, limit)
		if n >= limit {
			return limit
		}
	}
	if r.Op == OpRepeat {
		copies := max(r.Min, r.Max) + 1
		if copies >= limit || n*copies >= limit {
			return limit
		}
		n *= copies
	}
	return n
}

// FuzzParseRegex feeds arbitrary bytes to the regex parser — the first
// code that touches a pattern arriving from outside (rspqd -pattern,
// the CLIs, Compile). It must reject malformed input with an error,
// never a panic; and whatever it accepts must survive printing and
// re-parsing with the language unchanged, checked by comparing minimal
// DFAs whenever the expression is small enough to determinize quickly.
func FuzzParseRegex(f *testing.F) {
	for _, seed := range []string{
		"a*(bb+|())c*", "a(c{2,}|())(a|b)*(ac)?a*", "a+c?b+", "[ab]{2,}", "a{2,4}b*",
		"ab|b*a", "(aa)*", "ε|∅", "()", "[]", "a{3", "a{2,1}", "((a)", "a)", "*a", "a||b",
		"a{99999999999999999999}", "[a-c]", "a\x00b", "\xff\xfe",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, pattern string) {
		r, err := ParseRegex(pattern)
		if err != nil {
			return // rejection is the expected outcome for malformed input
		}
		printed := r.String()
		r2, err := ParseRegex(printed)
		if err != nil {
			t.Fatalf("%q parses, but its printed form %q does not: %v", pattern, printed, err)
		}
		if again := r2.String(); again != printed {
			t.Fatalf("%q: printing is not a fixed point: %q then %q", pattern, printed, again)
		}
		const sizeCap = 40
		if expandedSize(r, sizeCap) >= sizeCap {
			return
		}
		alpha := r.Alphabet()
		if !Equivalent(CompileRegexToMinDFA(r, alpha), CompileRegexToMinDFA(r2, alpha)) {
			t.Fatalf("%q and its printed form %q denote different languages", pattern, printed)
		}
	})
}

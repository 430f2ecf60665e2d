package automaton

// Product combines two complete DFAs over a common alphabet with a
// boolean combiner applied to acceptance, yielding intersection,
// union, difference, etc. Both automata are extended to the union
// alphabet first.
func Product(a, b *DFA, combine func(bool, bool) bool) *DFA {
	alpha := a.Alphabet.Union(b.Alphabet)
	a2 := a.ExtendAlphabet(alpha)
	b2 := b.ExtendAlphabet(alpha)
	k := len(alpha)

	type pair struct{ qa, qb int }
	index := map[pair]int{}
	var order []pair
	add := func(p pair) int {
		if id, ok := index[p]; ok {
			return id
		}
		id := len(order)
		index[p] = id
		order = append(order, p)
		return id
	}
	add(pair{a2.Start, b2.Start})

	var delta []int
	for at := 0; at < len(order); at++ {
		p := order[at]
		row := make([]int, k)
		for i := 0; i < k; i++ {
			row[i] = add(pair{a2.StepIndex(p.qa, i), b2.StepIndex(p.qb, i)})
		}
		delta = append(delta, row...)
	}

	out := &DFA{
		NumStates: len(order),
		Alphabet:  alpha,
		Start:     0,
		Accept:    make([]bool, len(order)),
		Delta:     delta,
	}
	for id, p := range order {
		out.Accept[id] = combine(a2.Accept[p.qa], b2.Accept[p.qb])
	}
	return out
}

// Intersect returns a DFA for L(a) ∩ L(b).
func Intersect(a, b *DFA) *DFA {
	return Product(a, b, func(x, y bool) bool { return x && y })
}

// Difference returns a DFA for L(a) \ L(b).
func Difference(a, b *DFA) *DFA {
	return Product(a, b, func(x, y bool) bool { return x && !y })
}

// UnionDFA returns a DFA for L(a) ∪ L(b).
func UnionDFA(a, b *DFA) *DFA {
	return Product(a, b, func(x, y bool) bool { return x || y })
}

// SymmetricDifference returns a DFA for L(a) △ L(b); its emptiness is
// language equivalence.
func SymmetricDifference(a, b *DFA) *DFA {
	return Product(a, b, func(x, y bool) bool { return x != y })
}

// Subset reports whether L(a) ⊆ L(b).
func Subset(a, b *DFA) bool { return Difference(a, b).IsEmpty() }

// ShortestWord returns a shortest accepted word and true, or ("", false)
// when the language is empty. Ties are broken by alphabet order, making
// the result deterministic.
func (d *DFA) ShortestWord() (string, bool) { return d.ShortestWordFrom(d.Start) }

// ShortestWordFrom returns a shortest word of L_q.
func (d *DFA) ShortestWordFrom(q int) (string, bool) {
	type item struct {
		state int
		via   int  // BFS parent index in items, -1 for root
		label byte // letter taken from parent
	}
	items := []item{{state: q, via: -1}}
	seen := make([]bool, d.NumStates)
	seen[q] = true
	for at := 0; at < len(items); at++ {
		it := items[at]
		if d.Accept[it.state] {
			// Reconstruct.
			var rev []byte
			for i := at; items[i].via >= 0; i = items[i].via {
				rev = append(rev, items[i].label)
			}
			for l, r := 0, len(rev)-1; l < r; l, r = l+1, r-1 {
				rev[l], rev[r] = rev[r], rev[l]
			}
			return string(rev), true
		}
		for i, label := range d.Alphabet {
			t := d.StepIndex(it.state, i)
			if !seen[t] {
				seen[t] = true
				items = append(items, item{state: t, via: at, label: label})
			}
		}
	}
	return "", false
}

// ShortestPathWord returns a shortest word leading from state q to state
// target, or ("", false) when target is unreachable from q.
func (d *DFA) ShortestPathWord(q, target int) (string, bool) {
	goal := d.Clone()
	for s := range goal.Accept {
		goal.Accept[s] = s == target
	}
	return goal.ShortestWordFrom(q)
}

// ShortestNonEmptyLoop returns a shortest non-empty word w with
// ∆(q, w) = q, or ("", false) when Loop(q) = ∅.
func (d *DFA) ShortestNonEmptyLoop(q int) (string, bool) {
	best := ""
	found := false
	for i, label := range d.Alphabet {
		t := d.StepIndex(q, i)
		if t == q {
			return string(label), true
		}
		if w, ok := d.ShortestPathWord(t, q); ok {
			cand := string(label) + w
			if !found || len(cand) < len(best) {
				best, found = cand, true
			}
		}
	}
	return best, found
}

// CompileRegexToMinDFA parses nothing: it compiles an already-parsed
// regex to the canonical minimal complete DFA over the union of the
// expression alphabet and extra.
func CompileRegexToMinDFA(r *Regex, extra Alphabet) *DFA {
	return CompileRegex(r, extra).Determinize().Minimize()
}

// MinDFAFromPattern parses the pattern and returns its canonical minimal
// complete DFA.
func MinDFAFromPattern(pattern string) (*DFA, error) {
	r, err := ParseRegex(pattern)
	if err != nil {
		return nil, err
	}
	return CompileRegexToMinDFA(r, nil), nil
}

package automaton

// Structure captures the component analysis of a DFA that the paper's
// Lemmas 7–11 are stated on: strongly connected components of the
// transition graph, which states can loop (Loop(q) ≠ ∅), each
// component's internal alphabet Σ_C, and a topological order of the
// components.
type Structure struct {
	DFA *DFA
	// Comp[q] is the component id of state q. Component ids are a
	// reverse topological order artifact; use TopoOrder for ordering.
	Comp []int
	// NumComps is the number of strongly connected components.
	NumComps int
	// Members[c] lists the states of component c.
	Members [][]int
	// Loopable[q] reports Loop(q) ≠ ∅: q lies on a cycle (possibly a
	// self-loop).
	Loopable []bool
	// NontrivialComp[c] reports that component c contains a cycle.
	NontrivialComp []bool
	// InternalAlphabet[c] is Σ_C: the letters labelling transitions
	// between two states of component c.
	InternalAlphabet []Alphabet
	// TopoOrder lists component ids in topological order (edges go from
	// earlier to later components).
	TopoOrder []int
	// Reach[q1] is the set of states reachable from q1 (including q1).
	Reach [][]bool
}

// Analyze computes the Structure of a DFA.
func Analyze(d *DFA) *Structure {
	n := d.NumStates
	k := len(d.Alphabet)

	s := &Structure{DFA: d}
	s.Comp = make([]int, n)
	for i := range s.Comp {
		s.Comp[i] = -1
	}

	// Iterative Tarjan SCC.
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	var callFrame []struct{ v, edge int }
	counter := 0

	for root := 0; root < n; root++ {
		if index[root] >= 0 {
			continue
		}
		callFrame = append(callFrame[:0], struct{ v, edge int }{root, 0})
		index[root] = counter
		low[root] = counter
		counter++
		stack = append(stack, root)
		onStack[root] = true

		for len(callFrame) > 0 {
			f := &callFrame[len(callFrame)-1]
			if f.edge < k {
				w := d.StepIndex(f.v, f.edge)
				f.edge++
				if index[w] < 0 {
					index[w] = counter
					low[w] = counter
					counter++
					stack = append(stack, w)
					onStack[w] = true
					callFrame = append(callFrame, struct{ v, edge int }{w, 0})
				} else if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			// Pop frame.
			v := f.v
			callFrame = callFrame[:len(callFrame)-1]
			if len(callFrame) > 0 {
				p := &callFrame[len(callFrame)-1]
				if low[v] < low[p.v] {
					low[p.v] = low[v]
				}
			}
			if low[v] == index[v] {
				c := s.NumComps
				s.NumComps++
				var members []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					s.Comp[w] = c
					members = append(members, w)
					if w == v {
						break
					}
				}
				s.Members = append(s.Members, members)
			}
		}
	}

	// Tarjan emits components in reverse topological order.
	s.TopoOrder = make([]int, s.NumComps)
	for i := 0; i < s.NumComps; i++ {
		s.TopoOrder[i] = s.NumComps - 1 - i
	}

	// Loopable / nontrivial components / internal alphabets.
	s.Loopable = make([]bool, n)
	s.NontrivialComp = make([]bool, s.NumComps)
	s.InternalAlphabet = make([]Alphabet, s.NumComps)
	internal := make([][]byte, s.NumComps)
	for q := 0; q < n; q++ {
		for i, label := range d.Alphabet {
			t := d.StepIndex(q, i)
			if s.Comp[q] == s.Comp[t] {
				s.NontrivialComp[s.Comp[q]] = true
				internal[s.Comp[q]] = append(internal[s.Comp[q]], label)
			}
		}
	}
	for c := 0; c < s.NumComps; c++ {
		s.InternalAlphabet[c] = NewAlphabet(internal[c]...)
	}
	for q := 0; q < n; q++ {
		s.Loopable[q] = s.NontrivialComp[s.Comp[q]]
	}

	// Pairwise state reachability (n ≤ automaton size, tiny in practice).
	s.Reach = make([][]bool, n)
	for q := 0; q < n; q++ {
		seen := make([]bool, n)
		seen[q] = true
		st := []int{q}
		for len(st) > 0 {
			v := st[len(st)-1]
			st = st[:len(st)-1]
			for i := 0; i < k; i++ {
				t := d.StepIndex(v, i)
				if !seen[t] {
					seen[t] = true
					st = append(st, t)
				}
			}
		}
		s.Reach[q] = seen
	}
	return s
}

// SyncLength returns the smallest s such that every word of length s over
// the component's internal alphabet maps all states of component c to the
// same state (Lemma 10 guarantees s ≤ M² for trC languages; for other
// languages no such s may exist, in which case ok is false). The search
// runs a BFS over unordered state pairs of the component.
func (s *Structure) SyncLength(c int) (int, bool) {
	members := s.Members[c]
	if len(members) <= 1 {
		return 0, true
	}
	d := s.DFA
	sigma := s.InternalAlphabet[c]
	if len(sigma) == 0 {
		return 0, true
	}
	// dist[(q1,q2)] = length of the longest... we need: smallest s such
	// that ALL words of length s sync ALL pairs. Equivalently, in the
	// pair automaton restricted to Σ_C, the maximum over pairs of the
	// longest path to... A pair (q1,q2), q1≠q2 is "bad at length t" if
	// some word of length t keeps them distinct. s = smallest t where no
	// pair is bad. Compute by backward iteration: bad(0) = all distinct
	// pairs; bad(t+1) = pairs with a letter into bad(t). s = first t with
	// bad(t) = ∅; if a cycle exists in bad pairs, never syncs.
	type pair struct{ a, b int }
	bad := map[pair]bool{}
	for i, q1 := range members {
		for _, q2 := range members[i+1:] {
			bad[pair{min(q1, q2), max(q1, q2)}] = true
		}
	}
	limit := d.NumStates*d.NumStates + 1
	for t := 0; t <= limit; t++ {
		if len(bad) == 0 {
			return t, true
		}
		next := map[pair]bool{}
		for i, q1 := range members {
			for _, q2 := range members[i+1:] {
				for li := range d.Alphabet {
					label := d.Alphabet[li]
					if !sigma.Contains(label) {
						continue
					}
					t1, t2 := d.StepIndex(q1, li), d.StepIndex(q2, li)
					if t1 == t2 {
						continue
					}
					p := pair{min(t1, t2), max(t1, t2)}
					if bad[p] {
						next[pair{min(q1, q2), max(q1, q2)}] = true
						break
					}
				}
			}
		}
		bad = next
	}
	return 0, false
}

// IsAperiodic reports whether the DFA's language is aperiodic (star-free,
// per Schützenberger): the transition monoid contains no nontrivial
// group, checked as t^{m+1} = t^m for some m ≤ NumStates for every
// transformation t of the generated monoid. monoidCap bounds the number
// of transformations explored (0 means the default of 1<<16); if the
// monoid is larger the second result is false and the answer
// undetermined.
func (d *DFA) IsAperiodic(monoidCap int) (aperiodic, complete bool) {
	if monoidCap <= 0 {
		monoidCap = 1 << 16
	}
	n := d.NumStates
	k := len(d.Alphabet)

	encode := func(t []int) string {
		b := make([]byte, len(t))
		for i, v := range t {
			b[i] = byte(v)
		}
		return string(b)
	}
	if n > 255 {
		// Transformation encoding assumes small automata, which is the
		// paper's regime (fixed language).
		return false, false
	}

	identity := make([]int, n)
	for i := range identity {
		identity[i] = i
	}
	seen := map[string]bool{encode(identity): true}
	queue := [][]int{identity}

	letters := make([][]int, k)
	for i := 0; i < k; i++ {
		t := make([]int, n)
		for q := 0; q < n; q++ {
			t[q] = d.StepIndex(q, i)
		}
		letters[i] = t
	}

	apply := func(t, u []int) []int { // t then u
		out := make([]int, n)
		for q := 0; q < n; q++ {
			out[q] = u[t[q]]
		}
		return out
	}

	isIdempotentLimit := func(t []int) bool {
		// Check t^{m+1} = t^m for some m ≤ n (+1 slack): iterate powers.
		pow := t
		for m := 0; m <= n+1; m++ {
			next := apply(pow, t)
			same := true
			for q := 0; q < n; q++ {
				if next[q] != pow[q] {
					same = false
					break
				}
			}
			if same {
				return true
			}
			pow = next
		}
		return false
	}

	for at := 0; at < len(queue); at++ {
		t := queue[at]
		if !isIdempotentLimit(t) {
			return false, true
		}
		for i := 0; i < k; i++ {
			u := apply(t, letters[i])
			key := encode(u)
			if !seen[key] {
				if len(seen) >= monoidCap {
					return false, false
				}
				seen[key] = true
				queue = append(queue, u)
			}
		}
	}
	return true, true
}

// IsFinite reports whether the DFA's language is finite: no cycle is both
// reachable and co-reachable.
func (d *DFA) IsFinite() bool {
	reach := d.Reachable()
	co := d.CoReachable()
	st := Analyze(d)
	for c := 0; c < st.NumComps; c++ {
		if !st.NontrivialComp[c] {
			continue
		}
		for _, q := range st.Members[c] {
			if reach[q] && co[q] {
				return false
			}
		}
	}
	return true
}

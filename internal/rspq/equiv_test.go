package rspq

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/automaton"
	"repro/internal/graph"
	"repro/internal/psitr"
)

// The equivalence properties, each run over the harness's matrix
// (harness_test.go): found bits and witnesses on every surface, the
// sweep's closure and distances, the stopped sweep and the dirty list.

// surfacesProp holds the view surfaces on the case's pair set.
func surfacesProp(t *testing.T, c *hCase) { checkSurfaces(t, c, c.pairs(0), viewSurfaces...) }

// TestDirectionBitEquivalence holds the view surfaces against the reference
// on every answer row, on the frozen snapshot, then an overlay of a
// delta, then an overlay reached by extension — one engine kept across
// the three, so a cached answer of an older epoch shows up here.
func TestDirectionBitEquivalence(t *testing.T) {
	runMatrix(t, answerRows(), []int64{0, 1}, [][]hView{{frozen, overlay(6), extended}}, surfacesProp)
}

// TestOverlayEquivalence holds the view surfaces on overlays of a small and
// of a larger delta, each pinned straight from the frozen base.
func TestOverlayEquivalence(t *testing.T) {
	runMatrix(t, answerRows(), []int64{0, 1}, [][]hView{{overlay(3)}, {overlay(24)}}, surfacesProp)
}

// TestOverlayKernelModes holds the view surfaces on an overlay read at one
// word per vertex (a*c*) and at two ((a*b*){33}).
func TestOverlayKernelModes(t *testing.T) {
	for _, m := range []struct{ name, row string }{{"packed", "subword"}, {"packed-wide", "wide"}} {
		t.Run(m.name, func(t *testing.T) {
			row := tier(m.row)
			c := newCase(t, row, row.pattern, row.graph(41, 0), 41)
			c.move(t, overlay(16))
			surfacesProp(t, c)
		})
	}
}

// TestOverlayRemovalHeavy holds the view surfaces on a delta of removals
// alone: each removed edge must be hidden from every kernel.
func TestOverlayRemovalHeavy(t *testing.T) {
	runMatrix(t, []*hTier{tier("subword")}, []int64{47}, [][]hView{{removals(20)}}, surfacesProp)
}

// TestGrownOverlayEquivalence holds the view surfaces on an overlay that
// added vertices as well as edges after the base freeze, so the view's
// rows reach past the base CSR: a kernel that read a row past the base
// through the base instead of the view would panic or miss the new
// vertices' paths. Some found pair must touch a new vertex.
func TestGrownOverlayEquivalence(t *testing.T) {
	runMatrix(t, answerRows(), []int64{0, 1, 2}, [][]hView{{grown}}, func(t *testing.T, c *hCase) {
		r := checkSurfaces(t, c, c.pairs(0), viewSurfaces...)
		for i, pq := range r.pairs {
			if r.found[i] && (slices.Contains(c.added, pq.X) || slices.Contains(c.added, pq.Y)) {
				return
			}
		}
		t.Fatalf("%s: no found pair touches a new vertex; the case is not exercised", c)
	})
}

// TestCSREquivalenceRandomGraphs holds the Solver and the bare tier
// functions — the baselines, Finite, Subword, SolvePsitr, DAG, the walk
// searches — against the reference on twelve tiny random graphs (4 to
// 10 vertices, every other vertex in each role), for every language of
// every answer row.
func TestCSREquivalenceRandomGraphs(t *testing.T) {
	for _, l := range languagesOf(answerRows()...) {
		t.Run(l.pattern, func(t *testing.T) {
			for seed := int64(0); seed < 12; seed++ {
				n := 4 + rand.New(rand.NewSource(seed*7919)).Intn(7)
				c := newCase(t, l.row, l.pattern, graph.Random(n, []byte("abc"), 0.22, seed), seed)
				checkSurfaces(t, c, c.pairs(2), "Solver", "SolveWith", "tiers")
			}
		})
	}
}

// TestCSREquivalenceDAG holds the bare tier functions, DAG among them,
// on the DAG row's inputs: frozen, after forward flips, and grown.
func TestCSREquivalenceDAG(t *testing.T) {
	runMatrix(t, []*hTier{tier("dag")}, []int64{0, 1, 2, 3}, [][]hView{{frozen, overlay(6), grown}}, func(t *testing.T, c *hCase) {
		checkSurfaces(t, c, c.pairs(0), "SolveWith", "tiers")
	})
}

// TestCSREquivalenceColorCoding checks the FPT algorithm with k = n-1,
// where k-RSPQ is RSPQ, against the reference on tiny graphs, x == y
// (never found: ε ∉ a*ba*) among the pairs. YES answers are certified;
// NO answers are Monte Carlo, so the seeds are fixed and the trial count
// generous.
func TestCSREquivalenceColorCoding(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		n := 4 + rand.New(rand.NewSource(seed+100)).Intn(5)
		c := newCase(t, tier("dag"), "a*ba*", graph.Random(n, []byte("ab"), 0.25, seed), seed)
		r := c.reference(t, c.pairs(4))
		c.check(t, r, "ColorCoding", each(r.pairs, func(x, y int) Result {
			return ColorCoding(c.g, c.s.Min, x, y, n, ColorCodingOptions{Seed: 42, Trials: 300})
		}), askWitness)
	}
}

// TestDistanceWitnessEquivalence holds the sweep toward targets at both
// ends and the middle of the graph, the isolated vertex among them,
// against the textbook sweep (checkKernel) on every answer row and every
// view kind.
func TestDistanceWitnessEquivalence(t *testing.T) {
	chain := []hView{frozen, overlay(6), extended, grown}
	runMatrix(t, answerRows(), []int64{0, 1}, [][]hView{chain}, func(t *testing.T, c *hCase) {
		a := getArena()
		defer a.release()
		n := c.g.NumVertices()
		for _, y := range []int{0, n / 2, c.isolated, n - 1} {
			checkKernel(t, c, a, y)
		}
	})
}

// TestKernelSetAndDistEquality holds the sweep toward every fifth vertex
// against the textbook sweep at every lane width: one word per vertex,
// 67 states (two lanes), 131 (three) and (a{65})*, whose cycle crosses
// from lane 1 back to lane 0 — on the frozen base and on an extended
// overlay.
func TestKernelSetAndDistEquality(t *testing.T) {
	states := map[string]int{"summary": 0, "wide": 67, "wide-3": 131, "wide-cross": 65}
	prop := func(t *testing.T, c *hCase) {
		if want := states[c.row.name]; want > 0 && c.s.Min.NumStates != want {
			t.Fatalf("%s: %d states, want %d", c, c.s.Min.NumStates, want)
		}
		a := getArena()
		defer a.release()
		for y := 0; y < c.g.NumVertices(); y += 5 {
			checkKernel(t, c, a, y)
		}
	}
	chains := [][]hView{{frozen, extended}}
	runMatrix(t, []*hTier{tier("summary")}, []int64{0, 1, 2}, chains, prop)
	runMatrix(t, []*hTier{tier("wide"), tier("wide-3"), tier("wide-cross")}, []int64{0, 1}, chains, prop)
}

// TestDistanceKernelShortestMatchesSolve holds the public API to the
// kernel on the walk-reduction tiers: Solve finds a path exactly when
// the sweep reaches the source, and its simple witness is exactly as
// long as the shortest walk (loop removal keeps a subword-closed word in
// L, and no simple path beats the shortest walk).
func TestDistanceKernelShortestMatchesSolve(t *testing.T) {
	rows := []*hTier{tier("subword"), tier("wide")}
	runMatrix(t, rows, []int64{0, 1}, [][]hView{{frozen, extended}}, func(t *testing.T, c *hCase) {
		a := getArena()
		defer a.release()
		for _, y := range []int{3, c.g.NumVertices() / 2} {
			p := makeProduct(c.g.PinView(), c.s.Min, a)
			p.distToGoal(y, a)
			for x := 0; x < p.n; x++ {
				d, res := a.distAt(x, c.s.Min.Start), c.s.Solve(c.g, x, y)
				if res.Found != (d >= 0) || res.Found && int32(res.Path.Len()) != d {
					t.Fatalf("%s (%d,%d): Solve %v, shortest walk %d", c, x, y, res.Path, d)
				}
			}
		}
	})
}

// TestSweepDirtyListAndCleanWords runs checkKernel twice back to back
// per target, at one lane (a*c*) and two ((a*b*){33}), frozen and
// extended, on a 300-vertex graph sparse enough that many sweeps stay
// under the sparse threshold, through ONE arena: a word a sweep fails to
// clean, or cleans wrongly, shows up as a wrong closure or distance.
// Each width has to see both a kept and an abandoned dirty list, or the
// case is vacuous.
func TestSweepDirtyListAndCleanWords(t *testing.T) {
	for _, row := range []*hTier{tier("subword"), tier("wide")} {
		c := newCase(t, row, row.pattern, row.graph(0, 300), 17)
		shared := new(arena)
		kept, dropped := 0, 0
		for _, v := range []hView{frozen, extended} {
			c.move(t, v)
			for rep := 0; rep < 24; rep++ {
				y := c.rng.Intn(c.g.NumVertices())
				if rep == 0 {
					y = c.isolated
				}
				if checkKernel(t, c, shared, y) {
					kept++
				} else {
					dropped++
				}
				// Back to back: the next sweep starts by cleaning its own words.
				checkKernel(t, c, shared, y)
			}
		}
		if kept == 0 || dropped == 0 {
			t.Fatalf("%s: %d sweeps kept their dirty list, %d abandoned it; the test needs both", c, kept, dropped)
		}
	}
}

// TestPositionNFASweepEquivalence checks the sweep over the second kind
// of automaton it runs: the position NFA of random Ψtr sequences, plus
// a{70}b*, whose 73 positions take two lanes. On the frozen and the
// extended view the summary tier's co-reachability sweep
// (acquireSeqSearcher) must leave the closure of the textbook sweep over
// the same transitions; and — so the transitions themselves are checked
// against something buildPlan did not produce — the vertices that reach
// y from the start position must be exactly those that reach it from
// the start state of the sequence's minimal DFA.
func TestPositionNFASweepEquivalence(t *testing.T) {
	deep := 0 // sweeps that ran at least three levels
	for seed := int64(0); seed < 7; seed++ {
		rng := rand.New(rand.NewSource(seed + 900))
		seq := randomSequence(rng)
		if seed == 6 {
			seq = &psitr.Sequence{Prefix: strings.Repeat("a", 70), Terms: []psitr.Term{{Kind: psitr.Gap, A: automaton.NewAlphabet('b')}}}
		}
		plan := buildPlan(seq)
		m := plan.pos.NumStates
		if seed == 6 && m != 73 {
			t.Fatalf("a{70}b* has %d positions, want 73", m)
		}
		pos := newOracleAuto(m)
		for q, es := range plan.pos.Edges {
			for _, e := range es {
				pos.arc(q, e.Label, e.To)
			}
			if plan.pos.Accept[q] {
				pos.accept = append(pos.accept, q)
			}
		}
		dfa := (&psitr.Expr{Seqs: []*psitr.Sequence{seq}}).MinDFA(automaton.NewAlphabet('a', 'b', 'c'))
		min := dfaOracle(dfa)

		c := newCase(t, tier("summary"), "a*(bb+|())c*", graph.Random(24, []byte("abc"), 0.13, seed+910), seed)
		for _, v := range []hView{frozen, extended} {
			c.move(t, v)
			for y := 0; y < c.g.NumVertices(); y += 6 {
				want := textbookSweep(c.l, pos, y)
				if slices.ContainsFunc(want, func(d int32) bool { return d >= 3 }) {
					deep++
				}
				byDFA := textbookSweep(c.l, min, y)
				for x := 0; x < c.g.NumVertices(); x++ {
					if (want[x*m+plan.pos.Start] >= 0) != (byDFA[x*dfa.NumStates+dfa.Start] >= 0) {
						t.Fatalf("seq %s y=%d: position NFA and minimal DFA disagree on source %d", seq, y, x)
					}
				}
				a := getArena()
				ss := acquireSeqSearcher(c.g.PinView(), a, plan, y, false, nil, sinks{})
				checkSweepAgainstOracle(t, c.g, m, a, nil, y, want, fmt.Sprintf("seq %s %s y=%d", seq, c.view, y))
				ss.release()
				a.release()
			}
		}
	}
	if deep < 12 {
		t.Fatalf("only %d of the sweeps ran three levels or more; the case is close to vacuous", deep)
	}
}

// randomSequence draws a small Ψtr sequence over {a, b, c}: optional
// prefix and suffix words around one to three middle terms, the first
// of them a gap.
func randomSequence(rng *rand.Rand) *psitr.Sequence {
	word := func(max int) string {
		w := make([]byte, rng.Intn(max+1))
		for i := range w {
			w[i] = "abc"[rng.Intn(3)]
		}
		return string(w)
	}
	seq := &psitr.Sequence{Prefix: word(2), Suffix: word(2)}
	for i := 1 + rng.Intn(3); i > 0; i-- {
		if len(seq.Terms) > 0 && rng.Intn(3) == 0 {
			seq.Terms = append(seq.Terms, psitr.Term{Kind: psitr.OptWord, W: word(1) + "a"})
			continue
		}
		letters := [][]byte{{'a'}, {'b'}, {'a', 'b'}, {'b', 'c'}, {'a', 'b', 'c'}}[rng.Intn(5)]
		seq.Terms = append(seq.Terms, psitr.Term{Kind: psitr.Gap, A: automaton.NewAlphabet(letters...), K: rng.Intn(3)})
	}
	return seq
}

// stopGroups draws the source groups of one target from the oracle's
// distances: the target itself, a deepest single source, an unreachable
// single source, a multi-source group (the target among them when it
// reaches itself, one source listed twice), and the same group with an
// unreachable source added. Groups the graph cannot supply are left out.
func stopGroups(n, m, start, y int, want []int32, rng *rand.Rand) [][]int {
	var reach, unreach []int
	deep := -1
	for x := 0; x < n; x++ {
		d := want[x*m+start]
		if d < 0 {
			unreach = append(unreach, x)
			continue
		}
		reach = append(reach, x)
		if deep < 0 || d > want[deep*m+start] {
			deep = x
		}
	}
	groups := [][]int{{y}}
	if deep >= 0 {
		groups = append(groups, []int{deep})
		multi := []int{deep}
		if want[y*m+start] >= 0 {
			multi = append(multi, y)
		}
		for i := 0; i < 3; i++ {
			multi = append(multi, reach[rng.Intn(len(reach))])
		}
		multi = append(multi, multi[len(multi)-1])
		groups = append(groups, multi)
		if len(unreach) > 0 {
			groups = append(groups, append([]int{unreach[rng.Intn(len(unreach))]}, multi...))
		}
	}
	if len(unreach) > 0 {
		groups = append(groups, []int{unreach[rng.Intn(len(unreach))]})
	}
	return groups
}

// stopLevel returns the level a sweep answering group xs stops at — its
// farthest source's distance, at least 1 (the first probe runs before
// round 1) — or 0 when some source is unreachable and the sweep must run
// to the end.
func stopLevel(xs []int, m, start int, want []int32) int32 {
	level := int32(1)
	for _, x := range xs {
		d := want[x*m+start]
		if d < 0 {
			return 0
		}
		level = max(level, d)
	}
	return level
}

// checkStoppedSweep holds what a sweep that stopped at level D (its
// farthest source's distance) left in a against the oracle's distances:
// every id of a level below D-1 is visited; of level D-1 a subset is;
// beyond it only the sources are. With links (p non-nil) every visited id
// sits at its exact distance, and the walk read off from it is valid. It
// reports whether level D-1 was left incomplete: the round that
// discovers it was cut.
func checkStoppedSweep(t *testing.T, g *graph.Graph, m, start int, a *arena, p *product, y int, want []int32, xs []int, level int32, ctx string) (cut bool) {
	t.Helper()
	source := map[int]bool{}
	for _, x := range xs {
		source[x*m+start] = true
	}
	for id, d := range want {
		v, q := id/m, id%m
		got := a.co.at(v, q)
		switch {
		case source[id] || d >= 0 && d < level-1:
			if !got {
				t.Fatalf("%s: id %d at distance %d is not visited", ctx, id, d)
			}
		case d == level-1:
			cut = cut || !got
		case got:
			t.Fatalf("%s: id %d at distance %d is visited past level %d", ctx, id, d, level-1)
		}
		if !got || p == nil {
			continue
		}
		if dist := a.distAt(v, q); dist != d {
			t.Fatalf("%s: dist[%d] = %d, oracle %d", ctx, id, dist, d)
		}
		checkWalkBitValid(t, p.d, g, p.walkFrom(a, v, q), v, q, y, d)
	}
	return cut
}

// TestStoppedSweepEquivalence compares stopped sweeps against sweeps run
// to the end on 240-vertex graphs of the subword, DAG and two-lane rows,
// frozen and extended, for the groups of stopGroups, mark-only and with
// links, all through ONE arena. A group whose sources all reach the
// target stops at its farthest source's distance D after D-1 rounds, the
// last cut at the admission that answered the last source
// (checkStoppedSweep); each source's walk equals the one a full sweep
// gives, and the tier's answer is valid. A group with an unreachable
// source runs to the end. Every sweep leaves the contracts
// (checkSweepContracts), and the next full sweep on the same arena equals
// the oracle. Each row must cut some round, or the case is vacuous.
func TestStoppedSweepEquivalence(t *testing.T) {
	for _, tc := range []struct{ row, family string }{{"subword", "regular"}, {"dag", "layered"}, {"wide", "sparse"}} {
		row := tier(tc.row)
		c := newCase(t, row, row.pattern, row.family(tc.family).gen(240, 41), 41)
		s, g := c.s, c.g
		ev := &evaluator{s: s}
		m, start := s.Min.NumStates, s.Min.Start
		o := dfaOracle(s.Min)
		n := g.NumVertices()
		rng := rand.New(rand.NewSource(41))
		shared := new(arena)
		stops := 0 // stopped sweeps that ran two rounds or more and kept their dirty list
		cuts := 0  // stopped sweeps that left the level of their last round incomplete

		for _, v := range []hView{frozen, extended} {
			c.move(t, v)
			for rep := 0; rep < 16; rep++ {
				y := rng.Intn(n)
				if rep == 0 {
					y = c.isolated
				}
				want := textbookSweep(c.l, o, y)
				p := makeProduct(g.PinView(), s.Min, shared)
				for gi, xs := range stopGroups(n, m, start, y, want, rng) {
					level := stopLevel(xs, m, start, want)
					for _, links := range []bool{false, true} {
						ctx := fmt.Sprintf("%s y=%d group %d %v links=%v", c, y, gi, xs, links)
						var walker *product // what checkSweepAgainstOracle reads walks over: nil after a mark-only sweep
						if links {
							walker = &p
						}
						kt := &kernelTrace{}
						p.sinks = sinks{tr: kt}
						stopped := p.sweep(y, shared, links, xs)
						p.sinks = sinks{}
						if stopped != (level > 0) || kt.stoppedAt != int(level) {
							t.Fatalf("%s: stopped=%v at level %d; want stopped=%v at %d", ctx, stopped, kt.stoppedAt, level > 0, level)
						}
						if ran := len(kt.rounds); stopped && ran != int(level)-1 {
							t.Fatalf("%s: the sweep ran %d rounds before stopping at level %d", ctx, ran, level)
						}
						if stopped {
							if checkStoppedSweep(t, g, m, start, shared, walker, y, want, xs, level, ctx) {
								cuts++
							}
						} else {
							checkSweepAgainstOracle(t, g, m, shared, walker, y, want, ctx)
						}
						if checkSweepContracts(t, shared, ctx) && links && stopped && level > 2 {
							stops++
						}
						var walks []*graph.Path
						if links {
							for _, x := range xs {
								d := want[x*m+start]
								walk := p.walkFrom(shared, x, start)
								walks = append(walks, walk)
								if d < 0 {
									if walk != nil {
										t.Fatalf("%s: a walk from unreachable source %d", ctx, x)
									}
									continue
								}
								checkWalkBitValid(t, s.Min, g, walk, x, start, y, d)
								res := ev.answerGoal(&goalView{p: p, ds: shared}, x)
								if !res.Found || !VerifyWitness(res, g, s.Min, x, y) {
									t.Fatalf("%s: source %d answers %v (found=%v)", ctx, x, res.Path, res.Found)
								}
							}
						}
						// The same arena, reused for a sweep run to the end.
						p.sweep(y, shared, links, nil)
						checkSweepAgainstOracle(t, g, m, shared, walker, y, want, ctx+" (reused)")
						checkSweepContracts(t, shared, ctx+" (reused)")
						for i, x := range xs {
							if links && !samePath(walks[i], p.walkFrom(shared, x, start)) {
								t.Fatalf("%s: source %d walks %v after the stopped sweep, %v after the full one", ctx, x, walks[i], p.walkFrom(shared, x, start))
							}
						}
					}
				}
			}
		}
		if stops == 0 {
			t.Fatalf("%s: no sweep stopped past level 2 with its reach list kept; the case is vacuous", c)
		}
		if cuts == 0 {
			t.Fatalf("%s: no stopped sweep cut its last round; the case is vacuous", c)
		}
	}
}

// TestStoppedSweepWorkGuard pins where the stop inside a round saves. On
// a dense graph (4,000 vertices, out-degree 40) under
// a*b*a*b*a*b*a*b*a*b*, 64 single-source mark-only sweeps on fresh
// targets — what Engine.Exists runs on a miss — must turn on at most a
// quarter of the states a stop at the round boundary visits: every state
// below the source's distance D. It is a count, not a timer. The levels
// come from the same target's sweep run to the end, which the oracle
// suites pin; and each stopped sweep's trace must count exactly the
// states it left visited (QueryTrace.StatesReached).
func TestStoppedSweepWorkGuard(t *testing.T) {
	s := mustSolver(t, "a*b*a*b*a*b*a*b*a*b*")
	g := graph.RandomOutRegular(4000, []byte{'a', 'b'}, 40, 7)
	g.Freeze()
	n, start := g.NumVertices(), s.Min.Start
	a := new(arena)
	p := makeProduct(g.PinView(), s.Min, a)
	rng := rand.New(rand.NewSource(7))
	reached, boundary := 0, 0
	for i, y := range rng.Perm(n)[:64] {
		p.distToGoal(y, a)
		x := rng.Intn(n)
		for a.distAt(x, start) < 0 {
			x = rng.Intn(n)
		}
		D := a.distAt(x, start)
		below := 0
		a.co.each(func(id int) {
			if a.dist[id] < D {
				below++
			}
		})
		kt := &kernelTrace{}
		p.sinks = sinks{tr: kt}
		stopped := p.sweep(y, a, false, []int{x})
		p.sinks = sinks{}
		visited := 0
		for _, w := range a.co.w {
			visited += bits.OnesCount64(w)
		}
		if !stopped || kt.statesReached != visited {
			t.Fatalf("sweep %d (y=%d, x=%d at %d): stopped=%v, the trace counts %d states, %d are visited", i, y, x, D, stopped, kt.statesReached, visited)
		}
		reached += visited
		boundary += below
	}
	if 4*reached > boundary {
		t.Fatalf("64 stopped sweeps turned on %d states; a stop at the round boundary visits %d, and the bound is a quarter of that", reached, boundary)
	}
	t.Logf("64 stopped sweeps turned on %d states against %d at the round boundary (%.3f)", reached, boundary, float64(reached)/float64(boundary))
}

// TestWitnessAgreement pins that every tier reads one witness whichever
// surface asks, on every pair of each answer row's graph families: the
// Solver and BatchSolver surfaces and an Engine, on a cold miss and on a
// table hit (where the tier keeps a table), return Solver.Solve's. On
// every tier that sweeps the cold miss stops at the level that answers
// the source; a found finite pair is traced as the finite tier's
// deepening. Each case must have both answers.
func TestWitnessAgreement(t *testing.T) {
	for _, row := range answerRows() {
		for si, sh := range row.shapes {
			name := row.name
			if len(row.shapes) > 1 {
				name += "-" + sh.name
			}
			t.Run(name, func(t *testing.T) {
				c := newCase(t, row, row.pattern, sh.gen(sh.n, int64(si)), int64(si))
				s, g, isolated := c.s, c.g, c.isolated
				if got := s.ChooseAlgorithm(g); got != row.algo {
					t.Fatalf("%s: tier %v; the row is meant for %v", c, got, row.algo)
				}
				finite := row.algo == AlgoFinite
				r := checkSurfaces(t, c, c.pairs(1), "Solver", "BatchSolver")
				cold := NewEngine(s, g, EngineConfig{TableBytes: -1})
				hot := NewEngine(s, g, EngineConfig{})
				asked, found := map[Pair]bool{}, 0
				for i, pq := range r.pairs {
					x, y := pq.X, pq.Y
					if !validPair(g.NumVertices(), x, y) || asked[pq] {
						continue // asked again, the pair would be a result-cache hit
					}
					asked[pq] = true
					if r.found[i] {
						found++
					}
					// A miss stops at the level that discovers x — the walk's
					// length, and level 1 for a source at the goal — and a
					// sweep without an answer runs to the end.
					stop := 0
					if r.walk[i] >= 0 && !finite {
						stop = max(int(r.walk[i]), 1)
					}
					res, tr := cold.SolveTraced(x, y)
					if tr.TableCacheHit || tr.ResultCacheHit || tr.StoppedAt != stop {
						t.Fatalf("%s cold engine (%d,%d): trace %+v is not a miss stopped at %d", c, x, y, tr, stop)
					}
					c.check(t, r.at(i), "cold Engine", []Result{res}, askSame)
					if finite && r.found[i] && x != y && (tr.Tier != "finite" || tr.SearchNodes == 0) {
						t.Fatalf("%s cold engine (%d,%d): trace %+v; a found finite pair is searched by the finite tier's deepening", c, x, y, tr)
					}
					if y == isolated {
						continue
					}
					if x == 0 {
						hot.Solve(isolated, y) // unreachable: the sweep runs to the end and is cached
					}
					res, tr = hot.SolveTraced(x, y)
					if x != isolated && !finite && !tr.TableCacheHit { // the finite tier keeps no table
						t.Fatalf("%s hot engine (%d,%d): trace %+v is not a table hit", c, x, y, tr)
					}
					c.check(t, r.at(i), "hot Engine", []Result{res}, askSame)
				}
				if found == 0 || found == len(asked) {
					t.Fatalf("%s: %d of %d pairs found; the case must have both answers", c, found, len(asked))
				}
			})
		}
	}
}

package rspq

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/graph"
)

// This file pins the frontier exchange: a graph must answer every query
// exactly as the textbook oracle of sweep_oracle_test.go does, for
// every shard count, on every algorithm tier, before and after mutation
// epochs. Found bits and distances are bit-identical (the exchange is
// synchronous BFS); witnesses are verified rather than compared, since
// equal-length parent links may legitimately differ.

type shardTierCase struct {
	name    string
	pattern string
	gen     func(seed int64) *graph.Graph
}

func shardTierCases() []shardTierCase {
	return []shardTierCase{
		{"subword", "a*c*", func(seed int64) *graph.Graph {
			return graph.Random(22, []byte{'a', 'b', 'c'}, 0.12, seed)
		}},
		{"summary", "a*(bb+|())c*", func(seed int64) *graph.Graph {
			return graph.Random(20, []byte{'a', 'b', 'c'}, 0.12, seed+100)
		}},
		{"baseline", "a*bba*", func(seed int64) *graph.Graph {
			return graph.Random(20, []byte{'a', 'b'}, 0.10, seed+200)
		}},
		{"dag", "(a|b)*a(a|b)*", func(seed int64) *graph.Graph {
			return graph.LayeredDAG(5, 4, 2, []byte{'a', 'b'}, seed+300)
		}},
		{"finite", "ab|ba|aab", func(seed int64) *graph.Graph {
			return graph.Random(18, []byte{'a', 'b'}, 0.10, seed+400)
		}},
	}
}

// checkShardedAgainst re-answers every pair on a K-sharded graph — per
// query, batched, existence-only, and through an Engine — and compares
// to the oracle's Found bits.
func checkShardedAgainst(t *testing.T, s *Solver, g *graph.Graph, k int, pairs []Pair, want []bool) {
	t.Helper()
	g.SetShards(k)
	if got := g.PinView().Shards(); got != k {
		t.Fatalf("K=%d: pinned view reports K=%d", k, got)
	}
	for i, pq := range pairs {
		got := s.Solve(g, pq.X, pq.Y)
		if got.Found != want[i] {
			t.Fatalf("K=%d Solve(%d,%d): found=%v, oracle says %v", k, pq.X, pq.Y, got.Found, want[i])
		}
		if !VerifyWitness(got, g, s.Min, pq.X, pq.Y) {
			t.Fatalf("K=%d Solve(%d,%d): invalid witness %v", k, pq.X, pq.Y, got.Path)
		}
	}
	batch := NewBatchSolver(s, g).Solve(pairs)
	for i, got := range batch {
		if got.Found != want[i] {
			t.Fatalf("K=%d batch pair %d (%d,%d): found=%v, want %v", k, i, pairs[i].X, pairs[i].Y, got.Found, want[i])
		}
		if !VerifyWitness(got, g, s.Min, pairs[i].X, pairs[i].Y) {
			t.Fatalf("K=%d batch pair %d: invalid witness", k, i)
		}
	}
	ex := NewBatchSolver(s, g).SolveExists(pairs)
	for i, got := range ex {
		if got != want[i] {
			t.Fatalf("K=%d exists pair %d (%d,%d): %v, want %v", k, i, pairs[i].X, pairs[i].Y, got, want[i])
		}
	}
	eng := NewEngine(s, g, EngineConfig{})
	for i, pq := range pairs {
		if got := eng.Solve(pq.X, pq.Y); got.Found != want[i] {
			t.Fatalf("K=%d engine Solve(%d,%d): found=%v, want %v", k, pq.X, pq.Y, got.Found, want[i])
		}
	}
}

// shardPairSet builds the query set: a dense sweep over a vertex sample
// plus the edge cases — x==y everywhere, the isolated vertex in both
// roles, and out-of-range ids.
func shardPairSet(g *graph.Graph, isolated int, rng *rand.Rand) []Pair {
	n := g.NumVertices()
	var pairs []Pair
	for x := 0; x < n; x += 1 + n/12 {
		for y := 0; y < n; y += 1 + n/12 {
			pairs = append(pairs, Pair{X: x, Y: y})
		}
	}
	for v := 0; v < n; v += 1 + n/6 {
		pairs = append(pairs, Pair{X: v, Y: v}) // x == y
	}
	pairs = append(pairs,
		Pair{X: isolated, Y: rng.Intn(n)}, Pair{X: rng.Intn(n), Y: isolated},
		Pair{X: isolated, Y: isolated},
		Pair{X: -1, Y: 0}, Pair{X: 0, Y: n + 3}, // out of range
	)
	return pairs
}

// TestShardedEquivalence is the randomized sharded ≡ oracle suite: for
// every tier and K ∈ {1, 2, 3, 8}, before and after a mutation epoch
// (served through the overlay of the pre-mutation base).
func TestShardedEquivalence(t *testing.T) {
	shardCounts := []int{1, 2, 3, 8}
	for _, tc := range shardTierCases() {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(0); seed < 3; seed++ {
				rng := rand.New(rand.NewSource(seed * 31))
				g := tc.gen(seed)
				isolated := g.AddVertex() // stays isolated: empty buckets in some shard
				pairs := shardPairSet(g, isolated, rng)

				want := oracleAnswers(tc.solver(t), g, pairs)
				for _, k := range shardCounts {
					checkShardedAgainst(t, tc.solver(t), g, k, pairs, want)
				}

				// One mutation epoch: flip a few random edges (keeping the
				// alphabet stable so the delta is served as an overlay), then
				// require equivalence again.
				labels := g.Freeze().Labels()
				for i := 0; i < 8; i++ {
					u, v := rng.Intn(g.NumVertices()), rng.Intn(g.NumVertices())
					l := labels[rng.Intn(len(labels))]
					if tc.name == "dag" && u >= v {
						u, v = v, u+1 // keep layered edges forward: graph stays acyclic
						if v >= g.NumVertices() {
							continue
						}
					}
					if !g.RemoveEdge(u, l, v) {
						g.AddEdge(u, l, v)
					}
				}
				want = oracleAnswers(tc.solver(t), g, pairs)
				for _, k := range shardCounts {
					checkShardedAgainst(t, tc.solver(t), g, k, pairs, want)
				}
			}
		})
	}
}

// solver compiles (and caches per test) the tier's pattern.
func (tc *shardTierCase) solver(t *testing.T) *Solver {
	t.Helper()
	s, err := NewSolver(tc.pattern)
	if err != nil {
		t.Fatalf("compile %q: %v", tc.pattern, err)
	}
	return s
}

// TestShardedExchangeParallelWorkers forces a multi-worker exchange
// (even on a single-CPU machine) so the parallel expand/deliver phases
// and their barriers run under the race detector.
func TestShardedExchangeParallelWorkers(t *testing.T) {
	exchangeWorkersOverride.Store(4)
	defer exchangeWorkersOverride.Store(0)
	for _, tc := range shardTierCases() {
		g := tc.gen(7)
		isolated := g.AddVertex()
		rng := rand.New(rand.NewSource(7))
		pairs := shardPairSet(g, isolated, rng)
		checkShardedAgainst(t, tc.solver(t), g, 8, pairs, oracleAnswers(tc.solver(t), g, pairs))
	}
}

// TestShardedConcurrentLazyPartition pins that nothing about sharding is
// built lazily on the read path: configuring shards AFTER a graph was
// frozen and warmed only re-pins the view (NewBatchSolver's Warm does
// it), so concurrent batches and queries on the warmed graph are
// read-only and answer exactly like the unsharded graph did — this test
// runs under -race in CI.
func TestShardedConcurrentLazyPartition(t *testing.T) {
	s, err := NewSolver("a*c*")
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Random(60, []byte{'a', 'b', 'c'}, 0.1, 13)
	pairs := make([]Pair, 64)
	rng := rand.New(rand.NewSource(2))
	for i := range pairs {
		pairs[i] = Pair{X: rng.Intn(60), Y: rng.Intn(8)}
	}
	want := NewBatchSolver(s, g).SolveExists(pairs) // graph frozen, warmed, unsharded
	g.SetShards(4)                                  // shard count configured after the fact
	bs := NewBatchSolver(s, g).SetWorkers(4)
	if full, inc := g.FreezeStats(); g.PinView().Shards() != 4 || full != 1 || inc != 0 {
		t.Fatalf("SetShards on a frozen graph: view K=%d, freezes (full=%d, inc=%d); want K=4 and no refreeze",
			g.PinView().Shards(), full, inc)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				got := bs.SolveExists(pairs)
				for i := range got {
					if got[i] != want[i] {
						t.Errorf("concurrent sharded batch diverged from unsharded at pair %d", i)
						return
					}
				}
				for i := 0; i < 10; i++ {
					s.Solve(g, i, i+20)
				}
			}
		}()
	}
	wg.Wait()
}

// growPastBase mutates a frozen graph so the next pin is an overlay over
// a LARGER vertex set than its base: it flips a few old edges, then
// appends grow vertices, wires each into the old graph in both
// directions (old → new → old, labels from the frozen alphabet) and
// chains them. On DAG inputs (graph.LayeredDAG with the given width) new
// vertices hang between the first and the last layer and the chain runs
// forward, so the graph stays acyclic.
func growPastBase(g *graph.Graph, rng *rand.Rand, grow, dagWidth int) []int {
	labels := g.Freeze().Labels()
	n0 := g.NumVertices()
	label := func() byte { return labels[rng.Intn(len(labels))] }
	mutateKeepingShape(g, rng, 4, dagWidth > 0)
	var added []int
	for i := 0; i < grow; i++ {
		w := g.AddVertex()
		if dagWidth > 0 {
			g.AddEdge(rng.Intn(dagWidth), label(), w)
			g.AddEdge(w, label(), n0-1-rng.Intn(dagWidth))
		} else {
			g.AddEdge(rng.Intn(n0), label(), w)
			g.AddEdge(w, label(), rng.Intn(n0))
			g.AddEdge(rng.Intn(n0), label(), w)
		}
		if len(added) > 0 {
			g.AddEdge(added[len(added)-1], label(), w)
		}
		added = append(added, w)
	}
	g.AddVertex() // one new vertex stays isolated: an empty row past the base
	return added
}

// TestShardedGrownOverlayEquivalence covers the case the row-range
// partition newly reaches: an overlay is pending and it added VERTICES
// as well as edges after the base freeze, so the view's rows — and the
// shard ranges cut from them — extend past the base CSR. For every tier
// and K ∈ {2, 3, 8}, with the exchange forced onto four workers, Solve,
// Shortest lengths, BatchSolver and Engine must agree with the textbook
// oracle and with BaselineShortest on a cold rebuild. A kernel that read
// a row >= base.n through the base instead of the view would panic or
// miss the new vertices' paths here.
func TestShardedGrownOverlayEquivalence(t *testing.T) {
	exchangeWorkersOverride.Store(4)
	defer exchangeWorkersOverride.Store(0)
	for _, tc := range shardTierCases() {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(0); seed < 3; seed++ {
				s := tc.solver(t)
				rng := rand.New(rand.NewSource(seed*53 + 5))
				g := tc.gen(seed)
				s.Warm(g) // the base every later view overlays
				dagWidth := 0
				if tc.name == "dag" {
					dagWidth = 4
				}
				added := growPastBase(g, rng, 5, dagWidth)
				pairs := shardPairSet(g, g.NumVertices()-1, rng)
				for _, w := range added {
					pairs = append(pairs, Pair{X: rng.Intn(g.NumVertices()), Y: w}, Pair{X: w, Y: rng.Intn(g.NumVertices())})
				}
				pairs = append(pairs, Pair{X: added[0], Y: added[len(added)-1]})

				oracle := rebuiltOracle(g)
				wantLen := make([]int, len(pairs)) // -1: no simple L-path
				reached := 0
				for i, pq := range pairs {
					wantLen[i] = -1
					if res := BaselineShortest(oracle, s.Min, pq.X, pq.Y, nil); res.Found {
						wantLen[i] = res.Path.Len()
						if slices.Contains(added, pq.X) || slices.Contains(added, pq.Y) {
							reached++
						}
					}
				}
				if reached == 0 {
					t.Fatalf("seed %d: no positive pair touches a new vertex; the case is not exercised", seed)
				}
				want := oracleAnswers(s, g, pairs)
				for i := range pairs {
					if want[i] != (wantLen[i] >= 0) {
						t.Fatalf("seed %d: oracle answer (%d,%d)=%v disagrees with BaselineShortest", seed, pairs[i].X, pairs[i].Y, want[i])
					}
				}
				for _, k := range []int{2, 3, 8} {
					g.SetShards(k)
					if vw := repinByExtension(t, g); !vw.Overlay() || vw.NumVertices() <= vw.Base().NumVertices() {
						t.Fatalf("K=%d: want an overlay over a grown vertex set (overlay=%v, n=%d, base n=%d)",
							k, vw.Overlay(), vw.NumVertices(), vw.Base().NumVertices())
					}
					checkShardedAgainst(t, s, g, k, pairs, want)
					for i, pq := range pairs {
						gotLen := -1
						if got := s.Shortest(g, pq.X, pq.Y); got.Found {
							gotLen = got.Path.Len()
						}
						if gotLen != wantLen[i] {
							t.Fatalf("seed %d K=%d Shortest(%d,%d): length %d, BaselineShortest says %d",
								seed, k, pq.X, pq.Y, gotLen, wantLen[i])
						}
					}
				}
			}
		})
	}
}

// checkSweepContracts asserts, right after a sweep with links on a —
// run to the end or stopped with its sources answered — the contracts
// that let its consumers pay O(reached) and the next sweep start clean:
// the exchange lists are empty; a reach list that is still valid names
// exactly the stamped ids, each once; and the arena's packed words are
// zero wherever they are not marked hot. It reports whether the list was
// valid.
func checkSweepContracts(t *testing.T, p *product, a *arena, ctx string) bool {
	t.Helper()
	ex := &a.ex
	for s := range ex.fr {
		if len(ex.fr[s]) != 0 || len(ex.nx[s]) != 0 {
			t.Fatalf("%s: shard %d ends the sweep with %d frontier and %d next-frontier entries", ctx, s, len(ex.fr[s]), len(ex.nx[s]))
		}
	}
	for i := range ex.box {
		if len(ex.box[i]) != 0 || len(ex.wbox[i]) != 0 {
			t.Fatalf("%s: outbox %d ends the sweep holding %d id and %d word messages", ctx, i, len(ex.box[i]), len(ex.wbox[i]))
		}
	}
	for i, w := range a.w64[a.w64Hot:cap(a.w64)] {
		if w != 0 {
			t.Fatalf("%s: packed word %d is %#x after the sweep but only the first %d are marked hot",
				ctx, a.w64Hot+i, w, a.w64Hot)
		}
	}
	if !a.reachOK {
		return false
	}
	nm := p.n * p.m
	if len(a.reach) > nm/sparseFill {
		t.Fatalf("%s: a valid reach list of %d ids outgrew the sparse threshold %d", ctx, len(a.reach), nm/sparseFill)
	}
	listed := make(map[int32]bool, len(a.reach))
	for _, id := range a.reach {
		if listed[id] {
			t.Fatalf("%s: reach list names id %d twice", ctx, id)
		}
		listed[id] = true
	}
	for id := 0; id < nm; id++ {
		if a.dst.has(id) != listed[int32(id)] {
			t.Fatalf("%s: id %d stamped=%v but listed=%v", ctx, id, a.dst.has(id), listed[int32(id)])
		}
	}
	return true
}

// TestSweepReachListAndCleanWords runs both round drivers (id-list and
// packed), on the inline single shard and exchanged over K ∈ {3, 5} on
// four workers, on a pass-through and on an overlay view — reached,
// under every K, through successive extensions — of a graph sparse
// enough that many sweeps stay under the sparse threshold, through ONE
// arena that alternates mark-only and distance sweeps. Every sweep must
// answer like the textbook oracle — a word left dirty by one sweep, or
// zeroed wrongly, shows up as a wrong closure or distance in the next —
// and must leave the reach list and the words as checkSweepContracts
// requires. Each form has to see both a kept and an abandoned list, or
// the case is vacuous.
func TestSweepReachListAndCleanWords(t *testing.T) {
	exchangeWorkersOverride.Store(4)
	defer exchangeWorkersOverride.Store(0)
	defer SetBitParallel(true)
	s, err := NewSolver("a*c*")
	if err != nil {
		t.Fatal(err)
	}
	arcs, accept := dfaOracle(s.Min)
	g := graph.RandomRegular(300, []byte{'a', 'b', 'c'}, 3, 17)
	g.AddVertex() // isolated: a sweep that reaches only its own goal states
	g.Freeze()
	n := g.NumVertices()
	rng := rand.New(rand.NewSource(17))
	shared := new(arena)
	kept, dropped := map[string]int{}, map[string]int{}

	check := func(view string, wantOverlay bool) {
		for rep := 0; rep < 24; rep++ {
			y := rng.Intn(n)
			if rep == 0 {
				y = n - 1
			}
			want := textbookSweep(g, s.Min.NumStates, arcs, accept, y)
			for _, bitsOn := range []bool{true, false} {
				for _, k := range []int{1, 3, 5} {
					SetBitParallel(bitsOn)
					g.SetShards(k)
					if wantOverlay {
						repinByExtension(t, g)
					}
					form := fmt.Sprintf("bits=%v/sharded=%v", bitsOn, k > 1)
					ctx := fmt.Sprintf("%s %s K=%d y=%d", view, form, k, y)
					p := makeProduct(g.PinView(), s.Min, shared)
					if p.vw.Overlay() != wantOverlay {
						t.Fatalf("%s: view overlay = %v", ctx, p.vw.Overlay())
					}
					p.coReach(y, shared) // mark-only: leaves the packed words hot
					checkSweepAgainstOracle(t, g, p.m, arcs, shared, false, want, ctx)
					p.distToGoal(y, shared)
					checkSweepAgainstOracle(t, g, p.m, arcs, shared, true, want, ctx)
					if checkSweepContracts(t, &p, shared, ctx) {
						kept[form]++
					} else {
						dropped[form]++
					}
					p.distToGoal(y, shared) // back to back: starts from the cleaned words
					checkSweepAgainstOracle(t, g, p.m, arcs, shared, true, want, ctx+" (repeat)")
					checkSweepContracts(t, &p, shared, ctx+" (repeat)")
				}
			}
		}
	}
	check("pass-through", false)
	g.SetShards(0)
	mutateInSteps(g, rng, 3, 4, false)
	check("overlay", true)
	g.SetShards(0)

	for _, form := range []string{"bits=true/sharded=false", "bits=true/sharded=true", "bits=false/sharded=false", "bits=false/sharded=true"} {
		if kept[form] == 0 || dropped[form] == 0 {
			t.Fatalf("%s: %d sweeps kept their reach list, %d abandoned it; the test needs both", form, kept[form], dropped[form])
		}
	}
}

// TestShardedDistancesIdentical pins the synchronous-BFS property the
// witness comparison relies on: for every K the shortest-walk lengths
// are exactly the oracle's distances (DAG tier, where the walk IS the
// answer).
func TestShardedDistancesIdentical(t *testing.T) {
	s, err := NewSolver("(a|b)*a(a|b)*")
	if err != nil {
		t.Fatal(err)
	}
	g := graph.LayeredDAG(6, 5, 2, []byte{'a', 'b'}, 11)
	n := g.NumVertices()
	m := s.Min.NumStates
	arcs, accept := dfaOracle(s.Min)
	for _, k := range []int{0, 1, 4, 8} {
		g.SetShards(k)
		for y := 0; y < n; y++ {
			dist := textbookSweep(g, m, arcs, accept, y)
			for x := 0; x < n; x++ {
				res, want := s.Solve(g, x, y), int(dist[x*m+s.Min.Start])
				if res.Found != (want >= 0) {
					t.Fatalf("K=%d (%d,%d): found=%v, oracle distance %d", k, x, y, res.Found, want)
				}
				if res.Found && res.Path.Len() != want {
					t.Fatalf("K=%d (%d,%d): walk length %d, oracle distance %d", k, x, y, res.Path.Len(), want)
				}
			}
		}
	}
}

// TestEngineShardedStats pins the serving-stack surface: an Engine
// configured with Shards reports the partition, per-shard edge counts
// summing to the edge count, and a growing exchange-round counter; a
// mutation epoch keeps everything consistent.
func TestEngineShardedStats(t *testing.T) {
	s, err := NewSolver("a*c*")
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Random(40, []byte{'a', 'b', 'c'}, 0.1, 5)
	eng := NewEngine(s, g, EngineConfig{Shards: 4})
	for x := 0; x < 40; x += 5 {
		eng.Solve(x, (x+7)%40)
	}
	st := eng.Stats()
	if st.Shards != 4 {
		t.Fatalf("Shards = %d, want 4", st.Shards)
	}
	if len(st.ShardEdges) != 4 {
		t.Fatalf("ShardEdges = %v, want 4 entries", st.ShardEdges)
	}
	sum := 0
	for _, m := range st.ShardEdges {
		sum += m
	}
	if sum != g.NumEdges() {
		t.Fatalf("ShardEdges sums to %d, want %d", sum, g.NumEdges())
	}
	if st.ExchangeRounds == 0 {
		t.Fatal("sharded queries must accumulate exchange rounds")
	}

	g.AddEdge(0, 'a', 39)
	if res, ref := eng.Solve(0, 39), s.Solve(g, 0, 39); res.Found != ref.Found {
		t.Fatalf("post-mutation: engine %v, solver %v", res.Found, ref.Found)
	}
	if st := eng.Stats(); st.Shards != 4 || st.Epoch == 0 {
		t.Fatalf("post-mutation stats lost the partition: %+v", st)
	}
}

// TestUnshardedIsOneShard pins that K=0 and K=1 are one configuration:
// the same one-shard partition, and the same table key — so a table
// swept under -shards 0 is a hit under -shards 1 — while K=2 stays a
// different key.
func TestUnshardedIsOneShard(t *testing.T) {
	s, err := NewSolver("a*c*")
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Random(30, []byte{'a', 'c'}, 0.1, 3)
	ev := &evaluator{s: s}
	var keys [3]tableKey
	var parts [3]rowParts
	for k := range keys {
		g.SetShards(k)
		pv := s.pin(g)
		keys[k], parts[k] = ev.tableKey(pv, 7, -1, tableGoal), partition(pv.vw)
	}
	g.SetShards(0)
	if parts[0] != parts[1] || parts[0].K != 1 || keys[0] != keys[1] {
		t.Fatalf("K=0 and K=1 differ: partitions %+v / %+v, keys %+v / %+v", parts[0], parts[1], keys[0], keys[1])
	}
	if keys[1] == keys[2] {
		t.Fatalf("K=1 and K=2 must not share a table key: %+v", keys[1])
	}
}

// TestShardedManyShards sweeps K past the vertex count so some shards
// are empty, catching boundary arithmetic.
func TestShardedManyShards(t *testing.T) {
	s, err := NewSolver("a*c*")
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Random(9, []byte{'a', 'c'}, 0.25, 3)
	var pairs []Pair
	for x := 0; x < 9; x++ {
		for y := 0; y < 9; y++ {
			pairs = append(pairs, Pair{X: x, Y: y})
		}
	}
	want := oracleAnswers(s, g, pairs)
	for _, k := range []int{5, 9, 16, 40} {
		g.SetShards(k)
		i := 0
		for x := 0; x < 9; x++ {
			for y := 0; y < 9; y++ {
				if got := s.Solve(g, x, y).Found; got != want[i] {
					t.Fatalf("K=%d (%d,%d): %v, want %v", k, x, y, got, want[i])
				}
				i++
			}
		}
	}
}

// TestShardCountBounded pins the K bound: the exchange allocates 3·K²
// outbox headers per search, so an absurd shard count — through
// SetShards or EngineConfig.Shards — is capped at graph.MaxShards and
// still answers.
func TestShardCountBounded(t *testing.T) {
	s, err := NewSolver("a*c*")
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Random(30, []byte{'a', 'c'}, 0.1, 3)
	want := s.Solve(g, 0, 7).Found
	g.SetShards(1 << 20)
	if got := s.Solve(g, 0, 7).Found; got != want || g.ShardCount() > graph.MaxShards {
		t.Fatalf("SetShards(1<<20): found=%v (want %v), ShardCount=%d", got, want, g.ShardCount())
	}
	eng := NewEngine(s, g, EngineConfig{Shards: 70000})
	if got := eng.Solve(0, 7).Found; got != want || eng.Stats().Shards != graph.MaxShards {
		t.Fatalf("EngineConfig.Shards=70000: found=%v (want %v), Stats().Shards=%d", got, want, eng.Stats().Shards)
	}
}

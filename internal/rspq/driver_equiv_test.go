package rspq

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/graph"
)

// This file pins the two round drivers (shardbfs.go, bitbfs.go) against
// the textbook oracle of sweep_oracle_test.go. Found bits, existence bits
// and BFS distances must be bit-identical across both drivers, every
// tier, K ∈ {0, 1, 2, 8} and pre/post-mutation epochs; witnesses are
// verified rather than compared (equal-length parent links may differ).

// kernelMode is one point of the driver axis: the packed sweep, or the
// id-list sweep forced for every DFA.
type kernelMode struct {
	name string
	bits bool
}

func kernelModes() []kernelMode {
	return []kernelMode{{name: "packed", bits: true}, {name: "idlist", bits: false}}
}

// setKernelMode applies one driver, restoring the packed default via
// t.Cleanup so no mode leaks into other tests.
func setKernelMode(t *testing.T, m kernelMode) {
	t.Helper()
	SetBitParallel(m.bits)
	t.Cleanup(func() { SetBitParallel(true) })
}

// TestDirectionBitEquivalence is the randomized kernel-equivalence
// suite: every tier × driver × K ∈ {0, 1, 2, 8}, before and after a
// mutation epoch, against the oracle's answers.
func TestDirectionBitEquivalence(t *testing.T) {
	shardCounts := []int{0, 1, 2, 8}
	for _, tc := range shardTierCases() {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(0); seed < 2; seed++ {
				rng := rand.New(rand.NewSource(seed*17 + 3))
				g := tc.gen(seed)
				isolated := g.AddVertex()
				pairs := shardPairSet(g, isolated, rng)

				check := func() {
					want := oracleAnswers(tc.solver(t), g, pairs)
					for _, m := range kernelModes() {
						setKernelMode(t, m)
						for _, k := range shardCounts {
							if k == 0 {
								s := tc.solver(t)
								g.SetShards(0)
								for i, pq := range pairs {
									got := s.Solve(g, pq.X, pq.Y)
									if got.Found != want[i] {
										t.Fatalf("mode=%s K=0 Solve(%d,%d): found=%v, oracle says %v",
											m.name, pq.X, pq.Y, got.Found, want[i])
									}
									if !VerifyWitness(got, g, s.Min, pq.X, pq.Y) {
										t.Fatalf("mode=%s K=0 Solve(%d,%d): invalid witness", m.name, pq.X, pq.Y)
									}
								}
								ex := NewBatchSolver(s, g).SolveExists(pairs)
								for i := range ex {
									if ex[i] != want[i] {
										t.Fatalf("mode=%s K=0 exists pair %d: %v, want %v", m.name, i, ex[i], want[i])
									}
								}
								continue
							}
							checkShardedAgainst(t, tc.solver(t), g, k, pairs, want)
						}
					}
				}
				check()

				// One mutation epoch (alphabet-stable edge flips), then
				// require equivalence again through the overlay.
				labels := g.Freeze().Labels()
				for i := 0; i < 6; i++ {
					u, v := rng.Intn(g.NumVertices()), rng.Intn(g.NumVertices())
					l := labels[rng.Intn(len(labels))]
					if tc.name == "dag" && u >= v {
						u, v = v, u+1
						if v >= g.NumVertices() {
							continue
						}
					}
					if !g.RemoveEdge(u, l, v) {
						g.AddEdge(u, l, v)
					}
				}
				check()
			}
		})
	}
}

// TestKernelSetAndDistEquality compares the drivers' raw outputs — the
// co-reachability set, the BFS distance array and the successor links —
// with the oracle's on both drivers, not just the query answers built on
// them: distances must be exact (BaselineShortest uses them as
// admissible lower bounds), and the closure must be identical id for id
// — on the frozen base and on an overlay view.
func TestKernelSetAndDistEquality(t *testing.T) {
	s, err := NewSolver("a*(bb+|())c*")
	if err != nil {
		t.Fatal(err)
	}
	arcs, accept := dfaOracle(s.Min)
	for seed := int64(0); seed < 3; seed++ {
		g := graph.Random(26, []byte{'a', 'b', 'c'}, 0.14, seed+50)
		rng := rand.New(rand.NewSource(seed + 60))
		for _, k := range []int{0, 2, 8} {
			g.SetShards(k)
			g.Freeze()
			// Pass-through first, then an overlay reached through three
			// mutate→pin steps under this K.
			for _, overlay := range []bool{false, true} {
				if overlay {
					mutateInSteps(g, rng, 3, 2, false)
				}
				s.Warm(g)
				if g.PinView().Overlay() != overlay {
					t.Fatalf("K=%d: view overlay = %v, want %v", k, !overlay, overlay)
				}
				for y := 0; y < g.NumVertices(); y += 5 {
					want := textbookSweep(g, s.Min.NumStates, arcs, accept, y)
					for _, m := range kernelModes() {
						setKernelMode(t, m)
						ctx := fmt.Sprintf("K=%d overlay=%v mode=%s y=%d", k, overlay, m.name, y)
						a := getArena()
						p := makeProduct(g.PinView(), s.Min, a)
						p.coReach(y, a)
						checkSweepAgainstOracle(t, g, p.m, arcs, a, false, want, ctx)
						p.distToGoal(y, a)
						checkSweepAgainstOracle(t, g, p.m, arcs, a, true, want, ctx)
						checkSweepContracts(t, &p, a, ctx)
						a.release()
					}
				}
			}
		}
		g.SetShards(0)
	}
}

// TestBitParallelWideDFAFallback pins the ≤64-state gate: a DFA too
// wide to pack must take the id-list sweep (Packed() returns nil)
// and still answer correctly.
func TestBitParallelWideDFAFallback(t *testing.T) {
	// a{70}b* minimizes to >64 states — wide enough to defeat packing.
	pattern := strings.Repeat("a", 70) + "b*"
	s, err := NewSolver(pattern)
	if err != nil {
		t.Fatal(err)
	}
	if s.Min.NumStates <= 64 {
		t.Fatalf("test premise broken: %d states packs into a word", s.Min.NumStates)
	}
	if s.Min.Packed() != nil {
		t.Fatal("Packed() must refuse DFAs wider than 64 states")
	}
	// An a-labeled path DAG: the DAG tier runs the product kernels, which
	// must fall back to the generic (unpacked) forms.
	g := graph.New(72)
	for i := 0; i < 71; i++ {
		g.AddEdge(i, 'a', i+1)
	}
	if res := s.Solve(g, 0, 70); !res.Found {
		t.Fatal("a^70 path must be found on the id-list sweep")
	}
	if res := s.Solve(g, 0, 69); res.Found {
		t.Fatal("a^69 is not in the language")
	}
	ex := NewBatchSolver(s, g).SolveExists([]Pair{{X: 0, Y: 70}, {X: 0, Y: 69}})
	if !ex[0] || ex[1] {
		t.Fatalf("existence bits on the unpacked coReach fallback: %v", ex)
	}
}

// TestExchangeRaceClean drives the K = 8 exchange on both drivers with a
// pinned four-worker pool, so the expand phases' outbox appends and the
// deliver phases' owner-partitioned writes run under the race detector
// (CI runs this package with -race).
func TestExchangeRaceClean(t *testing.T) {
	exchangeWorkersOverride.Store(4)
	defer exchangeWorkersOverride.Store(0)
	for _, m := range kernelModes() {
		setKernelMode(t, m)
		for _, tc := range shardTierCases() {
			g := tc.gen(11)
			isolated := g.AddVertex()
			rng := rand.New(rand.NewSource(11))
			pairs := shardPairSet(g, isolated, rng)
			checkShardedAgainst(t, tc.solver(t), g, 8, pairs, oracleAnswers(tc.solver(t), g, pairs))
		}
	}
}

// TestAdaptiveShards pins the EngineConfig.Shards == 0 default: small
// graphs stay unsharded, large ones get a partition sized from the
// edge count unless there is only one processor to run it, negative
// opts out, and Stats reports the choice.
func TestAdaptiveShards(t *testing.T) {
	if k := adaptiveShards(adaptiveMinEdges-1, 8); k != 0 {
		t.Fatalf("below threshold: k = %d, want 0", k)
	}
	if k := adaptiveShards(1<<30, 1); k != 0 {
		t.Fatalf("one processor: k = %d, want 0 (the sequential sweep)", k)
	}
	if k := adaptiveShards(adaptiveMinEdges, 4); k < 4 {
		t.Fatalf("at threshold: k = %d, want >= procs", k)
	}
	if k := adaptiveShards(1<<30, 4); k != graph.MaxShards {
		t.Fatalf("huge graph: k = %d, want cap %d", k, graph.MaxShards)
	}

	// The Engine half reads GOMAXPROCS: pin it, so the test asserts the
	// same thing on a one-processor machine as on any other.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))

	s, err := NewSolver("a*c*")
	if err != nil {
		t.Fatal(err)
	}
	small := graph.Random(30, []byte{'a', 'b', 'c'}, 0.1, 1)
	eng := NewEngine(s, small, EngineConfig{})
	if st := eng.Stats(); st.Shards != 0 || st.ShardsAdaptive {
		t.Fatalf("small graph must stay unsharded: %+v", st)
	}

	// 46000 vertices × 3 out-edges = 138000 edges > adaptiveMinEdges.
	// Built as strided rings rather than graph.RandomRegular: the
	// structure is irrelevant here and ring construction is O(edges).
	bigRing := func() *graph.Graph {
		g := graph.New(46000)
		for i := 0; i < 46000; i++ {
			g.AddEdge(i, 'a', (i+1)%46000)
			g.AddEdge(i, 'b', (i+37)%46000)
			g.AddEdge(i, 'c', (i+911)%46000)
		}
		return g
	}
	big := bigRing()
	engBig := NewEngine(s, big, EngineConfig{})
	if !engBig.ShardsAdaptive() {
		t.Fatal("large graph must get an adaptive partition")
	}
	st := engBig.Stats()
	if st.Shards <= 1 || !st.ShardsAdaptive {
		t.Fatalf("adaptive partition missing from stats: %+v", st)
	}
	if res, ref := engBig.Solve(0, 1), s.Solve(big, 0, 1); res.Found != ref.Found {
		t.Fatalf("adaptive engine answer %v diverges from solver %v", res.Found, ref.Found)
	}

	// An explicit configuration wins over the adaptive default...
	engFixed := NewEngine(s, bigRing(), EngineConfig{Shards: 2})
	if engFixed.ShardsAdaptive() {
		t.Fatal("explicit Shards must not be reported adaptive")
	}
	if st := engFixed.Stats(); st.Shards != 2 {
		t.Fatalf("explicit Shards = %d, want 2", st.Shards)
	}
	// ...and a negative value opts out entirely.
	engOff := NewEngine(s, bigRing(), EngineConfig{Shards: -1})
	if st := engOff.Stats(); st.Shards != 0 || st.ShardsAdaptive {
		t.Fatalf("Shards=-1 must leave the graph unsharded: %+v", st)
	}

	// One processor: the adaptive default stays sequential, an explicit
	// count still shards.
	runtime.GOMAXPROCS(1)
	if st := NewEngine(s, bigRing(), EngineConfig{}).Stats(); st.Shards != 0 || st.ShardsAdaptive {
		t.Fatalf("one processor must leave the graph unsharded: %+v", st)
	}
	if st := NewEngine(s, bigRing(), EngineConfig{Shards: 3}).Stats(); st.Shards != 3 {
		t.Fatalf("explicit Shards on one processor = %d, want 3", st.Shards)
	}
}

// TestRoundAccountingSplit pins the round accounting: ExchangeRounds
// counts exactly the rounds the sweeps ran, as their traces record them,
// and the a*c* sweeps take the packed driver.
func TestRoundAccountingSplit(t *testing.T) {
	s, err := NewSolver("a*c*")
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Random(40, []byte{'a', 'b', 'c'}, 0.1, 5)
	eng := NewEngine(s, g, EngineConfig{Shards: 4})
	traced := 0
	for x := 0; x < 40; x += 5 {
		for _, y := range []int{(x + 7) % 40, (x + 13) % 40} {
			_, tr := eng.SolveTraced(x, y)
			traced += len(tr.Rounds)
		}
	}
	st := eng.Stats()
	if traced == 0 || st.ExchangeRounds != int64(traced) {
		t.Fatalf("ExchangeRounds = %d, traced rounds = %d", st.ExchangeRounds, traced)
	}
	if st.BitParallelHits == 0 {
		t.Fatalf("a*c* packs into a word; the sweeps must take the packed driver: %+v", st)
	}
}

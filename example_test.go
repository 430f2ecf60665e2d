package trichotomy_test

import (
	"fmt"
	"math/rand"
	"testing"

	trichotomy "repro"
)

// Compile a language, classify it, and run regular simple path queries
// on a small edge-labeled graph.
func Example_quickstart() {
	// The paper's Example 1 language: a*(bb⁺+ε)c*. It looks like the
	// NP-complete a*bc*, but is tractable (NL-complete).
	lang := trichotomy.MustCompile("a*(bb+|())c*")
	fmt.Println(lang.Describe())

	// An a-chain into a b-pair into a c-chain, plus a decoy single-b
	// shortcut that is NOT in the language.
	g := trichotomy.NewGraph(8)
	g.AddEdge(0, 'a', 1)
	g.AddEdge(1, 'a', 2)
	g.AddEdge(2, 'b', 3)
	g.AddEdge(3, 'b', 4)
	g.AddEdge(4, 'c', 5)
	g.AddEdge(5, 'c', 6)
	g.AddEdge(2, 'b', 7) // decoy: single b
	g.AddEdge(7, 'c', 6) // ... then c: word "aabc" ∉ L

	res := lang.Solve(g, 0, 6)
	fmt.Printf("simple path 0→6: found=%v word=%q path=%v\n", res.Found, res.Path.Word(), res.Path)
	short := lang.Shortest(g, 0, 6)
	fmt.Printf("shortest simple path 0→6: length=%d word=%q\n", short.Path.Len(), short.Path.Word())

	// A hard language on the same graph: the dispatcher switches to
	// another algorithm transparently.
	hard := trichotomy.MustCompile("a*bc*")
	fmt.Println(hard.Describe())
	res2 := hard.Solve(g, 0, 6)
	fmt.Printf("a*bc* simple path 0→6: found=%v word=%q (algorithm: %s)\n",
		res2.Found, res2.Path.Word(), hard.AlgorithmFor(g))
	// Output:
	// RSPQ(a*(bb+|())c*) is NL-complete on edge-labeled graphs (minimal DFA: 5 states); Ψtr form: ([a]{1,})?([b]{2,})?([c]{1,})?
	// simple path 0→6: found=true word="aabbcc" path=0 -a-> 1 -a-> 2 -b-> 3 -b-> 4 -c-> 5 -c-> 6
	// shortest simple path 0→6: length=6 word="aabbcc"
	// RSPQ(a*bc*) is NP-complete on edge-labeled graphs (minimal DFA: 3 states); hardness witness: q=0 wl="" w1="a" wm="b" w2="ccc" wr="ccccccccc"
	// a*bc* simple path 0→6: found=true word="aabc" (algorithm: baseline)
}

// Under the W3C draft semantics of SPARQL 1.1 property paths, Kleene-star
// steps must not revisit nodes: simple-path semantics. This contrasts
// walks with simple paths on a synthetic social graph with 'f' (follows)
// and 'k' (knows) edges.
func Example_socialnet() {
	g := socialGraph(30, 3)
	follows := trichotomy.MustCompile("f*")          // subword-closed: the semantics coincide (Mendelzon–Wood)
	bridge := trichotomy.MustCompile("f*(kk+|())f*") // Example 1 shape: tractable
	oneKnows := trichotomy.MustCompile("f*kf*")      // a*ba* shape: NP-complete
	langs := []*trichotomy.Language{follows, bridge, oneKnows}

	fmt.Println("query                         pair     walk  simple  agree")
	for _, lang := range langs {
		for _, p := range [][2]int{{0, 29}, {3, 27}, {5, 20}, {8, 14}} {
			walk, simple := lang.SolveWalk(g, p[0], p[1]), lang.Solve(g, p[0], p[1])
			fmt.Printf("%-28s  (%2d,%2d)  %-5v %-6v  %v\n",
				lang.Pattern(), p[0], p[1], walk.Found, simple.Found, walk.Found == simple.Found)
		}
	}

	// On a 2-cycle a 3-step follows chain must revisit a node: the walk
	// semantics accepts, the simple semantics rejects.
	tiny := trichotomy.NewGraph(2)
	tiny.AddEdge(0, 'f', 1)
	tiny.AddEdge(1, 'f', 0)
	loopy := trichotomy.MustCompile("fff")
	fmt.Printf("\n2-cycle, pattern fff, 0→1: walk=%v simple=%v (the walk revisits node 0)\n\n",
		loopy.SolveWalk(tiny, 0, 1).Found, loopy.Solve(tiny, 0, 1).Found)
	for _, lang := range langs {
		fmt.Println(lang.Describe())
	}
	// Output:
	// query                         pair     walk  simple  agree
	// f*                            ( 0,29)  false false   true
	// f*                            ( 3,27)  false false   true
	// f*                            ( 5,20)  false false   true
	// f*                            ( 8,14)  true  true    true
	// f*(kk+|())f*                  ( 0,29)  true  true    true
	// f*(kk+|())f*                  ( 3,27)  true  true    true
	// f*(kk+|())f*                  ( 5,20)  true  true    true
	// f*(kk+|())f*                  ( 8,14)  true  true    true
	// f*kf*                         ( 0,29)  true  true    true
	// f*kf*                         ( 3,27)  true  true    true
	// f*kf*                         ( 5,20)  true  true    true
	// f*kf*                         ( 8,14)  false false   true
	//
	// 2-cycle, pattern fff, 0→1: walk=true simple=false (the walk revisits node 0)
	//
	// RSPQ(f*) is NL-complete on edge-labeled graphs (minimal DFA: 1 states); Ψtr form: ([f]{1,})?
	// RSPQ(f*(kk+|())f*) is NL-complete on edge-labeled graphs (minimal DFA: 5 states); Ψtr form: ([f]{1,})?([k]{2,})?([f]{1,})?
	// RSPQ(f*kf*) is NP-complete on edge-labeled graphs (minimal DFA: 3 states); hardness witness: q=0 wl="" w1="f" wm="k" w2="fff" wr="fffffffff"
}

// socialGraph synthesizes two follows-communities joined by
// knows-bridges.
func socialGraph(n, deg int) *trichotomy.Graph {
	rng := rand.New(rand.NewSource(11))
	g := trichotomy.NewGraph(n)
	half := n / 2
	community := func(lo, hi int) {
		for u := lo; u < hi; u++ {
			for d := 0; d < deg; d++ {
				if v := lo + rng.Intn(hi-lo); v != u {
					g.AddEdge(u, 'f', v)
				}
			}
		}
	}
	community(0, half)
	community(half, n)
	for i := 0; i < 4; i++ { // knows-bridges of length 2 through a relay
		a, b := rng.Intn(half), half+rng.Intn(n-half)
		relay := g.AddVertex()
		g.AddEdge(a, 'k', relay)
		g.AddEdge(relay, 'k', b)
	}
	g.AddEdge(2, 'k', half+2) // two single knows edges
	g.AddEdge(half+3, 'k', 3)
	return g
}

// Metabolic networks are a domain where simple-path semantics matters: a
// pathway should not revisit a metabolite. Edge labels are reaction
// kinds: 'e' enzymatic step, 't' transport, 'r' regulation. One burst of
// ≥ 2 transports, e*(tt+|())e*, is tractable; exactly one regulation
// step, e*re*, is NP-complete and answered by the exact baseline.
func Example_metabolic() {
	g, src, dst := pathwayGraph(40, 7)
	for _, q := range []string{"e*", "e*(tt+|())e*", "e*re*", "e*(rr+|())e*", "[etr]*"} {
		lang := trichotomy.MustCompile(q)
		res := lang.Solve(g, src, dst)
		fmt.Printf("%-16s class=%-12v algo=%-9s → ", q, lang.Class(), lang.AlgorithmFor(g))
		if res.Found {
			fmt.Printf("pathway of %d reactions, word %q\n", res.Path.Len(), res.Path.Word())
		} else {
			fmt.Println("no pathway")
		}
	}

	lang := trichotomy.MustCompile("e*(tt+|())e*")
	short := lang.Shortest(g, src, dst)
	fmt.Printf("\nshortest transport-burst pathway: %d reactions (%s)\n", short.Path.Len(), short.Path.Word())
	// Bounded search via color coding (Theorem 7): at most 6 reactions.
	fmt.Printf("pathway with ≤ 6 reactions: found=%v\n", lang.SolveBounded(g, src, dst, 6, 1).Found)
	// Output:
	// e*               class=NL-complete  algo=subword   → pathway of 39 reactions, word "eeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeee"
	// e*(tt+|())e*     class=NL-complete  algo=summary   → pathway of 10 reactions, word "eeeetteeee"
	// e*re*            class=NP-complete  algo=baseline  → pathway of 25 reactions, word "eeeeeeeeeeeeeeeeeereeeeee"
	// e*(rr+|())e*     class=NL-complete  algo=summary   → pathway of 39 reactions, word "eeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeee"
	// [etr]*           class=NL-complete  algo=subword   → pathway of 10 reactions, word "eeeetteeee"
	//
	// shortest transport-burst pathway: 10 reactions (eeeetteeee)
	// pathway with ≤ 6 reactions: found=false
}

// pathwayGraph synthesizes a backbone of enzymatic steps with transport
// shortcuts and regulation cross-links.
func pathwayGraph(n int, seed int64) (g *trichotomy.Graph, src, dst int) {
	rng := rand.New(rand.NewSource(seed))
	g = trichotomy.NewGraph(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, 'e', i+1)
	}
	for i := 0; i < n/4; i++ { // transport bursts of length 2 via relays
		a, b := rng.Intn(n-1), rng.Intn(n-1)
		relay := g.AddVertex()
		g.AddEdge(a, 't', relay)
		g.AddEdge(relay, 't', b)
	}
	for i := 0; i < n/5; i++ {
		g.AddEdge(rng.Intn(n-1), 'r', rng.Intn(n-1))
	}
	return g, 0, n - 1
}

// Routes on a vertex-labeled road network: cities are 'm' metropolis,
// 't' town, 'v' village, and no city is visited twice. On vertex-labeled
// graphs the tractable fragment is the larger trCvlg (Theorem 5): the
// alternation (tm)* is NP-complete on edge-labeled graphs yet
// polynomial here.
func Example_roadtrip() {
	vg := trichotomy.NewVGraph([]byte("mtvtmvtvtmvm")) // 0 and 11 are metropolises
	for _, e := range [][2]int{
		{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 11},
		{0, 6}, {6, 7}, {7, 8}, {8, 9}, {9, 11},
		{1, 6}, {3, 8}, {4, 9}, {2, 7}, {5, 10}, {10, 11},
		{1, 3}, {1, 4}, {4, 8},
	} {
		vg.AddEdge(e[0], e[1])
	}
	for _, q := range []struct {
		what, pattern string
		to            int
	}{
		{"towns, then metropolises", "t*m*", 11},
		{"strict town/metropolis alternation", "(tm)*", 9},
		{"avoid villages", "[tm]*", 11},
		{"optional village stretch (≥2)", "[tm]*(vv+|())[tm]*", 11},
	} {
		lang := trichotomy.MustCompile(q.pattern)
		res := lang.SolveVlg(vg, 0, q.to)
		fmt.Printf("%-40s %-28s edge-class=%v vlg-class=%v → ", q.what, "pattern "+q.pattern, lang.Class(), lang.ClassifyVlg())
		if res.Found {
			fmt.Printf("route %v (labels %q)\n", res.Path.Vertices, res.Path.Word())
		} else {
			fmt.Println("no route")
		}
	}

	// The vl-solver is polynomial, so the alternation query stays fast on
	// a large random network with a planted alternating corridor.
	res := trichotomy.MustCompile("(tm)*").SolveVlg(roadNetwork(3000, 4, 42), 0, 2999)
	fmt.Printf("\nlarge network (3000 cities): alternating route found=%v (length %d)\n", res.Found, res.Path.Len())
	// Output:
	// towns, then metropolises                 pattern t*m*                 edge-class=NL-complete vlg-class=NL-complete → route [0 1 4 9 11] (labels "tmmm")
	// strict town/metropolis alternation       pattern (tm)*                edge-class=NP-complete vlg-class=NL-complete → route [0 1 4 8 9] (labels "tmtm")
	// avoid villages                           pattern [tm]*                edge-class=NL-complete vlg-class=NL-complete → route [0 1 4 9 11] (labels "tmmm")
	// optional village stretch (≥2)            pattern [tm]*(vv+|())[tm]*   edge-class=NL-complete vlg-class=NL-complete → route [0 1 4 9 11] (labels "tmmm")
	//
	// large network (3000 cities): alternating route found=true (length 6)
}

// roadNetwork returns n random cities of out-degree deg, with an
// alternating t/m corridor planted from city 0 to city n-1.
func roadNetwork(n, deg int, seed int64) *trichotomy.VGraph {
	rng := rand.New(rand.NewSource(seed))
	labels := make([]byte, n)
	for i := range labels {
		labels[i] = "mtv"[rng.Intn(3)]
	}
	labels[0] = 'm'
	corridor := []int{0, n / 7, 2 * n / 7, 3 * n / 7, 4 * n / 7, 5 * n / 7, n - 1}
	for i := 1; i < len(corridor); i++ {
		labels[corridor[i]] = "mt"[i%2]
	}
	labels[n-1] = 'm'
	vg := trichotomy.NewVGraph(labels)
	for i := 0; i+1 < len(corridor); i++ {
		vg.AddEdge(corridor[i], corridor[i+1])
	}
	for u := 0; u < n; u++ {
		for d := 0; d < deg; d++ {
			vg.AddEdge(u, rng.Intn(n))
		}
	}
	return vg
}

// BenchmarkSolveVlg times Example_roadtrip's large query, (tm)* from
// city 0 to city 2999 of the 3,000-city network, on a warm vl-graph:
// the query runs on the network's stored db-encoding, whose indexes the
// first call (here Warm) builds and every later call shares.
func BenchmarkSolveVlg(b *testing.B) {
	b.ReportAllocs()
	lang := trichotomy.MustCompile("(tm)*")
	vg := roadNetwork(3000, 4, 42)
	lang.Warm(vg.DBGraph())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !lang.SolveVlg(vg, 0, 2999).Found {
			b.Fatal("no route")
		}
	}
}

// Interleave edge deltas with serving-engine queries. Every mutation
// batch advances the graph's epoch, which invalidates the engine's cached
// tables and results by key. Queries never wait for a refreeze: the next
// query pins the pending delta as a read overlay on the last frozen CSR,
// so the loop serves every read through overlay views with one full
// freeze, the initial build. Engine.Compact merges the delta into a flat
// CSR off the query path, as rspqd's background compaction does.
func Example_streaming() {
	lang := trichotomy.MustCompile("a*c*") // subword-closed: NL tier
	const n = 512
	rng := rand.New(rand.NewSource(7))
	labels := []byte("abc")
	g := trichotomy.NewGraph(n)
	for i := 0; i < 4*n; i++ {
		g.AddEdge(rng.Intn(n), labels[rng.Intn(len(labels))], rng.Intn(n))
	}
	eng := lang.NewEngine(g, trichotomy.EngineConfig{})
	fmt.Printf("base graph: %d vertices, %d edges, tier %s\n", g.NumVertices(), g.NumEdges(), lang.AlgorithmFor(g))

	// Each round flips 8 random edges (remove when present, add when
	// not), then serves 64 queries against the flipped edges' heads.
	found := 0
	for round := 0; round < 12; round++ {
		var delta []trichotomy.Edge
		for k := 0; k < 8; k++ {
			e := trichotomy.Edge{From: rng.Intn(n), Label: labels[rng.Intn(len(labels))], To: rng.Intn(n)}
			if !g.RemoveEdge(e.From, e.Label, e.To) {
				g.AddEdge(e.From, e.Label, e.To)
			}
			delta = append(delta, e)
		}
		for q := 0; q < 64; q++ {
			if eng.Exists(rng.Intn(n), delta[q%len(delta)].To) {
				found++
			}
		}
		st := eng.Stats()
		fmt.Printf("round %2d: epoch=%-3d delta=(%d adds, %d dels) reads(overlay/pass)=%d/%d tables hit/miss=%d/%d results hit/miss=%d/%d\n",
			round, st.Epoch, st.PendingAdds, st.PendingRemoves, st.OverlayReads, st.PassThroughReads,
			st.Tables.Hits, st.Tables.Misses, st.Results.Hits, st.Results.Misses)
	}

	// Compaction keeps the epoch, so the caches stay warm.
	compacted := eng.Compact()
	st := eng.Stats()
	full, inc := g.FreezeStats()
	fmt.Printf("served %d queries, %d found\n", st.Queries, found)
	fmt.Printf("reads: %d through overlay views, %d pass-through\n", st.OverlayReads, st.PassThroughReads)
	fmt.Printf("freezes: %d full (the initial build), %d incremental; compacted=%v, delta now (%d,%d)\n",
		full, inc, compacted, st.PendingAdds, st.PendingRemoves)
	fmt.Printf("snapshot rebuilds observed by the engine: %d\n", st.SnapshotRebuilds)
	// Output:
	// base graph: 512 vertices, 2044 edges, tier subword
	// round  0: epoch=2052 delta=(8 adds, 0 dels) reads(overlay/pass)=64/0 tables hit/miss=53/75 results hit/miss=0/128
	// round  1: epoch=2060 delta=(16 adds, 0 dels) reads(overlay/pass)=128/0 tables hit/miss=99/157 results hit/miss=0/256
	// round  2: epoch=2068 delta=(24 adds, 0 dels) reads(overlay/pass)=192/0 tables hit/miss=146/236 results hit/miss=1/383
	// round  3: epoch=2076 delta=(32 adds, 0 dels) reads(overlay/pass)=256/0 tables hit/miss=185/325 results hit/miss=1/511
	// round  4: epoch=2084 delta=(40 adds, 0 dels) reads(overlay/pass)=320/0 tables hit/miss=223/415 results hit/miss=1/639
	// round  5: epoch=2092 delta=(48 adds, 0 dels) reads(overlay/pass)=384/0 tables hit/miss=265/501 results hit/miss=1/767
	// round  6: epoch=2100 delta=(56 adds, 0 dels) reads(overlay/pass)=448/0 tables hit/miss=309/585 results hit/miss=1/895
	// round  7: epoch=2108 delta=(64 adds, 0 dels) reads(overlay/pass)=512/0 tables hit/miss=347/675 results hit/miss=1/1023
	// round  8: epoch=2116 delta=(72 adds, 0 dels) reads(overlay/pass)=576/0 tables hit/miss=390/760 results hit/miss=1/1151
	// round  9: epoch=2124 delta=(80 adds, 0 dels) reads(overlay/pass)=640/0 tables hit/miss=429/849 results hit/miss=1/1279
	// round 10: epoch=2132 delta=(88 adds, 0 dels) reads(overlay/pass)=704/0 tables hit/miss=473/931 results hit/miss=2/1406
	// round 11: epoch=2140 delta=(96 adds, 0 dels) reads(overlay/pass)=768/0 tables hit/miss=515/1015 results hit/miss=3/1533
	// served 768 queries, 400 found
	// reads: 768 through overlay views, 0 pass-through
	// freezes: 1 full (the initial build), 1 incremental; compacted=true, delta now (0,0)
	// snapshot rebuilds observed by the engine: 13
}

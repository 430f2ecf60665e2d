package persist

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// benchGraph builds the deterministic 200k-edge fixture the load
// benchmarks boot from (the repo benchmark's serve-churn workload
// times the same boot paths on its own, larger graph).
func benchGraph() *graph.Graph {
	const n, m = 40_000, 200_000
	rng := rand.New(rand.NewSource(5))
	labels := []byte("abc")
	g := graph.New(n)
	for g.NumEdges() < m {
		g.AddEdge(rng.Intn(n), labels[rng.Intn(3)], rng.Intn(n))
	}
	g.Freeze()
	return g
}

// BenchmarkSnapshotLoad times a full warm boot — Open maps the
// snapshot, adopts the CSR, replays the (empty) WAL — against the
// cold path that rebuilds and freezes the same graph from scratch.
func BenchmarkSnapshotLoad(b *testing.B) {
	dir := b.TempDir()
	db, _, err := Open(Options{Dir: dir, Bootstrap: func() (*graph.Graph, error) { return benchGraph(), nil }})
	if err != nil {
		b.Fatal(err)
	}
	if err := db.Close(); err != nil {
		b.Fatal(err)
	}
	noBoot := func() (*graph.Graph, error) { return nil, fmt.Errorf("want warm boot") }

	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			db, g, err := Open(Options{Dir: dir, Bootstrap: noBoot})
			if err != nil {
				b.Fatal(err)
			}
			if g.NumEdges() == 0 {
				b.Fatal("empty recovery")
			}
			if err := db.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if g := benchGraph(); g.NumEdges() == 0 {
				b.Fatal("empty rebuild")
			}
		}
	})
}

// BenchmarkWALReplay times recovery of a 10k-record tail on top of the
// snapshot — the warm-boot worst case between checkpoints.
func BenchmarkWALReplay(b *testing.B) {
	dir := b.TempDir()
	db, g, err := Open(Options{Dir: dir, Bootstrap: func() (*graph.Graph, error) { return benchGraph(), nil }})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	n := g.NumVertices()
	for logged := 0; logged < 10_000; {
		from, to := rng.Intn(n), rng.Intn(n)
		if g.HasEdge(from, 'a', to) {
			continue
		}
		ops := []Op{{Kind: OpAddEdge, From: from, Label: 'a', To: to}}
		if _, err := db.LogBatch(ops); err != nil {
			b.Fatal(err)
		}
		if _, err := ApplyOps(g, ops); err != nil {
			b.Fatal(err)
		}
		logged++
	}
	if err := db.Close(); err != nil {
		b.Fatal(err)
	}
	noBoot := func() (*graph.Graph, error) { return nil, fmt.Errorf("want warm boot") }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, _, err := Open(Options{Dir: dir, Bootstrap: noBoot})
		if err != nil {
			b.Fatal(err)
		}
		if st := db.Stats(); st.WALReplayed != 10_000 {
			b.Fatalf("replayed %d", st.WALReplayed)
		}
		if err := db.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

package graph

import (
	"math/rand"
	"testing"
)

// TestCSRMatchesAdjacency cross-checks every CSR accessor against the
// slice-backed adjacency on seeded random graphs.
func TestCSRMatchesAdjacency(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(40)
		g := Random(n, []byte{'a', 'b', 'c'}, 0.15, seed)
		c := g.Freeze()
		if c.NumVertices() != g.NumVertices() || c.NumEdges() != g.NumEdges() {
			t.Fatalf("seed %d: size mismatch: csr %d/%d graph %d/%d",
				seed, c.NumVertices(), c.NumEdges(), g.NumVertices(), g.NumEdges())
		}
		if !c.Labels().Equal(g.Alphabet()) {
			t.Fatalf("seed %d: alphabet mismatch %s vs %s", seed, c.Labels(), g.Alphabet())
		}
		for v := 0; v < n; v++ {
			for _, label := range []byte{'a', 'b', 'c', 'z'} {
				var wantOut, wantIn []int32
				for _, e := range g.OutEdges(v) {
					if e.Label == label {
						wantOut = append(wantOut, int32(e.To))
					}
				}
				for _, e := range g.InEdges(v) {
					if e.Label == label {
						wantIn = append(wantIn, int32(e.From))
					}
				}
				checkBucket(t, c.OutWith(v, label), wantOut)
				checkBucket(t, c.InWith(v, label), wantIn)
				for _, to := range wantOut {
					if !c.HasEdge(v, label, int(to)) {
						t.Fatalf("seed %d: missing edge %d -%c-> %d", seed, v, label, to)
					}
				}
			}
			if c.HasEdge(v, 'z', (v+1)%n) {
				t.Fatalf("seed %d: phantom z-edge from %d", seed, v)
			}
		}
	}
}

// rowEmpty reports whether every out- and in-bucket of v is empty, on a
// CSR or a view.
func rowEmpty(r interface {
	NumLabels() int
	OutWithID(v, lid int) []int32
	InWithID(v, lid int) []int32
}, v int) bool {
	for lid := 0; lid < r.NumLabels(); lid++ {
		if len(r.OutWithID(v, lid))+len(r.InWithID(v, lid)) != 0 {
			return false
		}
	}
	return true
}

func checkBucket(t *testing.T, got []int32, want []int32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("bucket mismatch: got %v want %v", got, want)
	}
	seen := map[int32]int{}
	for _, x := range want {
		seen[x]++
	}
	for _, x := range got {
		if seen[x] == 0 {
			t.Fatalf("bucket mismatch: got %v want %v", got, want)
		}
		seen[x]--
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] > got[i] {
			t.Fatalf("bucket not sorted: %v", got)
		}
	}
}

// TestFreezeInvalidation asserts that mutation drops the CSR, alphabet
// and acyclicity caches and that rebuilt snapshots see the new edges.
func TestFreezeInvalidation(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 'a', 1)
	c1 := g.Freeze()
	if g.Freeze() != c1 {
		t.Fatal("Freeze must cache between mutations")
	}
	if !g.IsAcyclic() {
		t.Fatal("path graph must be acyclic")
	}
	if got := g.Alphabet().String(); got != "{a}" {
		t.Fatalf("alphabet = %s, want {a}", got)
	}

	g.AddEdge(1, 'b', 2)
	g.AddEdge(2, 'c', 0) // closes a cycle
	c2 := g.Freeze()
	if c2 == c1 {
		t.Fatal("Freeze must rebuild after AddEdge")
	}
	if c2.NumEdges() != 3 || !c2.HasEdge(2, 'c', 0) {
		t.Fatalf("rebuilt CSR stale: %d edges", c2.NumEdges())
	}
	if got := g.Alphabet().String(); got != "{abc}" {
		t.Fatalf("alphabet after mutation = %s, want {abc}", got)
	}
	if g.IsAcyclic() {
		t.Fatal("cycle not detected after cache invalidation")
	}
	// c1 stays a valid snapshot of the old graph.
	if c1.NumEdges() != 1 || c1.HasEdge(1, 'b', 2) {
		t.Fatal("old snapshot mutated")
	}

	v := g.AddVertex()
	c3 := g.Freeze()
	if c3 == c2 || c3.NumVertices() != 4 {
		t.Fatal("Freeze must rebuild after AddVertex")
	}
	if !rowEmpty(c3, v) {
		t.Fatal("fresh vertex must be isolated")
	}
}

// TestCSREmptyGraph covers the degenerate no-edge layout.
func TestCSREmptyGraph(t *testing.T) {
	g := New(4)
	c := g.Freeze()
	if c.NumLabels() != 0 || c.NumEdges() != 0 {
		t.Fatalf("empty graph CSR: %d labels %d edges", c.NumLabels(), c.NumEdges())
	}
	if c.OutWith(2, 'a') != nil || c.InWith(2, 'a') != nil {
		t.Fatal("empty graph buckets must be nil")
	}
}

package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/graph"
	"repro/internal/rspq"
)

// buildTestGraph returns a small graph with a mixed mutation history:
// frozen base + pending delta, so Parts/FromCSR see both paths.
func buildTestGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New(6)
	g.AddEdge(0, 'a', 1)
	g.AddEdge(1, 'b', 2)
	g.AddEdge(2, 'b', 3)
	g.AddEdge(3, 'c', 4)
	g.AddEdge(4, 'a', 5)
	g.Freeze()
	g.AddEdge(5, 'c', 0) // pending delta on top of the frozen base
	g.RemoveEdge(1, 'b', 2)
	return g
}

func TestSnapshotRoundTrip(t *testing.T) {
	g := buildTestGraph(t)
	csr := g.Freeze()
	meta := SnapshotMeta{Epoch: g.Epoch(), LastSeq: 42, AcyclicKnown: true, Acyclic: true}

	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, csr.Parts(), meta); err != nil {
		t.Fatal(err)
	}
	csr2, meta2, err := OpenSnapshot(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if meta2 != meta {
		t.Fatalf("meta round trip: got %+v, want %+v", meta2, meta)
	}
	g2 := graph.FromCSR(csr2, meta2.Epoch)
	if !graph.EdgeSetEqual(g, g2) {
		t.Fatalf("decoded graph differs:\n%v\nvs\n%v", g, g2)
	}
	if g2.Epoch() != g.Epoch() {
		t.Fatalf("epoch: got %d, want %d", g2.Epoch(), g.Epoch())
	}
	// The reconstructed graph must stay fully mutable: the next
	// mutation rides the delta overlay on the adopted CSR.
	g2.AddEdge(0, 'b', 5)
	if !g2.HasEdge(0, 'b', 5) || g2.NumEdges() != g.NumEdges()+1 {
		t.Fatal("reconstructed graph not mutable")
	}
}

func TestSnapshotEmptyGraph(t *testing.T) {
	g := graph.New(0)
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, g.Freeze().Parts(), SnapshotMeta{}); err != nil {
		t.Fatal(err)
	}
	csr, _, err := OpenSnapshot(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if csr.NumVertices() != 0 || csr.NumEdges() != 0 {
		t.Fatalf("got %d vertices / %d edges", csr.NumVertices(), csr.NumEdges())
	}
}

func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, walFile)
	w, err := openWAL(osFS{}, path, 0, SyncPolicy{Mode: SyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	batches := [][]Op{
		{{Kind: OpAddVertices, Count: 4}},
		{{Kind: OpAddEdge, From: 0, Label: 'a', To: 1}, {Kind: OpAddEdge, From: 1, Label: 'b', To: 2}},
		{{Kind: OpRemoveEdge, From: 0, Label: 'a', To: 1}, {Kind: OpAddEdge, From: 2, Label: 'c', To: 3}},
	}
	for i, b := range batches {
		seq, err := w.Append(b)
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("batch %d got seq %d", i, seq)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	data, err := osFS{}.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.New(0)
	var seqs []uint64
	lastSeq, goodLen, err := ScanWAL(data, func(seq uint64, payload []byte) error {
		ops, err := DecodeOps(payload)
		if err != nil {
			return err
		}
		if _, err := ApplyOps(g, ops); err != nil {
			return err
		}
		seqs = append(seqs, seq)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if lastSeq != 3 || int(goodLen) != len(data) {
		t.Fatalf("lastSeq=%d goodLen=%d len=%d", lastSeq, goodLen, len(data))
	}
	if len(seqs) != 3 {
		t.Fatalf("replayed %d records", len(seqs))
	}
	if g.NumVertices() != 4 || g.NumEdges() != 2 {
		t.Fatalf("replayed graph: %d vertices %d edges", g.NumVertices(), g.NumEdges())
	}
	if g.HasEdge(0, 'a', 1) || !g.HasEdge(1, 'b', 2) || !g.HasEdge(2, 'c', 3) {
		t.Fatal("replayed edge set wrong")
	}

	// A torn tail (half a record) ends the scan at the last good
	// boundary without error.
	torn := append(append([]byte(nil), data...), data[:walHeaderSize+2]...)
	lastSeq, goodLen, err = ScanWAL(torn, func(uint64, []byte) error { return nil })
	if err != nil || lastSeq != 3 || int(goodLen) != len(data) {
		t.Fatalf("torn tail: lastSeq=%d goodLen=%d err=%v", lastSeq, goodLen, err)
	}
}

func TestDBWarmBoot(t *testing.T) {
	dir := t.TempDir()
	boot := func() (*graph.Graph, error) {
		g := graph.New(5)
		g.AddEdge(0, 'a', 1)
		g.AddEdge(1, 'b', 2)
		return g, nil
	}

	db, g, err := Open(Options{Dir: dir, Bootstrap: boot})
	if err != nil {
		t.Fatal(err)
	}
	if db.WarmStart() {
		t.Fatal("first open must be cold")
	}
	// Log-then-apply, exactly as the serving layer does.
	ops := []Op{{Kind: OpAddEdge, From: 2, Label: 'b', To: 3}, {Kind: OpAddEdge, From: 3, Label: 'c', To: 4}}
	if _, err := db.LogBatch(ops); err != nil {
		t.Fatal(err)
	}
	if _, err := ApplyOps(g, ops); err != nil {
		t.Fatal(err)
	}
	if !db.Dirty() {
		t.Fatal("db must be dirty after a logged batch")
	}
	wantEpoch, wantEdges := g.Epoch(), g.NumEdges()
	oracle := g
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Reboot: snapshot (from the cold-start checkpoint) + WAL tail.
	db2, g2, err := Open(Options{Dir: dir, Bootstrap: func() (*graph.Graph, error) {
		t.Fatal("bootstrap must not run on a warm boot")
		return nil, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if !db2.WarmStart() {
		t.Fatal("second open must be warm")
	}
	if st := db2.Stats(); st.WALReplayed != 1 {
		t.Fatalf("replayed %d records, want 1", st.WALReplayed)
	}
	if g2.Epoch() != wantEpoch || g2.NumEdges() != wantEdges {
		t.Fatalf("recovered epoch=%d edges=%d, want %d/%d", g2.Epoch(), g2.NumEdges(), wantEpoch, wantEdges)
	}
	if !graph.EdgeSetEqual(oracle, g2) {
		t.Fatal("recovered graph differs from oracle")
	}

	// Checkpoint folds the tail into the snapshot and empties the WAL.
	if err := db2.Checkpoint(g2); err != nil {
		t.Fatal(err)
	}
	if db2.Dirty() {
		t.Fatal("checkpoint must clear dirtiness")
	}
	data, err := osFS{}.ReadFile(filepath.Join(dir, walFile))
	if err != nil || len(data) != 0 {
		t.Fatalf("wal after checkpoint: %d bytes, err=%v", len(data), err)
	}
}

func TestDecodeRejects(t *testing.T) {
	g := buildTestGraph(t)
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, g.Freeze().Parts(), SnapshotMeta{}); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	if _, _, err := DecodeSnapshot(valid[:headerSize-1]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("short header: %v", err)
	}
	if _, _, err := DecodeSnapshot(valid[:len(valid)-4]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated payload: %v", err)
	}
	notMagic := append([]byte(nil), valid...)
	notMagic[0] ^= 0xff
	if _, _, err := DecodeSnapshot(notMagic); !errors.Is(err, ErrNotSnapshot) {
		t.Fatalf("bad magic: %v", err)
	}
	flipped := append([]byte(nil), valid...)
	flipped[headerSize+8] ^= 0x01 // payload bit
	if _, _, err := DecodeSnapshot(flipped); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("flipped payload: %v", err)
	}
}

// TestAcyclicFlagIgnored pins snapshot compatibility after the
// acyclicity verdict left the graph: a data dir whose snapshot sets the
// old acyclic-known flag (the golden file does) boots warm through Open
// and answers like a cold build of the same graph, and the next
// Checkpoint writes the flags word as 0.
func TestAcyclicFlagIgnored(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "snapshot_v1.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if binary.LittleEndian.Uint32(golden[12:])&flagAcyclicKnown == 0 {
		t.Fatal("the fixture must set the acyclic-known flag")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapshotFile), golden, 0o644); err != nil {
		t.Fatal(err)
	}
	db, g, err := Open(Options{Dir: dir, Bootstrap: func() (*graph.Graph, error) {
		return nil, errors.New("a snapshot exists: the boot must be warm")
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	cold := goldenGraph()
	if !db.WarmStart() || g.Epoch() != goldenMeta.Epoch || !graph.EdgeSetEqual(g, cold) {
		t.Fatalf("warm=%v epoch=%d; want a warm boot at epoch %d with the golden edge set", db.WarmStart(), g.Epoch(), goldenMeta.Epoch)
	}
	for _, pattern := range []string{"a*(bb+|())c*", "(aa)*", "ab|ba", "a*b*"} {
		s, err := rspq.NewSolver(pattern)
		if err != nil {
			t.Fatal(err)
		}
		for x := 0; x < g.NumVertices(); x++ {
			for y := 0; y < g.NumVertices(); y++ {
				got, want := s.Solve(g, x, y), s.Solve(cold, x, y)
				if got.Found != want.Found || got.Found && got.Path.Len() != want.Path.Len() {
					t.Fatalf("%q (%d,%d): booted graph %v, cold build %v", pattern, x, y, got.Path, want.Path)
				}
			}
		}
	}
	if err := db.Checkpoint(g); err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(filepath.Join(dir, snapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	if flags := binary.LittleEndian.Uint32(snap[12:]); flags != 0 {
		t.Fatalf("checkpoint flags = %#x; want 0", flags)
	}
}

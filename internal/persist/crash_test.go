package persist

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/rspq"
)

// This file is the crash-injection harness: a filesystem model that
// kills the "process" after a randomized byte budget and then decides
// — also randomly — which of the unsynced bytes and un-fsync'd
// directory operations survived, exactly the ambiguity a real kill -9
// (or power cut) leaves behind. Every schedule drives the REAL
// recovery code (Open → snapshot map → WAL replay → truncate) over the
// surviving state and asserts it equals an in-memory oracle holding
// all acknowledged batches (or acknowledged + the single in-flight
// batch, which a crash mid-append legitimately may or may not have
// persisted).
//
// The durability model, matching what fsync actually guarantees:
//   - file bytes:    synced prefix survives; of the unsynced tail, an
//                    arbitrary prefix survives (torn page writes);
//   - truncation:    an inode op, durable only after the file's next
//                    fsync — until then the crash may resurrect the
//                    old image's stale tail beyond the surviving new
//                    bytes (the classic WAL-reuse hazard the sequence-
//                    number gate in ScanWAL exists for);
//   - name binding:  create/rename/remove since the last directory
//                    fsync form a journal; a crash keeps an arbitrary
//                    prefix of it and loses the suffix (undone in
//                    reverse order, preserving causality).

var errCrashed = errors.New("simulated crash: process is dead")

type cfile struct {
	data   []byte
	synced int // bytes of data guaranteed on disk
	// shadow, when non-nil, is the file's previous on-disk image: set
	// by an un-fsync'd truncation, cleared by the next fsync. At crash
	// time the stale shadow tail beyond the surviving new bytes may
	// come back.
	shadow []byte
}

func (f *cfile) clone() *cfile {
	return &cfile{
		data:   append([]byte(nil), f.data...),
		synced: f.synced,
		shadow: append([]byte(nil), f.shadow...),
	}
}

type crashFS struct {
	mu        sync.Mutex
	files     map[string]*cfile
	undo      []func(map[string]*cfile) // journal of metadata undos since last SyncDir
	remaining int64                     // byte/op budget until the crash
	down      bool
}

func newCrashFS(budget int64) *crashFS {
	return &crashFS{files: map[string]*cfile{}, remaining: budget}
}

// charge spends n units of the crash budget; it reports how many were
// granted before the budget ran out (n when the process stays alive).
func (c *crashFS) charge(n int64) int64 {
	if c.down {
		return 0
	}
	if c.remaining >= n {
		c.remaining -= n
		return n
	}
	granted := c.remaining
	c.remaining = 0
	c.down = true
	return granted
}

func (c *crashFS) MkdirAll(string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.charge(1) == 0 {
		return errCrashed
	}
	return nil
}

func (c *crashFS) ReadFile(path string) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.charge(1) == 0 {
		return nil, errCrashed
	}
	f, ok := c.files[path]
	if !ok {
		return nil, fmt.Errorf("%s: %w", path, os.ErrNotExist)
	}
	return append([]byte(nil), f.data...), nil
}

// saveUndo journals the restoration of path's current state (present
// or absent) for crash-time rollback of an unsynced metadata op.
func (c *crashFS) saveUndo(path string) {
	if prev, ok := c.files[path]; ok {
		saved := prev.clone()
		c.undo = append(c.undo, func(files map[string]*cfile) { files[path] = saved })
	} else {
		c.undo = append(c.undo, func(files map[string]*cfile) { delete(files, path) })
	}
}

func (c *crashFS) OpenAppend(path string) (file, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.charge(1) == 0 {
		return nil, errCrashed
	}
	f, ok := c.files[path]
	if !ok {
		c.saveUndo(path)
		f = &cfile{}
		c.files[path] = f
	}
	return &crashHandle{fs: c, f: f}, nil
}

func (c *crashFS) Create(path string) (file, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.charge(1) == 0 {
		return nil, errCrashed
	}
	if f, ok := c.files[path]; ok {
		// Truncating an existing file is inode metadata: durable at the
		// file's next fsync, not a directory-journal entry.
		f.truncateTo(0)
		return &crashHandle{fs: c, f: f}, nil
	}
	c.saveUndo(path)
	f := &cfile{}
	c.files[path] = f
	return &crashHandle{fs: c, f: f}, nil
}

func (c *crashFS) Rename(oldPath, newPath string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.charge(1) == 0 {
		return errCrashed
	}
	f, ok := c.files[oldPath]
	if !ok {
		return fmt.Errorf("%s: %w", oldPath, os.ErrNotExist)
	}
	c.saveUndo(oldPath)
	c.saveUndo(newPath)
	delete(c.files, oldPath)
	c.files[newPath] = f
	return nil
}

func (c *crashFS) Remove(path string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.charge(1) == 0 {
		return errCrashed
	}
	if _, ok := c.files[path]; !ok {
		return fmt.Errorf("%s: %w", path, os.ErrNotExist)
	}
	c.saveUndo(path)
	delete(c.files, path)
	return nil
}

func (c *crashFS) Truncate(path string, size int64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.charge(1) == 0 {
		return errCrashed
	}
	f, ok := c.files[path]
	if !ok {
		return fmt.Errorf("%s: %w", path, os.ErrNotExist)
	}
	if int(size) < len(f.data) {
		f.truncateTo(int(size))
	}
	return nil
}

// truncateTo shrinks the file in place, remembering the old image as
// the un-fsync'd shadow. The already-synced prefix of the survivor
// stays durable; everything else is at the crash's mercy until the
// next file fsync.
func (f *cfile) truncateTo(size int) {
	if f.shadow == nil {
		f.shadow = f.data
	}
	f.data = f.data[:size:size]
	if f.synced > size {
		f.synced = size
	}
}

func (c *crashFS) SyncDir(string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.charge(1) == 0 {
		return errCrashed
	}
	c.undo = nil // every metadata op so far is now durable
	return nil
}

type crashHandle struct {
	fs *crashFS
	f  *cfile
}

func (h *crashHandle) Write(b []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	granted := h.fs.charge(int64(len(b)))
	// A crash mid-write leaves the granted prefix on disk (torn write);
	// the caller sees the failure either way.
	h.f.data = append(h.f.data, b[:granted]...)
	if granted < int64(len(b)) {
		return int(granted), errCrashed
	}
	return len(b), nil
}

func (h *crashHandle) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.fs.charge(1) == 0 {
		return errCrashed
	}
	h.f.synced = len(h.f.data)
	h.f.shadow = nil // size and contents are now durable
	return nil
}

func (h *crashHandle) Close() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.fs.down {
		return errCrashed
	}
	return nil
}

// crashState simulates the reboot: roll back a random suffix of the
// unsynced metadata journal, then cut each file's unsynced tail at a
// random point. The result is a fresh, healthy filesystem holding
// exactly what "the disk" kept.
func (c *crashFS) crashState(rng *rand.Rand) *crashFS {
	c.mu.Lock()
	defer c.mu.Unlock()
	files := make(map[string]*cfile, len(c.files))
	for p, f := range c.files {
		files[p] = f.clone()
	}
	keep := rng.Intn(len(c.undo) + 1)
	for i := len(c.undo) - 1; i >= keep; i-- {
		c.undo[i](files)
	}
	for _, f := range files {
		if f.synced < len(f.data) {
			f.data = f.data[:f.synced+rng.Intn(len(f.data)-f.synced+1)]
		}
		if f.shadow != nil && len(f.shadow) > len(f.data) && rng.Intn(2) == 0 {
			// The un-fsync'd truncation didn't make it: the old image's
			// stale tail reappears beyond the surviving new bytes.
			f.data = append(f.data, f.shadow[len(f.data):]...)
		}
		f.synced = len(f.data) // all surviving bytes are durable now
		f.shadow = nil
	}
	return &crashFS{files: files, remaining: math.MaxInt64}
}

// seedGraph is the deterministic bootstrap graph every schedule (and
// its oracle) starts from: dense enough that all three tiers have
// non-trivial answers.
func seedGraph() *graph.Graph {
	g := graph.New(40)
	rng := rand.New(rand.NewSource(7))
	labels := []byte("abc")
	for i := 0; i < 80; i++ {
		g.AddEdge(rng.Intn(40), labels[rng.Intn(3)], rng.Intn(40))
	}
	return g
}

type edgeKey struct {
	from, to int
	label    byte
}

// randomBatch builds one mutation batch whose ops are all effective in
// sequence against g (the logging contract: no-ops reach neither the
// WAL nor the graph). staged tracks in-batch presence overrides.
func randomBatch(rng *rand.Rand, g *graph.Graph) []Op {
	labels := []byte("abc")
	n := g.NumVertices()
	staged := map[edgeKey]bool{}
	var ops []Op
	k := rng.Intn(5) + 1
	for j := 0; j < k; j++ {
		switch rng.Intn(8) {
		case 0:
			add := rng.Intn(2) + 1
			ops = append(ops, Op{Kind: OpAddVertices, Count: add})
			n += add
		default:
			key := edgeKey{from: rng.Intn(n), to: rng.Intn(n), label: labels[rng.Intn(3)]}
			present, overridden := staged[key]
			if !overridden {
				present = key.from < g.NumVertices() && key.to < g.NumVertices() &&
					g.HasEdge(key.from, key.label, key.to)
			}
			if rng.Intn(3) > 0 { // bias toward adds
				if !present {
					staged[key] = true
					ops = append(ops, Op{Kind: OpAddEdge, From: key.from, Label: key.label, To: key.to})
				}
			} else if present {
				staged[key] = false
				ops = append(ops, Op{Kind: OpRemoveEdge, From: key.from, Label: key.label, To: key.to})
			}
		}
	}
	return ops
}

// buildOracle replays batches onto a fresh bootstrap graph in memory —
// the ground truth a recovery must reproduce, epoch included.
func buildOracle(t *testing.T, batches [][]Op) *graph.Graph {
	t.Helper()
	g := seedGraph()
	for _, b := range batches {
		if _, err := ApplyOps(g, b); err != nil {
			t.Fatalf("oracle replay: %v", err)
		}
	}
	return g
}

func graphsMatch(a, b *graph.Graph) bool {
	return a.Epoch() == b.Epoch() && graph.EdgeSetEqual(a, b)
}

// runCrashSchedule runs one randomized crash schedule end to end and
// returns the recovered graph plus its oracle for tier checks.
func runCrashSchedule(t *testing.T, seed int64) (*graph.Graph, *graph.Graph) {
	rng := rand.New(rand.NewSource(seed))
	// Budgets span dying inside the very first cold checkpoint (a few
	// hundred bytes in) up to surviving the whole schedule.
	budget := int64(rng.Intn(9000) + 20)
	cfs := newCrashFS(budget)
	bootstrap := func() (*graph.Graph, error) { return seedGraph(), nil }
	opts := Options{Dir: "data", Sync: SyncPolicy{Mode: SyncBatch}, Bootstrap: bootstrap, fsys: cfs}

	var acked [][]Op
	var inflight []Op
	db, g, err := Open(opts)
	if err != nil {
		if !errors.Is(err, errCrashed) {
			t.Fatalf("open: %v", err)
		}
		// Died during first boot: nothing was ever acknowledged.
	} else {
		nBatches := rng.Intn(25) + 1
		for b := 0; b < nBatches; b++ {
			ops := randomBatch(rng, g)
			if len(ops) == 0 {
				continue
			}
			if _, err := db.LogBatch(ops); err != nil {
				if !errors.Is(err, errCrashed) {
					t.Fatalf("log batch: %v", err)
				}
				inflight = ops
				break
			}
			acked = append(acked, ops)
			if _, err := ApplyOps(g, ops); err != nil {
				t.Fatalf("apply batch: %v", err)
			}
			// Sometimes checkpoint mid-schedule so crashes land inside
			// the snapshot write, pre-rename, post-rename, and during
			// the WAL rotation. A checkpoint crash loses no acks.
			if rng.Intn(4) == 0 {
				if err := db.Checkpoint(g); err != nil {
					if !errors.Is(err, errCrashed) {
						t.Fatalf("checkpoint: %v", err)
					}
					break
				}
			}
		}
	}

	// Reboot on whatever survived and recover with the real code path.
	rfs := cfs.crashState(rng)
	db2, g2, err := Open(Options{Dir: "data", Sync: SyncPolicy{Mode: SyncBatch}, Bootstrap: bootstrap, fsys: rfs})
	if err != nil {
		t.Fatalf("seed %d: recovery failed: %v", seed, err)
	}
	defer db2.Close()

	oracle := buildOracle(t, acked)
	if graphsMatch(oracle, g2) {
		return g2, oracle
	}
	if inflight != nil {
		// A crash mid-append may have persisted the full in-flight
		// record: both outcomes are correct, torn tails are not.
		withInflight := buildOracle(t, append(append([][]Op(nil), acked...), inflight))
		if graphsMatch(withInflight, g2) {
			return g2, withInflight
		}
	}
	t.Fatalf("seed %d: recovered graph (epoch %d, %d edges) matches neither %d acked batches (epoch %d, %d edges) nor acked+inflight",
		seed, g2.Epoch(), g2.NumEdges(), len(acked), oracle.Epoch(), oracle.NumEdges())
	return nil, nil
}

// TestCrashRecovery is the oracle property suite: randomized crash
// schedules across WAL appends, checkpoints and rotations; recovery
// must always reproduce the acknowledged state.
func TestCrashRecovery(t *testing.T) {
	schedules := 48
	if testing.Short() {
		schedules = 16
	}
	for i := 0; i < schedules; i++ {
		t.Run(fmt.Sprintf("seed=%d", i), func(t *testing.T) {
			t.Parallel()
			runCrashSchedule(t, int64(i))
		})
	}
}

// TestCrashRecoveryServesAllTiers re-runs a few schedules and then
// queries the recovered graph against its oracle across the paper's
// three tiers: recovery must be
// indistinguishable from never having crashed, all the way up through
// the kernels.
func TestCrashRecoveryServesAllTiers(t *testing.T) {
	patterns := []string{
		"a*(bb+|())c*", // summary tier
		"a*c*",         // downward-closed / subword tier
		"ab|ba|aab",    // finite language tier
	}
	seeds := []int64{101, 202, 303}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			g2, oracle := runCrashSchedule(t, seed)
			rng := rand.New(rand.NewSource(seed))
			for _, pat := range patterns {
				s, err := rspq.NewSolver(pat)
				if err != nil {
					t.Fatal(err)
				}
				engO := rspq.NewEngine(s, oracle, rspq.EngineConfig{})
				engR := rspq.NewEngine(s, g2, rspq.EngineConfig{})
				n := oracle.NumVertices()
				for q := 0; q < 36; q++ {
					x, y := rng.Intn(n), rng.Intn(n)
					if got, want := engR.Exists(x, y), engO.Exists(x, y); got != want {
						t.Fatalf("pattern %q: Exists(%d,%d) = %v on recovered graph, oracle says %v",
							pat, x, y, got, want)
					}
				}
			}
		})
	}
}

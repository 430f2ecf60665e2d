package persist

import (
	"fmt"
	"io"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/metrics"
)

// DB ties the snapshot store and the WAL into one durable graph:
//
//	Open    → map the current snapshot (if any) into a warm graph,
//	          replay the WAL tail past the snapshot's sequence number,
//	          truncate any torn tail, and reopen the log for appends.
//	LogBatch→ append one acknowledged mutation batch (call BEFORE
//	          applying it to the graph: write-ahead).
//	Checkpoint → publish the merged CSR as the new snapshot and
//	          truncate the WAL; plugged into Engine.Compact.
//
// Crash safety rests on three facts: (1) a batch is acknowledged only
// after its WAL record is written (and, under SyncBatch, fsync'd);
// (2) the snapshot is published by atomic rename, so recovery always
// sees either the old or the new checkpoint complete; (3) records
// carry monotone sequence numbers and the snapshot records the last
// one it includes, so replay after a crash *between* snapshot publish
// and WAL truncation simply skips the already-included prefix.
//
// LogBatch/Checkpoint/Sync follow the graph's own concurrency
// contract: callers serialize them with each other and with graph
// mutations (rspqd uses its write lock); Stats is safe anywhere.
type DB struct {
	fsys    fs
	dir     string
	store   *LocalStore
	policy  SyncPolicy
	walPath string

	mu      sync.Mutex
	w       *wal
	release func() error // snapshot mapping, held until Close
	closed  bool

	warmStart       bool
	walAppends      atomic.Int64
	walReplayed     atomic.Int64
	checkpoints     atomic.Int64
	lastSeq         atomic.Uint64
	snapSeq         atomic.Uint64
	recoveryNanos   atomic.Int64
	checkpointNanos atomic.Int64
}

// Options configures Open.
type Options struct {
	// Dir is the data directory (created if absent): snapshot.rspq +
	// wal.rspq.
	Dir string
	// Sync is the WAL fsync policy; zero value = SyncBatch.
	Sync SyncPolicy
	// Bootstrap builds the initial graph when no snapshot exists (cold
	// start) — e.g. parse a text graph file or generate a demo graph.
	// nil starts from an empty graph. After a cold bootstrap Open
	// writes an initial checkpoint so the next boot is warm.
	Bootstrap func() (*graph.Graph, error)
	// Metrics, when non-nil, gets the rspq_wal_*/rspq_recovery_*/
	// rspq_checkpoint_* series registered on it.
	Metrics *metrics.Registry

	// fsys is the test hook for an injected filesystem (crash_test.go).
	fsys fs
}

// Open recovers the durable state under opts.Dir into a live graph
// and returns the DB managing its WAL and checkpoints. The returned
// graph either came warm from a snapshot (plus WAL tail replay) or
// from Bootstrap; DB.WarmStart reports which.
func Open(opts Options) (*DB, *graph.Graph, error) {
	fsys := opts.fsys
	if fsys == nil {
		fsys = osFS{}
	}
	if err := fsys.MkdirAll(opts.Dir); err != nil {
		return nil, nil, err
	}
	db := &DB{
		fsys:    fsys,
		dir:     opts.Dir,
		store:   newLocalStore(fsys, opts.Dir),
		policy:  opts.Sync,
		walPath: filepath.Join(opts.Dir, walFile),
	}

	t0 := time.Now()
	g, err := db.recover(opts.Bootstrap)
	if err != nil {
		return nil, nil, err
	}
	db.recoveryNanos.Store(time.Since(t0).Nanoseconds())

	if !db.warmStart {
		// Cold bootstrap: checkpoint now so the next boot maps a
		// snapshot instead of re-running Bootstrap.
		if err := db.Checkpoint(g); err != nil {
			db.Close()
			return nil, nil, err
		}
	}
	if opts.Metrics != nil {
		db.registerMetrics(opts.Metrics)
	}
	return db, g, nil
}

// recover performs the boot sequence: snapshot → graph, WAL tail →
// replay, torn tail → truncate, log → reopen for append.
func (db *DB) recover(bootstrap func() (*graph.Graph, error)) (*graph.Graph, error) {
	var g *graph.Graph
	data, release, ok, err := db.store.Get()
	if err != nil {
		return nil, err
	}
	if ok {
		csr, meta, err := OpenSnapshot(data)
		if err != nil {
			release()
			return nil, fmt.Errorf("persist: snapshot %s: %w", filepath.Join(db.dir, snapshotFile), err)
		}
		g = graph.FromCSR(csr, meta.Epoch)
		db.release = release
		db.warmStart = true
		db.snapSeq.Store(meta.LastSeq)
		db.lastSeq.Store(meta.LastSeq)
	} else {
		if bootstrap != nil {
			if g, err = bootstrap(); err != nil {
				return nil, err
			}
		} else {
			g = graph.New(0)
		}
	}

	walData, err := db.fsys.ReadFile(db.walPath)
	if err != nil {
		walData = nil // no log yet
	}
	snapSeq := db.snapSeq.Load()
	lastSeq, goodLen, err := ScanWAL(walData, func(seq uint64, payload []byte) error {
		if seq <= snapSeq {
			return nil // already folded into the snapshot
		}
		ops, err := DecodeOps(payload)
		if err != nil {
			return fmt.Errorf("persist: wal record %d: %w", seq, err)
		}
		if _, err := ApplyOps(g, ops); err != nil {
			return fmt.Errorf("persist: wal record %d: %w", seq, err)
		}
		db.walReplayed.Add(1)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if lastSeq > db.lastSeq.Load() {
		db.lastSeq.Store(lastSeq)
	}
	if int(goodLen) < len(walData) {
		// Torn tail from a crash mid-append: cut it off before new
		// appends land, or the next recovery would stop at the tear and
		// lose everything after it.
		if err := db.fsys.Truncate(db.walPath, goodLen); err != nil {
			return nil, fmt.Errorf("persist: truncate torn wal tail: %w", err)
		}
	}

	w, err := openWAL(db.fsys, db.walPath, db.lastSeq.Load(), db.policy)
	if err != nil {
		return nil, err
	}
	db.w = w
	return g, nil
}

// LogBatch appends one mutation batch to the WAL and returns its
// sequence number. Call it before applying the ops to the graph, and
// log only effective ops (adds that will insert, removes that will
// hit) so replay reproduces the epoch exactly. Durability at return
// follows the sync policy.
func (db *DB) LogBatch(ops []Op) (uint64, error) {
	if len(ops) == 0 {
		return db.lastSeq.Load(), nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return 0, fmt.Errorf("persist: db closed")
	}
	seq, err := db.w.Append(ops)
	if err != nil {
		return 0, err
	}
	db.walAppends.Add(1)
	db.lastSeq.Store(seq)
	return seq, nil
}

// Checkpoint publishes g's merged CSR as the new current snapshot and
// truncates the WAL. The caller must have quiesced mutations (and any
// concurrent LogBatch) for the duration — Engine.Compact under rspqd's
// write lock satisfies this. g.Freeze runs first, so a pending delta
// is merged rather than lost.
func (db *DB) Checkpoint(g *graph.Graph) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return fmt.Errorf("persist: db closed")
	}
	t0 := time.Now()
	csr := g.Freeze()
	meta := SnapshotMeta{Epoch: g.Epoch(), LastSeq: db.lastSeq.Load()}
	if err := db.store.Put(func(w io.Writer) error {
		return EncodeSnapshot(w, csr.Parts(), meta)
	}); err != nil {
		return err
	}
	if err := db.w.reset(); err != nil {
		return err
	}
	db.snapSeq.Store(meta.LastSeq)
	db.checkpoints.Add(1)
	db.checkpointNanos.Store(time.Since(t0).Nanoseconds())
	return nil
}

// Sync forces an fsync of the WAL — shutdown under a group-commit
// policy calls it so acknowledged batches are durable before exit.
func (db *DB) Sync() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil
	}
	return db.w.sync()
}

// Dirty reports whether acknowledged batches exist past the last
// checkpoint (i.e. whether a shutdown checkpoint would save replay
// work on the next boot).
func (db *DB) Dirty() bool { return db.lastSeq.Load() > db.snapSeq.Load() }

// WarmStart reports whether Open recovered from a snapshot rather
// than bootstrapping cold.
func (db *DB) WarmStart() bool { return db.warmStart }

// LastSeq returns the sequence number of the most recent acknowledged
// batch (0 before any).
func (db *DB) LastSeq() uint64 { return db.lastSeq.Load() }

// Close syncs and closes the WAL and releases the snapshot mapping.
// The graph returned by Open must not be used afterwards if it still
// aliases the mapping (rspqd closes on process exit only).
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil
	}
	db.closed = true
	var err error
	if db.w != nil {
		err = db.w.Close()
	}
	if db.release != nil {
		if rerr := db.release(); err == nil {
			err = rerr
		}
		db.release = nil
	}
	return err
}

// Stats is the point-in-time durability state, embedded in rspqd's
// /stats; every field mirrors a /metrics series registered by Open
// (TestStatsMetricsAgree-style equality holds because both read the
// same atomics).
type Stats struct {
	WarmStart             bool    `json:"warm_start"`
	Fsync                 string  `json:"fsync"`
	WALSeq                uint64  `json:"wal_seq"`
	SnapshotSeq           uint64  `json:"snapshot_seq"`
	WALAppends            int64   `json:"wal_appends"`
	WALReplayed           int64   `json:"wal_replayed"`
	Checkpoints           int64   `json:"checkpoints"`
	RecoverySeconds       float64 `json:"recovery_seconds"`
	LastCheckpointSeconds float64 `json:"last_checkpoint_seconds"`
}

// Stats returns the current durability counters.
func (db *DB) Stats() Stats {
	return Stats{
		WarmStart:             db.warmStart,
		Fsync:                 db.policy.String(),
		WALSeq:                db.lastSeq.Load(),
		SnapshotSeq:           db.snapSeq.Load(),
		WALAppends:            db.walAppends.Load(),
		WALReplayed:           db.walReplayed.Load(),
		Checkpoints:           db.checkpoints.Load(),
		RecoverySeconds:       float64(db.recoveryNanos.Load()) / 1e9,
		LastCheckpointSeconds: float64(db.checkpointNanos.Load()) / 1e9,
	}
}

// registerMetrics exposes the durability counters on reg, sourced
// from the same atomics Stats reads.
func (db *DB) registerMetrics(reg *metrics.Registry) {
	reg.CounterFunc("rspq_wal_appends_total",
		"Mutation batches appended to the write-ahead log.",
		func() float64 { return float64(db.walAppends.Load()) })
	reg.CounterFunc("rspq_wal_replayed_total",
		"WAL records replayed during the last recovery.",
		func() float64 { return float64(db.walReplayed.Load()) })
	reg.CounterFunc("rspq_checkpoints_total",
		"Snapshot checkpoints published.",
		func() float64 { return float64(db.checkpoints.Load()) })
	reg.GaugeFunc("rspq_recovery_seconds",
		"Wall time of the last boot recovery (snapshot map + WAL replay).",
		func() float64 { return float64(db.recoveryNanos.Load()) / 1e9 })
	reg.GaugeFunc("rspq_checkpoint_seconds",
		"Wall time of the last checkpoint (snapshot encode + publish + WAL rotate).",
		func() float64 { return float64(db.checkpointNanos.Load()) / 1e9 })
	reg.GaugeFunc("rspq_wal_seq",
		"Sequence number of the most recent acknowledged batch.",
		func() float64 { return float64(db.lastSeq.Load()) })
	reg.GaugeFunc("rspq_snapshot_seq",
		"WAL sequence number the current snapshot includes.",
		func() float64 { return float64(db.snapSeq.Load()) })
	reg.GaugeFunc("rspq_warm_start",
		"1 when the process recovered from a snapshot, 0 on cold bootstrap.",
		func() float64 {
			if db.warmStart {
				return 1
			}
			return 0
		})
}

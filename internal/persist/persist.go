// Package persist implements the disk backends behind `ersolve serve
// -data`: a durable store.DocumentStore that journals every ingest batch
// to an append-only segment log and replays it on open, and three artifact
// directories — snapshots, key indexes, serving indexes — holding one
// versioned file per configuration. The server touches the journal and the
// serving indexes only: together they let a restarted server resume with
// both the corpus and every configuration's committed resolution intact —
// the first incremental resolution after a restart reuses every block, and
// rebuilds its candidate index from the replayed corpus. SnapshotDir and
// IndexDir are kept for the benchmark's replay probe; no server path
// writes or reads them.
//
// Every file the package writes has one shape: an 8-byte magic naming its
// kind and format version, then internal/framing records — the journaled
// batches of a segment; the configuration key and then the codec's records
// of an artifact file. The format version lives in the magic alone (a
// known kind at another version is ErrArtifactVersion), the checksums in
// the records alone, and the codecs write records but no header of their
// own (the snapshot codec's stream is the one nested header left). The
// three directories are one implementation, artifactDir (artifacts.go):
// file naming, the magic and key record, the atomic save sequence, their
// verification, quarantine, pruning and the orphan sweep are written once,
// and SnapshotDir, IndexDir and ServingDir add only which codec encodes and
// decodes the payload. ServingDir adds one thing more: between
// two whole-file saves it commits by appending — a serving file is a base
// record plus the commit records written since, so the commit behind every
// resolve writes the blocks that changed, with one write and one fsync,
// and the whole-file save runs only to create, replace or compact a file.
//
// Durability model: a batch is journaled (written and fsynced) before
// Append returns, so an acknowledged ingest survives a crash. An Append is
// journal + merge and nothing else. Replay
// re-runs the journaled batches through the same in-memory merge the live
// path uses, and that merge is deterministic, so the reopened store is
// byte-identical to the pre-crash one — preserving the append-only
// document positions incremental resolution fingerprints. Artifact files
// are written to a temporary file and atomically renamed into place, so a
// crash mid-save leaves the previous file intact; a record appended to a
// serving file is fsynced before the commit is acknowledged, and one a
// crash tears off is dropped by the next load and replaced, file and all,
// by the next process's first commit.
//
// Recovery model: damage is classified before it is punished. A torn tail
// — the final record of the newest segment cut short or checksum-broken,
// with nothing after it — is the legitimate artifact of a power cut
// mid-append; since the write was never acknowledged, the log is
// truncated to the last good record and appending continues (the event is
// logged and counted). Interior corruption — damage with acknowledged
// records after it, a foreign header, an unreadable interior segment —
// still fails Open with a clear error: acknowledged data is at stake and
// silently shortening the log would violate the append-only contract.
// Damaged artifact files are quarantined (renamed *.corrupt) on load so
// the caller rebuilds from the journaled corpus instead of
// tripping over the same file forever; a serving file damaged behind its
// base is kept and served up to the damage, since what precedes a record
// is an earlier acknowledged resolution. All file I/O goes through
// internal/faultfs, so the crash harness can interrupt any boundary — and
// a counting filesystem there (Store.IOCounts) is how the server reports
// what each artifact kind costs in bytes, fsyncs and renames.
package persist

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"syscall"

	"repro/internal/corpus"
	"repro/internal/faultfs"
	"repro/internal/framing"
	"repro/internal/store"
)

// segmentMagic heads every segment file; the digit is the segment format
// version.
const segmentMagic = "ERSEG001"

// maxSegmentBytes rotates the active segment once it grows past this
// size, bounding the cost of a damaged file and keeping replay I/O in
// file-sized chunks. A var so tests can force rotation cheaply.
var maxSegmentBytes int64 = 8 << 20

// Options customizes Open beyond its defaults; the zero value selects the
// real filesystem and the standard logger.
type Options struct {
	// FS is the filesystem the backends write through; nil selects the
	// real one. Tests thread a faultfs.Injector here to crash the store
	// at chosen I/O boundaries.
	FS faultfs.FS
	// Log receives recovery and quarantine events (torn-tail truncation,
	// corrupt-file quarantine); nil selects log.Printf.
	Log func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.FS == nil {
		o.FS = faultfs.OS{}
	}
	if o.Log == nil {
		o.Log = log.Printf
	}
	return o
}

// Data bundles the disk backends rooted in one -data directory.
type Data struct {
	// Store is the durable document store.
	Store *Store
	// Snapshots is the per-configuration snapshot directory. The server
	// neither writes nor reads it — a resolve's durable form is its serving
	// record — and only the benchmark's replay probe still does.
	Snapshots *SnapshotDir
	// Indexes is the per-blocking-configuration key index directory.
	// Like Snapshots, the server neither writes nor reads it — a restarted
	// server's first resolve rebuilds its candidate index from the journal
	// — and only the benchmark's replay probe still does. An index file an
	// earlier release left there (.idx, or .ann for an ANN graph) is
	// ignored.
	Indexes *IndexDir
	// Serving is the per-resolution-configuration serving-index directory,
	// the committed resolutions: a restarted server answers cluster lookups
	// from the last one with zero recompute, and each configuration's first
	// resolve reuses every block of its own.
	Serving *ServingDir

	lock *os.File
}

// Open prepares the data directory (creating it if needed), takes an
// exclusive lock on it, replays the segment log into a fresh in-memory
// store, and returns the durable backends. A torn tail on the newest
// segment is recovered by truncation (no acknowledged batch can live
// there); every other sign of corruption fails with a descriptive error,
// as does another live process already owning the directory (two writers
// appending to one journal would interleave records and destroy it). The
// lock is advisory (flock) and released by Close or process death, so a
// crashed process never wedges a restart.
func Open(dir string) (*Data, error) {
	return OpenWithOptions(dir, Options{})
}

// OpenWithOptions is Open with an explicit filesystem and event logger.
func OpenWithOptions(dir string, opts Options) (*Data, error) {
	opts = opts.withDefaults()
	segDir := filepath.Join(dir, "segments")
	snapDir := filepath.Join(dir, "snapshots")
	idxDir := filepath.Join(dir, "indexes")
	srvDir := filepath.Join(dir, "serving")
	for _, d := range []string{segDir, snapDir, idxDir, srvDir} {
		if err := opts.FS.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("persist: creating %s: %w", d, err)
		}
	}
	lock, err := lockDir(dir)
	if err != nil {
		return nil, err
	}
	st, err := openStore(segDir, opts)
	if err != nil {
		lock.Close()
		return nil, err
	}
	snaps, err := newSnapshotDir(snapDir, opts)
	if err != nil {
		st.Close()
		lock.Close()
		return nil, err
	}
	indexes, err := newIndexDir(idxDir, opts)
	if err != nil {
		st.Close()
		lock.Close()
		return nil, err
	}
	srv, err := newServingDir(srvDir, opts)
	if err != nil {
		st.Close()
		lock.Close()
		return nil, err
	}
	return &Data{Store: st, Snapshots: snaps, Indexes: indexes, Serving: srv, lock: lock}, nil
}

// lockDir takes a non-blocking exclusive flock on DIR/lock. The lock file
// bypasses the pluggable filesystem: flock needs a real descriptor, and a
// simulated crash must keep holding the real lock exactly as a dying
// process would until its descriptors close.
func lockDir(dir string) (*os.File, error) {
	path := filepath.Join(dir, "lock")
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644) // erlint:ignore flock needs a real OS descriptor; fault injection must never fake lock ownership
	if err != nil {
		return nil, fmt.Errorf("persist: opening lock file %s: %w", path, err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		return nil, fmt.Errorf("persist: data directory %s is in use by another process (flock %s: %w)",
			dir, path, err)
	}
	return f, nil
}

// Close flushes and closes the active segment and releases the directory
// lock. Snapshot saves are self-contained (atomic per call), so only the
// store needs a close.
func (d *Data) Close() error {
	err := d.Store.Close()
	if d.lock != nil {
		if cerr := d.lock.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("persist: releasing data directory lock: %w", cerr)
		}
		d.lock = nil
	}
	return err
}

// Store is the disk-backed DocumentStore: an in-memory MemStore for reads
// plus an append-only journal of every committed ingest batch. The
// journal records the batches exactly as they arrived (before ID/persona
// remapping); replay re-applies them through MemStore.Append, whose merge
// is deterministic, reproducing the in-memory state byte for byte.
type Store struct {
	mu      sync.Mutex
	mem     *store.MemStore
	fsys    faultfs.FS
	logf    func(format string, args ...any)
	dir     string
	seg     faultfs.File
	segSeq  int
	segSize int64
	closed  bool
	// tornTails counts the torn-tail recoveries replay performed on this
	// open: newest-segment records cut short by a crash mid-append,
	// truncated away because they were never acknowledged.
	tornTails int
	// failed is the sticky first journal error. After a failed or torn
	// record write the on-disk log no longer matches what further merges
	// would build, so the store refuses all subsequent Appends rather
	// than letting memory and disk drift apart; reads keep working.
	failed error
}

var _ store.DocumentStore = (*Store)(nil)

// TornTailRecoveries reports how many torn journal tails this open
// truncated away — the service counts it under ersolve_degraded_total so
// operators see that a crash recovery happened (and that it cost no
// acknowledged data).
func (s *Store) TornTailRecoveries() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tornTails
}

// IOCounts reports what the data directory has cost in device work since
// it was opened — bytes written, fsyncs and renames per artifact directory
// (segments, snapshots, indexes, serving) — when it was opened over a
// faultfs.Counting filesystem, as `ersolve serve -data` does; nil
// otherwise. The service exports it on /metrics.
func (s *Store) IOCounts() map[string]faultfs.IOCounts {
	if c, ok := s.fsys.(*faultfs.Counting); ok {
		return c.Counts()
	}
	return nil
}

// segmentPath names segment seq inside dir.
func segmentPath(dir string, seq int) string {
	return filepath.Join(dir, fmt.Sprintf("%08d.seg", seq))
}

// openStore replays every segment in dir and opens the newest one for
// appending, recovering the newest segment's torn tail if a crash
// mid-append left one.
func openStore(dir string, opts Options) (*Store, error) {
	names, err := opts.FS.Glob(filepath.Join(dir, "*.seg"))
	if err != nil {
		return nil, fmt.Errorf("persist: listing segments: %w", err)
	}
	sort.Strings(names)

	s := &Store{mem: store.NewMemStore(), dir: dir, fsys: opts.FS, logf: opts.Log}
	for i, name := range names {
		if i == len(names)-1 {
			// A crash between creating a new segment and syncing its
			// header leaves a final file too short to hold even the
			// magic. Such a file cannot contain any record — no
			// acknowledged data is at stake — so it is an aborted
			// rotation artifact, not corruption: remove it and recreate
			// it cleanly below. Anything ≥ header-sized still gets the
			// full magic/framing checks.
			if info, err := s.fsys.Stat(name); err == nil && info.Size() < int64(len(segmentMagic)) {
				if err := s.fsys.Remove(name); err != nil {
					return nil, fmt.Errorf("persist: removing aborted segment %s: %w", name, err)
				}
				names = names[:len(names)-1]
				break
			}
		}
		tornAt, err := s.replaySegment(name, i == len(names)-1)
		if err != nil {
			return nil, err
		}
		if tornAt >= 0 {
			if err := s.recoverTornTail(name, tornAt); err != nil {
				return nil, err
			}
		}
	}
	for _, name := range names {
		var seq int
		if _, err := fmt.Sscanf(filepath.Base(name), "%d.seg", &seq); err == nil && seq > s.segSeq {
			s.segSeq = seq
		}
	}

	if len(names) > 0 {
		// Append to the newest segment rather than opening a new one per
		// process start.
		last := names[len(names)-1]
		f, err := s.fsys.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("persist: opening %s for append: %w", last, err)
		}
		info, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("persist: sizing %s: %w", last, err)
		}
		s.seg, s.segSize = f, info.Size()
		return s, nil
	}
	if err := s.startSegment(1); err != nil {
		return nil, err
	}
	return s, nil
}

// recoverTornTail truncates the newest segment to the end of its last
// good record and makes the truncation durable. Only unacknowledged bytes
// are cut: the torn record's Append returned an error (or never
// returned), so no client was promised it.
func (s *Store) recoverTornTail(name string, tornAt int64) error {
	info, err := s.fsys.Stat(name)
	if err != nil {
		return fmt.Errorf("persist: sizing torn segment %s: %w", name, err)
	}
	s.logf("persist: segment %s: torn tail at offset %d: truncating %d trailing bytes of an unacknowledged write (recovered, no acked data lost)",
		name, tornAt, info.Size()-tornAt)
	if err := s.fsys.Truncate(name, tornAt); err != nil {
		return fmt.Errorf("persist: truncating torn tail of %s: %w", name, err)
	}
	// Sync the truncation: recovery that itself evaporates on the next
	// power cut would re-run forever, and appends assume the file ends at
	// the recorded offset.
	f, err := s.fsys.OpenFile(name, os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("persist: reopening %s after truncation: %w", name, err)
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("persist: syncing truncated %s: %w", name, err)
	}
	s.tornTails++
	return nil
}

// startSegment creates segment seq with its header and makes it the
// active one. The containing directory is fsynced too: without that, a
// power loss can erase the directory entry of a freshly created segment
// and with it every batch acked into it — the exact loss the
// fsync-before-ack contract rules out.
func (s *Store) startSegment(seq int) error {
	path := segmentPath(s.dir, seq)
	f, err := s.fsys.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("persist: creating segment %s: %w", path, err)
	}
	if _, err := io.WriteString(f, segmentMagic); err != nil {
		f.Close()
		return fmt.Errorf("persist: writing %s header: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("persist: syncing %s header: %w", path, err)
	}
	if err := s.syncDir(s.dir); err != nil {
		f.Close()
		return err
	}
	s.seg, s.segSeq, s.segSize = f, seq, int64(len(segmentMagic))
	return nil
}

// syncDir fsyncs a directory so entries created or renamed into it
// survive a power loss.
func (s *Store) syncDir(dir string) error {
	if err := s.fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("persist: syncing directory %s: %w", dir, err)
	}
	return nil
}

// replaySegment re-applies every journaled batch of one segment file and
// classifies damage. On the newest segment, a final record cut short or
// checksum-broken with nothing after it is a torn tail — the legitimate
// remains of a crash mid-append, never acknowledged — reported through
// the tornAt offset (≥ 0, the end of the last good record) for the caller
// to truncate. Everything else — interior damage, damage on an older
// segment, a bad header — is an error: the log is the durable corpus, and
// resolving against a silently shortened one would violate the
// append-only contract.
func (s *Store) replaySegment(path string, newest bool) (tornAt int64, err error) {
	f, err := s.fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return -1, fmt.Errorf("persist: opening segment %s: %w", path, err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return -1, fmt.Errorf("persist: sizing segment %s: %w", path, err)
	}
	size := info.Size()

	header := make([]byte, len(segmentMagic))
	if _, err := io.ReadFull(f, header); err != nil {
		return -1, fmt.Errorf("persist: segment %s: truncated header: %w", path, err)
	}
	if string(header) != segmentMagic {
		return -1, fmt.Errorf("persist: segment %s: bad magic %q (foreign file or unsupported segment version)",
			path, header)
	}

	recs := framing.NewReader(f, int64(len(segmentMagic)), size, framing.MaxPayloadBytes)
	for {
		offset := recs.Offset()
		payload, err := recs.Next()
		if err == io.EOF {
			return -1, nil // clean record boundary
		}
		if err != nil {
			// A torn record runs to the end of the file, so no acknowledged
			// record can follow it: recoverable on the newest segment. One
			// with records after it is interior corruption — those later
			// records were acknowledged, so truncating here would lose
			// acked data.
			if newest && errors.Is(err, framing.ErrTorn) {
				return offset, nil
			}
			return -1, fmt.Errorf("persist: segment %s: %w", path, err)
		}
		// The writer's json.Marshal output is the fast path's canonical
		// form; any other record decodes exactly as before.
		batch, ok := corpus.DecodeCollections(payload)
		if !ok {
			if err := json.Unmarshal(payload, &batch); err != nil {
				// The checksum matched, so these are the bytes the writer
				// wrote — not a torn write. Never recoverable.
				return -1, fmt.Errorf("persist: segment %s: record at offset %d: %w", path, offset, err)
			}
		}
		if _, err := s.mem.Append(batch); err != nil {
			return -1, fmt.Errorf("persist: segment %s: replaying record at offset %d: %w", path, offset, err)
		}
	}
}

// Append implements store.DocumentStore as a write-ahead log: the batch
// is validated, journaled (written and fsynced), and only then merged in
// memory — so a failed journal write rejects the batch with the live
// store untouched, and memory and disk can never diverge. Validation
// first guarantees the post-journal merge cannot fail (ValidateBatch is
// exactly Append's acceptance check). Holding one lock across both steps
// keeps the journal order identical to the merge order.
func (s *Store) Append(cols []*corpus.Collection) (int, error) {
	if err := store.ValidateBatch(cols); err != nil {
		return 0, err
	}
	payload, err := json.Marshal(cols)
	if err != nil {
		return 0, fmt.Errorf("persist: encoding batch: %w", err)
	}
	if len(payload) > framing.MaxPayloadBytes {
		return 0, fmt.Errorf("persist: batch is %d bytes, the journal caps records at %d", len(payload), framing.MaxPayloadBytes)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, fmt.Errorf("persist: store is closed")
	}
	if s.failed != nil {
		return 0, fmt.Errorf("persist: store is read-only after a journal failure: %w", s.failed)
	}
	if s.segSize >= maxSegmentBytes {
		if err := s.rotate(); err != nil {
			// Rotation may have closed the old segment without opening
			// a new one; no journal is writable, so poison the store.
			s.failed = err
			return 0, err
		}
	}
	record := append(make([]byte, framing.HeaderBytes, framing.HeaderBytes+len(payload)), payload...)
	framing.Seal(record)
	if _, err := s.seg.Write(record); err != nil {
		// The journal may now hold a torn record. The batch was NOT
		// merged, so the live store still matches the replayable prefix
		// of the log; poisoning the store keeps it that way, and the
		// next open truncates the torn tail.
		s.failed = err
		return 0, fmt.Errorf("persist: journaling batch: %w", err)
	}
	if err := s.seg.Sync(); err != nil {
		// The record is written but its durability is unknown; merging
		// it would risk memory holding a batch a restart cannot replay.
		s.failed = err
		return 0, fmt.Errorf("persist: syncing journal: %w", err)
	}
	s.segSize += int64(len(record))
	return s.mem.Append(cols)
}

// rotate closes the active segment and starts the next one.
func (s *Store) rotate() error {
	if err := s.seg.Sync(); err != nil {
		return fmt.Errorf("persist: syncing segment before rotation: %w", err)
	}
	if err := s.seg.Close(); err != nil {
		return fmt.Errorf("persist: closing segment before rotation: %w", err)
	}
	return s.startSegment(s.segSeq + 1)
}

// Snapshot implements store.DocumentStore.
func (s *Store) Snapshot() ([]*corpus.Collection, uint64) {
	return s.mem.Snapshot()
}

// Stats implements store.DocumentStore.
func (s *Store) Stats() store.Stats {
	return s.mem.Stats()
}

// Close flushes and closes the active segment; further Appends fail.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if err := s.seg.Sync(); err != nil {
		s.seg.Close()
		return fmt.Errorf("persist: syncing segment on close: %w", err)
	}
	if err := s.seg.Close(); err != nil {
		return fmt.Errorf("persist: closing segment: %w", err)
	}
	return nil
}

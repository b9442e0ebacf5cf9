package persist

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blockindex"
	"repro/internal/faultfs"
	"repro/internal/framing"
	"repro/internal/pipeline"
	"repro/internal/serving"
)

// The magic heading each artifact kind's files; the last digit is the file
// format version.
const (
	snapFileMagic = "ERSNF002"
	idxFileMagic  = "ERIXF002"
	srvFileMagic  = "ERSVF002"
)

// ErrArtifactVersion reports an artifact file of the right kind written in
// another format version. No reader of another version is kept: the file
// is quarantined like any damaged one, and the caller rebuilds.
var ErrArtifactVersion = errors.New("persist: unsupported artifact file format version")

// artifactDir is the one implementation of "a directory holding one
// versioned file per configuration key" behind SnapshotDir, IndexDir and
// ServingDir. A file is named by a hash of its key plus the
// kind's extension and has the journal segment's shape — an 8-byte magic,
// then internal/framing records:
//
//	magic | record(key) | the codec's records
//
// where the codec writes exactly one record for an index, a base and the
// commits appended since for a serving index, and its own header-carrying
// stream for a snapshot (pipeline.EncodeSnapshot, the one nested header
// left). The format version lives in the magic alone and the checksum in
// the records alone. The directory owns everything that is not the codec:
//
//   - save: temp file → magic and key record → codec → fsync → close →
//     rename → directory fsync → prune. A crash mid-save leaves the
//     previous file intact, and a save whose durability is not established
//     does not report success. Concurrent saves need no lock: each writes a
//     unique temp file and publishes it with an atomic rename.
//   - load: a missing file is not an error; the magic and the key record
//     are verified (a hash collision or misplaced file is detected instead
//     of decoded as foreign state); a file that fails any check — another
//     format version (ErrArtifactVersion) or the codec's included — is
//     quarantined, renamed *.corrupt, so the caller's rebuild from the
//     journaled corpus replaces it rather than re-hitting the same damage
//     on every restart.
//   - housekeeping: temp files orphaned by a crash are swept at open, and
//     the oldest files beyond the cap are pruned after each save.
type artifactDir struct {
	dir  string
	fsys faultfs.FS
	logf func(format string, args ...any)
	// ext is the kind's file extension without the dot, magic its file
	// header, noun what messages call it.
	ext, magic, noun string
	// maxFiles bounds the number of files of this kind kept; after each
	// save the oldest beyond the cap are pruned (best effort).
	maxFiles int
	// quarantined counts the damaged files load renamed aside.
	quarantined atomic.Int64
}

// newArtifactDir roots one artifact kind at dir, creating it if needed and
// sweeping the temp files a crash mid-save leaves behind (no concurrent
// save can race construction). Best effort — an orphan is wasted bytes,
// never a correctness risk.
func newArtifactDir(dir string, opts Options, ext, magic, noun string, maxFiles int) (*artifactDir, error) {
	if err := opts.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: creating %s: %w", dir, err)
	}
	if orphans, err := opts.FS.Glob(filepath.Join(dir, "*.tmp")); err == nil {
		for _, name := range orphans {
			_ = opts.FS.Remove(name)
		}
	}
	return &artifactDir{dir: dir, fsys: opts.FS, logf: opts.Log,
		ext: ext, magic: magic, noun: noun, maxFiles: maxFiles}, nil
}

// path names the file of one configuration key.
func (d *artifactDir) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(d.dir, hex.EncodeToString(sum[:12])+"."+d.ext)
}

// Quarantined reports how many damaged files of this kind the directory
// has renamed aside since it was opened.
func (d *artifactDir) Quarantined() int64 { return d.quarantined.Load() }

// save atomically writes key's file: the magic and the key record, then
// whatever encode streams into the temp file. The previous file, if any, is
// replaced only after the new one is fully written and synced.
func (d *artifactDir) save(key string, encode func(io.Writer) error) error {
	tmp, err := d.fsys.CreateTemp(d.dir, "."+d.ext+"-*.tmp")
	if err != nil {
		return fmt.Errorf("persist: creating %s temp file: %w", d.noun, err)
	}
	defer d.fsys.Remove(tmp.Name()) // no-op after a successful rename

	head := append(append([]byte(d.magic), make([]byte, framing.HeaderBytes)...), key...)
	framing.Seal(head[len(d.magic):])
	if _, err := tmp.Write(head); err != nil {
		tmp.Close()
		return fmt.Errorf("persist: writing %s header: %w", d.noun, err)
	}
	if err := encode(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("persist: syncing %s: %w", d.noun, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("persist: closing %s temp file: %w", d.noun, err)
	}
	if err := d.fsys.Rename(tmp.Name(), d.path(key)); err != nil {
		return fmt.Errorf("persist: publishing %s: %w", d.noun, err)
	}
	// Sync the directory so the rename itself survives a crash.
	if err := d.fsys.SyncDir(d.dir); err != nil {
		return fmt.Errorf("persist: syncing directory %s: %w", d.dir, err)
	}
	// Prune the oldest files beyond the cap; a pruning failure never
	// fails the save that triggered it.
	if names, _ := d.list(); len(names) > d.maxFiles {
		files := d.byAge(names)
		for i := 0; i+d.maxFiles < len(files); i++ {
			_ = d.fsys.Remove(files[i])
		}
	}
	return nil
}

// list names this kind's files.
func (d *artifactDir) list() ([]string, error) {
	return d.fsys.Glob(filepath.Join(d.dir, "*."+d.ext))
}

// byAge orders listed files oldest first. A file that vanished since the
// listing (a concurrent prune or quarantine) is dropped.
func (d *artifactDir) byAge(names []string) []string {
	mod := make(map[string]int64, len(names))
	files := names[:0]
	for _, name := range names {
		if info, err := d.fsys.Stat(name); err == nil {
			mod[name] = info.ModTime().UnixNano()
			files = append(files, name)
		}
	}
	sort.SliceStable(files, func(i, j int) bool { return mod[files[i]] < mod[files[j]] })
	return files
}

// touch refreshes the recency of key's file so age-ordered pruning does
// not evict a busy configuration whose file is never rewritten. It fails
// when the file is absent — pruned or never saved.
func (d *artifactDir) touch(key string) error {
	now := time.Now()
	if err := d.fsys.Chtimes(d.path(key), now, now); err != nil {
		return fmt.Errorf("persist: refreshing %s recency: %w", d.noun, err)
	}
	return nil
}

// load reads one file: it verifies the magic and the key record — against
// wantKey unless that is nil (any configuration's file is acceptable) —
// and hands the rest of the stream to decode. A missing file returns nil
// without calling decode: nothing saved is not an error. A
// present-but-damaged file is quarantined and returns the failing check's
// error, ErrArtifactVersion and the codec's typed errors included, so the
// caller can tell version skew from corruption — and rebuild either way,
// knowing the next save starts clean.
func (d *artifactDir) load(path string, wantKey *string, decode func(io.Reader) error) error {
	f, err := d.fsys.OpenFile(path, os.O_RDONLY, 0)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("persist: opening %s: %w", d.noun, err)
	}
	defer f.Close()

	if err = d.checkHead(f, wantKey); err == nil {
		err = decode(f)
	}
	if err == nil {
		return nil
	}
	err = fmt.Errorf("persist: %s %s: %w", d.noun, path, err)
	// Quarantine: rename to NAME.corrupt, replacing any earlier quarantine
	// of the same file so damage cannot accumulate unbounded copies. Best
	// effort: if even the rename fails, the error still tells the caller
	// to rebuild.
	if rerr := d.fsys.Rename(path, path+".corrupt"); rerr != nil {
		d.logf("persist: quarantining %s: %v", path, rerr)
		return err
	}
	d.quarantined.Add(1)
	d.logf("persist: quarantined %s -> %s.corrupt (%v); it will be rebuilt from the journaled corpus", path, path, err)
	return err
}

// checkHead reads the magic and the key record off the head of a file and
// verifies the magic and, unless wantKey is nil, the key. This kind's magic
// with another version digit is ErrArtifactVersion; any other damage is
// corruption.
func (d *artifactDir) checkHead(f faultfs.File, wantKey *string) error {
	magic := make([]byte, len(d.magic))
	if _, err := io.ReadFull(f, magic); err != nil {
		return fmt.Errorf("truncated magic: %w", err)
	}
	if v := len(magic) - 1; string(magic) != d.magic {
		if string(magic[:v]) == d.magic[:v] && '0' <= magic[v] && magic[v] <= '9' {
			return fmt.Errorf("%w: file is %q, this build reads %q", ErrArtifactVersion, magic, d.magic)
		}
		return fmt.Errorf("bad magic %q (foreign file)", magic)
	}
	info, err := f.Stat()
	if err != nil {
		return fmt.Errorf("sizing: %w", err)
	}
	key, err := framing.NewReader(f, int64(len(magic)), info.Size(), framing.MaxPayloadBytes).Next()
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return fmt.Errorf("key record: %w", err)
	}
	if wantKey != nil && string(key) != *wantKey {
		return fmt.Errorf("was saved for configuration %q, not %q", key, *wantKey)
	}
	return nil
}

// SnapshotDir stores one encoded pipeline.Snapshot per resolution
// configuration (DIR/snapshots/*.snap); see artifactDir for the save,
// load and quarantine contract. Knobs include client-chosen values (seed,
// train fraction), so without the cap of 64 a client iterating seeds
// would grow the directory without bound.
type SnapshotDir struct{ *artifactDir }

func newSnapshotDir(dir string, opts Options) (*SnapshotDir, error) {
	d, err := newArtifactDir(dir, opts, "snap", snapFileMagic, "snapshot", 64)
	return &SnapshotDir{d}, err
}

// Save atomically writes the snapshot for one configuration key.
func (d *SnapshotDir) Save(key string, snap *pipeline.Snapshot) error {
	return d.save(key, func(w io.Writer) error { return pipeline.EncodeSnapshot(w, snap) })
}

// Touch refreshes the recency of key's snapshot, whose file is otherwise
// never rewritten thanks to unchanged-run save skipping. It fails when the
// file is absent, which tells the caller to do a full Save instead.
func (d *SnapshotDir) Touch(key string) error { return d.touch(key) }

// Load reads the snapshot saved for key and decodes it against pl (which
// must be configured identically to the pipeline that produced it — the
// key is the caller's encoding of that configuration). (nil, nil) when
// nothing is saved; damage surfaces as ErrArtifactVersion,
// pipeline.ErrSnapshotVersion or the codec's corruption error.
func (d *SnapshotDir) Load(key string, pl *pipeline.Pipeline) (snap *pipeline.Snapshot, err error) {
	err = d.load(d.path(key), &key, func(r io.Reader) (err error) {
		snap, err = pl.DecodeSnapshot(r)
		return err
	})
	return snap, err
}

// IndexDir stores one encoded blockindex.Index per blocking configuration
// (DIR/indexes/*.idx). Indexes are keyed by (scheme, key function)
// only — far fewer knobs than snapshots — so a cap of 16 suffices.
// The server neither writes nor reads it: a candidate index is rebuilt
// from the journaled corpus by the first resolve after a restart. Only the
// benchmark's replay probe still does.
type IndexDir struct{ *artifactDir }

func newIndexDir(dir string, opts Options) (*IndexDir, error) {
	d, err := newArtifactDir(dir, opts, "idx", idxFileMagic, "index", 16)
	return &IndexDir{d}, err
}

// SaveIndex atomically writes the index for one blocking-configuration key
// and returns the index version the file reflects.
func (d *IndexDir) SaveIndex(key string, idx pipeline.CandidateIndex) (version uint64, err error) {
	err = d.save(key, func(w io.Writer) (err error) {
		version, err = idx.EncodeTo(w)
		return err
	})
	if err != nil {
		return 0, err
	}
	return version, nil
}

// LoadIndex reads the index saved for key and rebuilds it under cfg, which
// must describe the same blocking configuration (the key is the caller's
// encoding of it). (nil, nil) when nothing is saved; damage surfaces as
// ErrArtifactVersion or blockindex.ErrCodecCorrupt.
func (d *IndexDir) LoadIndex(key string, cfg blockindex.Config) (idx *blockindex.Index, err error) {
	err = d.load(d.path(key), &key, func(r io.Reader) (err error) {
		idx, err = blockindex.Decode(r, cfg)
		return err
	})
	return idx, err
}

// ServingDir stores one serving.Index per resolution configuration
// (DIR/serving/*.srv) — one per knobs key, capped at 32, which is how many
// configurations restart warm. A file is the magic and the key record, a
// base record — a whole encoded index — and the commit records appended
// since: SaveServing writes a key's file in full (the
// artifactDir save sequence) only to create or replace it, and otherwise
// appends the one record that takes what the file holds to the index being
// committed, with one write and one fsync. A damaged base costs only the
// restart head-start — the file is quarantined and the caller rebuilds on
// the next committed resolve; a damaged record costs the commits from it
// on, and the resolution committed before it is served.
type ServingDir struct {
	*artifactDir
	// mu serializes saves: appends to one file must not interleave, and
	// files is what each key's file holds.
	mu    sync.Mutex
	files map[string]*servingFile
	// tornTails counts the loads that stopped at a damaged commit record.
	tornTails atomic.Int64
}

// servingFile is what this process knows the file of one key to hold,
// because it wrote all of it: never the index, only what the next commit
// is diffed against and the sizes compaction goes by. A key is absent
// until the process's first full save of it — whatever an earlier process
// left, a torn tail included, is replaced rather than appended to — and
// after a save that failed, when the file's tail is unknown.
type servingFile struct {
	held                *serving.Manifest
	baseBytes, logBytes int64
}

// servingLogPerBase is how many bytes of commit records a file may carry
// per byte of base before the next save rewrites it. At 1 a rewrite of B
// bytes comes after at least B bytes of appends, so compaction at most
// doubles what the commits themselves write, a load never replays more
// log than base, and a file is never more than twice its index.
const servingLogPerBase = 1

func newServingDir(dir string, opts Options) (*ServingDir, error) {
	d, err := newArtifactDir(dir, opts, "srv", srvFileMagic, "serving index", 32)
	return &ServingDir{artifactDir: d, files: make(map[string]*servingFile)}, err
}

// TornTails reports how many loads since the directory was opened stopped
// at a damaged commit record and served the resolution committed before it.
func (d *ServingDir) TornTails() int64 { return d.tornTails.Load() }

// SaveServing commits the serving index for one resolution-configuration
// key: durable when it returns nil, by an appended record when this
// process wrote the key's file and x extends it, by a full save otherwise.
func (d *ServingDir) SaveServing(key string, x *serving.Index) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if f := d.files[key]; f != nil {
		// Forgotten until a save succeeds: after a failed one the file may
		// end in a torn record, and the next save must replace it.
		delete(d.files, key)
		rec, ok := x.EncodeCommit(f.held)
		if ok && f.logBytes+int64(len(rec)) <= servingLogPerBase*f.baseBytes {
			err := d.appendRecord(d.path(key), rec)
			if err == nil {
				f.held, f.logBytes = x.Manifest(), f.logBytes+int64(len(rec))
				d.files[key] = f
				return nil
			}
			if !errors.Is(err, fs.ErrNotExist) {
				return err
			}
			// Pruned or quarantined since the last save: write it anew.
		}
	}
	var base countingWriter
	err := d.save(key, func(w io.Writer) error {
		base.w = w
		return x.EncodeTo(&base)
	})
	if err != nil {
		return err
	}
	d.files[key] = &servingFile{held: x.Manifest(), baseBytes: base.n}
	return nil
}

// appendRecord appends one framed record to an existing file and makes it
// durable. The record goes down in a single write, so a crash leaves the
// file ending in at most one partial record, which the next load drops.
func (d *ServingDir) appendRecord(path string, rec []byte) error {
	f, err := d.fsys.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return fmt.Errorf("persist: opening %s %s for append: %w", d.noun, path, err)
	}
	if _, err := f.Write(rec); err != nil {
		f.Close()
		return fmt.Errorf("persist: appending to %s %s: %w", d.noun, path, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("persist: syncing %s %s: %w", d.noun, path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("persist: closing %s %s: %w", d.noun, path, err)
	}
	return nil
}

// countingWriter counts the bytes written through it.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// LoadServing reads the serving index saved for key. (nil, nil) when
// nothing is saved; damage surfaces as ErrArtifactVersion or, in the
// base, serving.ErrCodecCorrupt.
func (d *ServingDir) LoadServing(key string) (*serving.Index, error) {
	return d.loadFile(d.path(key), &key)
}

// LoadLatestServing returns the most recently saved serving index across
// all configuration keys — what a restarted server publishes as its hot
// index before any resolve has run ("the last committed resolution wins").
// Damaged files are quarantined and the next-newest tried, so one bad file
// costs only its own snapshot. (nil, nil) when nothing usable is stored;
// the first load error when nothing loads but something was damaged.
func (d *ServingDir) LoadLatestServing() (*serving.Index, error) {
	names, err := d.list()
	if err != nil {
		return nil, fmt.Errorf("persist: listing serving indexes: %w", err)
	}
	files := d.byAge(names)
	var firstErr error
	for i := len(files) - 1; i >= 0; i-- {
		x, err := d.loadFile(files[i], nil)
		if x != nil {
			return x, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return nil, firstErr
}

func (d *ServingDir) loadFile(path string, wantKey *string) (x *serving.Index, err error) {
	err = d.load(path, wantKey, func(r io.Reader) (err error) {
		var tail error
		x, tail, err = serving.DecodeLog(r)
		if tail != nil {
			d.tornTails.Add(1)
			d.logf("persist: %s %s: %v; serving the resolution committed before it (epoch %d, store version %d), the next commit rewrites the file",
				d.noun, path, tail, x.Epoch(), x.StoreVersion())
		}
		return err
	})
	return x, err
}

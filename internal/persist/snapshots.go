package persist

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/faultfs"
	"repro/internal/pipeline"
)

// snapFileMagic heads every snapshot file; the digit is the envelope
// format version. The envelope records which configuration key the
// snapshot belongs to; the pipeline codec inside carries its own format
// version and checksum.
const snapFileMagic = "ERSNF001"

// maxSnapshotKeyBytes bounds the envelope's key field so a corrupt length
// cannot drive a huge allocation.
const maxSnapshotKeyBytes = 1 << 16

// defaultMaxSnapshotFiles caps how many configurations keep a snapshot
// file. Knobs include client-chosen values (seed, train fraction), so
// without a cap a client iterating seeds would grow the directory — one
// file of per-block labels and scores per seed — without bound.
const defaultMaxSnapshotFiles = 64

// SnapshotDir stores one encoded pipeline.Snapshot per resolution
// configuration, each in its own file named by a hash of the
// configuration key. Saves are atomic (temp file + rename), so a crash
// mid-save leaves the previous snapshot intact; the configuration key is
// recorded inside the file and verified on load, so a hash collision or a
// misplaced file is detected instead of resolving with foreign state. A
// file that fails its load checks is quarantined — renamed *.corrupt — so
// the caller's rebuild from the journaled corpus replaces it rather than
// re-hitting the same damage on every restart. Concurrent saves need no
// lock: each Save writes a unique temp file and publishes it with an
// atomic rename, and the service layer already serializes runs (and
// therefore saves) of the same configuration.
type SnapshotDir struct {
	dir  string
	fsys faultfs.FS
	logf func(format string, args ...any)
	// MaxFiles bounds the number of .snap files kept; after each save the
	// oldest files beyond the cap are pruned (best effort). Values < 1
	// select defaultMaxSnapshotFiles.
	MaxFiles int
	// quarantined counts the damaged files Load renamed aside.
	quarantined atomic.Int64
}

// NewSnapshotDir returns a snapshot directory rooted at dir, creating it
// if needed and sweeping temp files orphaned by a crash mid-save (no
// concurrent Save can race construction). Open wires one up
// automatically; this constructor exists for callers embedding the
// snapshot store without the segment log.
func NewSnapshotDir(dir string) (*SnapshotDir, error) {
	return newSnapshotDir(dir, Options{}.withDefaults())
}

func newSnapshotDir(dir string, opts Options) (*SnapshotDir, error) {
	if err := opts.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: creating %s: %w", dir, err)
	}
	sweepOrphans(opts.FS, dir, ".snap-*")
	return &SnapshotDir{dir: dir, fsys: opts.FS, logf: opts.Log}, nil
}

// sweepOrphans removes the temp files a crash mid-save leaves behind:
// current saves suffix their temp files .tmp, and the legacy prefix
// pattern is swept too so directories written by older builds come clean.
// Best effort — an orphan is wasted bytes, never a correctness risk.
func sweepOrphans(fsys faultfs.FS, dir, legacyPattern string) {
	for _, pattern := range []string{"*.tmp", legacyPattern} {
		names, err := fsys.Glob(filepath.Join(dir, pattern))
		if err != nil {
			continue
		}
		for _, name := range names {
			_ = fsys.Remove(name)
		}
	}
}

// path names the snapshot file of one configuration key.
func (d *SnapshotDir) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(d.dir, hex.EncodeToString(sum[:12])+".snap")
}

// Quarantined reports how many damaged snapshot files this directory has
// renamed aside since it was opened.
func (d *SnapshotDir) Quarantined() int64 { return d.quarantined.Load() }

// quarantine renames a damaged file to NAME.corrupt (replacing any
// earlier quarantine of the same file, so damage cannot accumulate
// unbounded copies) and logs why. Best effort: if even the rename fails,
// the caller's typed error still tells the service to rebuild.
func quarantine(counter *atomic.Int64, fsys faultfs.FS, logf func(string, ...any), path string, reason error) {
	dst := path + ".corrupt"
	if err := fsys.Rename(path, dst); err != nil {
		logf("persist: quarantining %s: %v", path, err)
		return
	}
	counter.Add(1)
	logf("persist: quarantined %s -> %s (%v); it will be rebuilt from the journaled corpus", path, dst, reason)
}

// Save atomically writes the snapshot for one configuration key. The
// envelope and codec stream straight into the temp file (the codec's
// internal payload buffer is the only in-memory copy), and the previous
// file, if any, is replaced only after the new one is fully written and
// synced.
func (d *SnapshotDir) Save(key string, snap *pipeline.Snapshot) error {
	if len(key) > maxSnapshotKeyBytes {
		return fmt.Errorf("persist: snapshot key is %d bytes, cap is %d", len(key), maxSnapshotKeyBytes)
	}
	tmp, err := d.fsys.CreateTemp(d.dir, ".snap-*.tmp")
	if err != nil {
		return fmt.Errorf("persist: creating snapshot temp file: %w", err)
	}
	defer d.fsys.Remove(tmp.Name()) // no-op after a successful rename

	var envelope bytes.Buffer
	envelope.WriteString(snapFileMagic)
	var klen [4]byte
	binary.LittleEndian.PutUint32(klen[:], uint32(len(key)))
	envelope.Write(klen[:])
	envelope.WriteString(key)
	if _, err := tmp.Write(envelope.Bytes()); err != nil {
		tmp.Close()
		return fmt.Errorf("persist: writing snapshot envelope: %w", err)
	}
	if err := pipeline.EncodeSnapshot(tmp, snap); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("persist: syncing snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("persist: closing snapshot temp file: %w", err)
	}
	if err := d.fsys.Rename(tmp.Name(), d.path(key)); err != nil {
		return fmt.Errorf("persist: publishing snapshot: %w", err)
	}
	// Sync the directory so the rename itself survives a crash; a save
	// whose durability is not established must not report success.
	if err := d.fsys.SyncDir(d.dir); err != nil {
		return fmt.Errorf("persist: syncing directory %s: %w", d.dir, err)
	}
	d.prune()
	return nil
}

// Touch refreshes the recency of key's snapshot file so mtime-ordered
// pruning does not evict the busiest configuration (whose file is
// otherwise never rewritten thanks to unchanged-run save skipping). It
// fails when the file is absent — pruned or never saved — which tells
// the caller to do a full Save instead.
func (d *SnapshotDir) Touch(key string) error {
	now := time.Now()
	if err := d.fsys.Chtimes(d.path(key), now, now); err != nil {
		return fmt.Errorf("persist: refreshing snapshot recency: %w", err)
	}
	return nil
}

// prune removes the oldest snapshot files beyond the cap, best effort: a
// pruning failure never fails the save that triggered it.
func (d *SnapshotDir) prune() {
	limit := d.MaxFiles
	if limit < 1 {
		limit = defaultMaxSnapshotFiles
	}
	pruneOldest(d.fsys, filepath.Join(d.dir, "*.snap"), limit)
}

// pruneOldest removes the oldest files matching pattern beyond limit.
func pruneOldest(fsys faultfs.FS, pattern string, limit int) {
	names, err := fsys.Glob(pattern)
	if err != nil || len(names) <= limit {
		return
	}
	type aged struct {
		name string
		mod  int64
	}
	files := make([]aged, 0, len(names))
	for _, name := range names {
		info, err := fsys.Stat(name)
		if err != nil {
			continue
		}
		files = append(files, aged{name: name, mod: info.ModTime().UnixNano()})
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mod < files[j].mod })
	for i := 0; i+limit < len(files); i++ {
		_ = fsys.Remove(files[i].name)
	}
}

// Load reads the snapshot saved for key and decodes it against pl (which
// must be configured identically to the pipeline that produced it — the
// key is the caller's encoding of that configuration). A missing file
// returns (nil, nil): no snapshot is not an error. A present-but-damaged
// file is quarantined (renamed *.corrupt) and returns the codec's typed
// error so the caller can distinguish version skew
// (pipeline.ErrSnapshotVersion) from corruption — and rebuild either way,
// knowing the next Save starts clean.
func (d *SnapshotDir) Load(key string, pl *pipeline.Pipeline) (*pipeline.Snapshot, error) {
	path := d.path(key)
	f, err := d.fsys.OpenFile(path, os.O_RDONLY, 0)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("persist: opening snapshot: %w", err)
	}
	defer f.Close()

	damaged := func(err error) error {
		quarantine(&d.quarantined, d.fsys, d.logf, path, err)
		return err
	}
	header := make([]byte, len(snapFileMagic)+4)
	if _, err := io.ReadFull(f, header); err != nil {
		return nil, damaged(fmt.Errorf("persist: snapshot %s: truncated envelope: %w", path, err))
	}
	if string(header[:len(snapFileMagic)]) != snapFileMagic {
		return nil, damaged(fmt.Errorf("persist: snapshot %s: bad magic %q (foreign file or unsupported envelope version)",
			path, header[:len(snapFileMagic)]))
	}
	klen := binary.LittleEndian.Uint32(header[len(snapFileMagic):])
	if klen > maxSnapshotKeyBytes {
		return nil, damaged(fmt.Errorf("persist: snapshot %s: key length %d is corrupt", path, klen))
	}
	gotKey := make([]byte, klen)
	if _, err := io.ReadFull(f, gotKey); err != nil {
		return nil, damaged(fmt.Errorf("persist: snapshot %s: truncated key: %w", path, err))
	}
	if string(gotKey) != key {
		return nil, damaged(fmt.Errorf("persist: snapshot %s was saved for configuration %q, not %q",
			path, gotKey, key))
	}
	snap, err := pl.DecodeSnapshot(f)
	if err != nil {
		return nil, damaged(fmt.Errorf("persist: snapshot %s: %w", path, err))
	}
	return snap, nil
}

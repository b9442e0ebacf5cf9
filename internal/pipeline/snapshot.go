package pipeline

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// SnapshotFormatVersion is the on-disk snapshot format this build writes
// and reads. Bump it whenever the wire form of a cached block changes
// incompatibly; a reader refuses other versions with ErrSnapshotVersion
// instead of silently misdecoding old state into wrong clusters.
const SnapshotFormatVersion = 2

// snapshotMagic identifies a snapshot stream. The trailing NUL guards
// against text files that happen to start with the same letters.
var snapshotMagic = [8]byte{'E', 'R', 'S', 'N', 'A', 'P', '1', 0}

var (
	// ErrSnapshotVersion reports a snapshot written by a different format
	// version; the caller should fall back to a full resolution.
	ErrSnapshotVersion = errors.New("pipeline: snapshot format version mismatch")
	// ErrSnapshotCorrupt reports a snapshot that failed structural or
	// checksum validation — a truncated write, bit rot, or a foreign file.
	ErrSnapshotCorrupt = errors.New("pipeline: snapshot corrupt")
)

// snapshotCRC is the Castagnoli table used for payload checksums.
var snapshotCRC = crc32.MakeTable(crc32.Castagnoli)

// EncodeSnapshot serializes a Snapshot — every cached block's resolution
// and score, keyed by membership fingerprint; a few bytes per document —
// to w as one self-describing record:
//
//	magic[8] | version u32 | payload length u64 | payload crc32c u32 | payload
//
// The payload is a gob stream. A nil snapshot encodes as an empty one.
// Snapshots are only meaningful to a pipeline with the same configuration
// (options, blocker, strategy) that produced them; persistence layers
// should key stored snapshots by configuration.
func EncodeSnapshot(w io.Writer, snap *Snapshot) error {
	var entries map[uint64]*cachedBlock
	if snap != nil {
		entries = snap.entries
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(entries); err != nil {
		return fmt.Errorf("pipeline: encoding snapshot: %w", err)
	}
	header := make([]byte, 0, 8+4+8+4)
	header = append(header, snapshotMagic[:]...)
	header = binary.LittleEndian.AppendUint32(header, SnapshotFormatVersion)
	header = binary.LittleEndian.AppendUint64(header, uint64(payload.Len()))
	header = binary.LittleEndian.AppendUint32(header, crc32.Checksum(payload.Bytes(), snapshotCRC))
	if _, err := w.Write(header); err != nil {
		return fmt.Errorf("pipeline: writing snapshot header: %w", err)
	}
	if _, err := w.Write(payload.Bytes()); err != nil {
		return fmt.Errorf("pipeline: writing snapshot payload: %w", err)
	}
	return nil
}

// DecodeSnapshot reads a snapshot encoded by EncodeSnapshot. It consumes r
// to EOF and fails with ErrSnapshotVersion on a format-version mismatch
// and ErrSnapshotCorrupt on truncation, checksum failure, trailing
// garbage, or a cached block without a resolution — a failed decode never
// yields a partially filled snapshot.
//
// Nothing in the stream identifies the configuration that wrote it:
// callers are responsible for keying persisted snapshots by the full
// configuration.
func (p *Pipeline) DecodeSnapshot(r io.Reader) (*Snapshot, error) {
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: reading magic: %v", ErrSnapshotCorrupt, err)
	}
	if magic != snapshotMagic {
		return nil, fmt.Errorf("%w: not a snapshot stream (magic %q)", ErrSnapshotCorrupt, magic[:])
	}
	var fixed [16]byte
	if _, err := io.ReadFull(r, fixed[:]); err != nil {
		return nil, fmt.Errorf("%w: truncated header: %v", ErrSnapshotCorrupt, err)
	}
	version := binary.LittleEndian.Uint32(fixed[0:4])
	if version != SnapshotFormatVersion {
		return nil, fmt.Errorf("%w: stream has version %d, this build reads %d",
			ErrSnapshotVersion, version, SnapshotFormatVersion)
	}
	length := binary.LittleEndian.Uint64(fixed[4:12])
	sum := binary.LittleEndian.Uint32(fixed[12:16])

	payload, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("%w: reading payload: %v", ErrSnapshotCorrupt, err)
	}
	if uint64(len(payload)) != length {
		return nil, fmt.Errorf("%w: payload is %d bytes, header declares %d (truncated or trailing data)",
			ErrSnapshotCorrupt, len(payload), length)
	}
	if got := crc32.Checksum(payload, snapshotCRC); got != sum {
		return nil, fmt.Errorf("%w: payload checksum %08x, header declares %08x",
			ErrSnapshotCorrupt, got, sum)
	}

	var entries map[uint64]*cachedBlock
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&entries); err != nil {
		return nil, fmt.Errorf("%w: decoding payload: %v", ErrSnapshotCorrupt, err)
	}
	for fp, cb := range entries {
		if cb.Res == nil {
			return nil, fmt.Errorf("%w: cached block %016x has no resolution", ErrSnapshotCorrupt, fp)
		}
	}
	return &Snapshot{entries: entries}, nil
}

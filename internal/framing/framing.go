// Package framing is the record format of the project's append-only files
// — the ingest journal's segments and the serving index's commit log —
// and the one place their damage is classified. A record is
//
//	u32 payload length | u32 CRC-32C of the payload | payload
//
// (little endian), written with a single Write so a crash leaves at most
// one partial record, at the end. Reading walks the records of a log whose
// total size is known and tells the two kinds of damage apart: a torn
// record — one the end of the log cuts short, or a final record failing
// its checksum — is what an interrupted append leaves and nothing can
// follow it; anything else (a checksum failure with bytes after it, a
// length beyond the caller's bound) is corruption. What to do about either
// is the caller's decision: the journal truncates a torn tail on its newest
// segment and refuses everything else, the serving log stops replaying at
// the first damaged record of either kind.
package framing

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// HeaderBytes is the size of a record's length-and-checksum header.
const HeaderBytes = 8

// castagnoli is the CRC-32C table every record checksum uses.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Seal fills in the header of rec, whose payload already sits behind
// HeaderBytes reserved bytes — so a writer can encode straight into the
// buffer it will hand to one Write.
func Seal(rec []byte) {
	payload := rec[HeaderBytes:]
	binary.LittleEndian.PutUint32(rec[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[4:8], crc32.Checksum(payload, castagnoli))
}

// ErrTorn matches (errors.Is) the Reader errors that describe a torn
// record: damage that runs to the end of the log, as an append interrupted
// by a crash leaves it.
var ErrTorn = errors.New("framing: torn record")

// recordError is one damaged record; torn selects whether it is ErrTorn.
type recordError struct {
	msg  string
	torn bool
}

func (e *recordError) Error() string { return e.msg }

func (e *recordError) Unwrap() error {
	if e.torn {
		return ErrTorn
	}
	return nil
}

// Reader walks the records of one log.
type Reader struct {
	r      io.Reader
	offset int64 // where the next record starts: the end of the last good one
	size   int64 // where the log ends
	max    int64 // the longest payload the caller accepts
}

// NewReader reads records from r, which is positioned at byte offset of a
// log that ends at byte size; offsets in errors and from Offset count from
// the log's first byte. A record declaring more than maxPayload bytes is
// corrupt.
func NewReader(r io.Reader, offset, size, maxPayload int64) *Reader {
	return &Reader{r: r, offset: offset, size: size, max: maxPayload}
}

// Offset is where the last record Next returned ends — after an error, the
// length of the log's intact prefix.
func (r *Reader) Offset() int64 { return r.offset }

// Next returns the next record's payload, io.EOF at a clean record
// boundary at the end of the log, an error matching ErrTorn for a torn
// record and another error for a corrupt one. After any error but io.EOF
// the reader is spent. The payload is allocated only once its declared
// length is known to fit both the log and the caller's bound, so a corrupt
// length cannot drive the allocation.
func (r *Reader) Next() ([]byte, error) {
	var header [HeaderBytes]byte
	if _, err := io.ReadFull(r.r, header[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		// A partial header necessarily runs to the end of the log.
		return nil, &recordError{torn: true,
			msg: fmt.Sprintf("truncated record frame at offset %d: %v", r.offset, err)}
	}
	length := int64(binary.LittleEndian.Uint32(header[0:4]))
	sum := binary.LittleEndian.Uint32(header[4:8])
	end := r.offset + HeaderBytes + length
	if end > r.size {
		// A payload cut short or a corrupt length field; either way nothing
		// can follow it.
		return nil, &recordError{torn: true,
			msg: fmt.Sprintf("record at offset %d runs past end of file (declares %d bytes)", r.offset, length)}
	}
	if length > r.max {
		return nil, &recordError{
			msg: fmt.Sprintf("record at offset %d declares %d bytes (corrupt length)", r.offset, length)}
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(r.r, payload); err != nil {
		return nil, &recordError{
			msg: fmt.Sprintf("truncated record payload at offset %d: %v", r.offset, err)}
	}
	if got := crc32.Checksum(payload, castagnoli); got != sum {
		// A checksum-broken FINAL record is a torn write whose middle never
		// reached the disk; one with records after it is not.
		return nil, &recordError{torn: end == r.size,
			msg: fmt.Sprintf("record at offset %d: checksum %08x, frame declares %08x", r.offset, got, sum)}
	}
	r.offset = end
	return payload, nil
}

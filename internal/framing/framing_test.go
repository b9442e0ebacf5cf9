package framing

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

func record(payload string) []byte {
	rec := append(make([]byte, HeaderBytes), payload...)
	Seal(rec)
	return rec
}

// readAll walks log from its first byte and returns the payloads read, the
// intact prefix's length and the error that ended the walk (nil for a
// clean end).
func readAll(log []byte, maxPayload int64) (payloads []string, intact int64, err error) {
	r := NewReader(bytes.NewReader(log), 0, int64(len(log)), maxPayload)
	for {
		p, err := r.Next()
		if err == io.EOF {
			return payloads, r.Offset(), nil
		}
		if err != nil {
			return payloads, r.Offset(), err
		}
		payloads = append(payloads, string(p))
	}
}

func TestReaderRoundTrip(t *testing.T) {
	log := append(append(record("alpha"), record("")...), record("gamma")...)
	got, intact, err := readAll(log, 1<<20)
	if err != nil || intact != int64(len(log)) || strings.Join(got, ",") != "alpha,,gamma" {
		t.Fatalf("readAll = (%q, %d, %v), want the three payloads and the whole log intact", got, intact, err)
	}
	// A reader may start anywhere a record does; offsets stay the log's.
	skip := int64(len(record("alpha")))
	r := NewReader(bytes.NewReader(log[skip:]), skip, int64(len(log)), 1<<20)
	if p, err := r.Next(); err != nil || len(p) != 0 || r.Offset() != skip+HeaderBytes {
		t.Fatalf("Next from offset %d = (%q, %v), offset now %d", skip, p, err, r.Offset())
	}
}

// TestReaderClassifiesDamage pins the one classification both logs rely on:
// damage that runs to the end of the log is torn, damage with bytes after
// it — or a length beyond the caller's bound — is not, and either way the
// records before it were returned and Offset is where they end.
func TestReaderClassifiesDamage(t *testing.T) {
	first, last := record("first"), record("the last record")
	good := append(append([]byte(nil), first...), last...)
	flip := func(at int) []byte {
		b := append([]byte(nil), good...)
		b[at] ^= 0x20
		return b
	}
	for _, tc := range []struct {
		name string
		log  []byte
		max  int64
		torn bool
		msg  string
	}{
		{"frame cut short", good[:len(first)+3], 1 << 20, true, "truncated record frame at offset 13"},
		{"payload cut short", good[:len(good)-1], 1 << 20, true, "record at offset 13 runs past end of file"},
		{"length beyond the log", append(append([]byte(nil), first...), 0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0), 1 << 20, true, "runs past end of file"},
		{"final record fails its checksum", flip(len(good) - 2), 1 << 20, true, "record at offset 13: checksum"},
		{"interior record fails its checksum", flip(HeaderBytes + 1), 1 << 20, false, "record at offset 0: checksum"},
		{"length beyond the caller's bound", good, 8, false, "record at offset 13 declares 15 bytes (corrupt length)"},
	} {
		payloads, intact, err := readAll(tc.log, tc.max)
		if err == nil || errors.Is(err, ErrTorn) != tc.torn || !strings.Contains(err.Error(), tc.msg) {
			t.Errorf("%s: err = %v (torn %v), want torn %v mentioning %q", tc.name, err, errors.Is(err, ErrTorn), tc.torn, tc.msg)
		}
		wantIntact, wantPayloads := int64(len(first)), 1
		if strings.Contains(tc.msg, "offset 0") {
			wantIntact, wantPayloads = 0, 0
		}
		if intact != wantIntact || len(payloads) != wantPayloads {
			t.Errorf("%s: %d payloads and %d intact bytes before the damage, want %d and %d",
				tc.name, len(payloads), intact, wantPayloads, wantIntact)
		}
	}
}

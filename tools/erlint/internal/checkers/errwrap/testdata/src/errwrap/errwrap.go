// Package errwrap exercises the errwrap analyzer: fmt.Errorf must wrap
// error arguments with %w, and sentinel comparisons must use errors.Is.
package errwrap

import (
	"errors"
	"fmt"
)

// ErrCodecCorrupt mimics a repo sentinel: package-level, error-typed,
// Err-prefixed.
var ErrCodecCorrupt = errors.New("codec corrupt")

// errLocal is package-level but not Err-prefixed, so not a sentinel.
var errLocal = errors.New("local")

func flagged(err error) {
	_ = fmt.Errorf("enqueue: %v", err) // want `fmt.Errorf formats an error argument without %w`
	_ = fmt.Errorf("enqueue: %s", err) // want `fmt.Errorf formats an error argument without %w`
	if err == ErrCodecCorrupt {        // want `error compared against sentinel ErrCodecCorrupt with ==`
		return
	}
	if ErrCodecCorrupt != err { // want `error compared against sentinel ErrCodecCorrupt with !=`
		return
	}
	switch err {
	case ErrCodecCorrupt: // want `switch compares error against sentinel ErrCodecCorrupt with ==`
	}
}

func clean(err error) {
	_ = fmt.Errorf("enqueue: %w", err)
	_ = fmt.Errorf("%d items failed: %w", 3, err)
	_ = fmt.Errorf("no error arguments: %d%%", 7)
	if errors.Is(err, ErrCodecCorrupt) {
		return
	}
	if err == nil || err == errLocal {
		return
	}
	switch {
	case errors.Is(err, ErrCodecCorrupt):
	}
}

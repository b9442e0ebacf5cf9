// Package driver runs a set of analyzers over loaded packages, applies
// the erlint:ignore directive, and produces sorted findings. It is shared
// by the erlint binary and the integration tests.
package driver

import (
	"fmt"
	"go/token"
	"sort"

	"repro/tools/erlint/internal/analysis"
	"repro/tools/erlint/internal/directive"
	"repro/tools/erlint/internal/load"
)

// Finding is one reportable diagnostic after directive filtering.
type Finding struct {
	// Analyzer names the check that produced the finding; the pseudo
	// analyzer "directive" reports malformed erlint:ignore comments.
	Analyzer string
	// Pos locates the finding.
	Pos token.Position
	// Message is the diagnostic text.
	Message string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s (erlint/%s)", f.Pos, f.Message, f.Analyzer)
}

// Analyze runs every analyzer over the unit and returns the findings that
// survive erlint:ignore filtering, plus one finding per reasonless ignore
// directive, sorted by position. Analyzer failures surface as findings
// rather than aborting the run, so one broken check cannot mask the
// others.
func Analyze(unit *load.Package, analyzers []*analysis.Analyzer) []Finding {
	fset := unit.Fset
	type ignoreKey struct {
		file string
		line int
	}
	// ignoreRec tracks one well-formed directive: where it sits (for the
	// unused-ignore report) and whether any diagnostic consumed it.
	type ignoreRec struct {
		pos  token.Pos
		used bool
	}
	ignores := make(map[ignoreKey]*ignoreRec)
	var findings []Finding
	for _, f := range unit.Files {
		name := fset.File(f.Pos()).Name()
		for _, ig := range directive.Ignores(fset, f) {
			if ig.Reason == "" {
				findings = append(findings, Finding{
					Analyzer: "directive",
					Pos:      fset.Position(ig.Pos),
					Message:  "erlint:ignore requires a reason: state why the invariant does not apply here",
				})
				continue
			}
			ignores[ignoreKey{name, ig.Line}] = &ignoreRec{pos: ig.Pos}
		}
	}
	failed := false
	for _, a := range analyzers {
		_, err := a.Run(&analysis.Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     unit.Files,
			Pkg:       unit.Types,
			TypesInfo: unit.Info,
			Report: func(d analysis.Diagnostic) {
				pos := fset.Position(d.Pos)
				if rec := ignores[ignoreKey{pos.Filename, pos.Line}]; rec != nil {
					rec.used = true
					return
				}
				findings = append(findings, Finding{Analyzer: a.Name, Pos: pos, Message: d.Message})
			},
		})
		if err != nil {
			failed = true
			findings = append(findings, Finding{
				Analyzer: a.Name,
				Message:  fmt.Sprintf("analyzer failed: %v", err),
			})
		}
	}
	// A directive no diagnostic consumed suppresses nothing: the code it
	// excused was fixed (or the ignore sits on the wrong line), and a stale
	// ignore would silently swallow the next real finding there. Reported
	// after the analyzer loop, directly into findings, so an ignore can
	// never suppress its own staleness report. When an analyzer failed its
	// diagnostics are incomplete, and "unused" cannot be distinguished from
	// "never checked" — skip the pass rather than flag live directives.
	if !failed {
		for _, rec := range ignores {
			if rec.used {
				continue
			}
			findings = append(findings, Finding{
				Analyzer: "unused-ignore",
				Pos:      fset.Position(rec.pos),
				Message:  "erlint:ignore suppresses nothing: no finding fires on this line; delete the stale directive",
			})
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return findings
}

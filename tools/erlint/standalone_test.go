package main

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// moduleTree writes a module example.com/m under a temp directory: the
// root package, two packages under internal/ and one whose name only
// shares internal's prefix, plus every kind of directory erlint must not
// treat as a package of the module — testdata, hidden and _ trees, a
// nested module, a directory of non-Go files and one holding only a
// hidden .go file.
func moduleTree(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	files := map[string]string{
		"go.mod":                       "// the module\nmodule example.com/m\n\ngo 1.24\n",
		"m.go":                         "package m\n",
		"internal/a/a.go":              "package a\n",
		"internal/a/a_test.go":         "package a\n",
		"internal/a/testdata/src.go":   "package src\n",
		"internal/b/b.go":              "package b\n",
		"internal/b/.hidden/h.go":      "package h\n",
		"internalx/x.go":               "package x\n",
		".git/hooks/hook.go":           "package hooks\n",
		"_scratch/s.go":                "package s\n",
		"nested/go.mod":                "module example.com/nested\n",
		"nested/n.go":                  "package n\n",
		"nested/sub/sub.go":            "package sub\n",
		"docs/README.md":               "no Go here\n",
		"onlyhidden/.generated.go":     "package onlyhidden\n",
		"internal/a/deep/notes.txt":    "no Go here either\n",
		"internal/a/deep/more/more.go": "package more\n",
	}
	for name, body := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func TestFindModule(t *testing.T) {
	root := moduleTree(t)
	for _, cwd := range []string{root, filepath.Join(root, "internal"), filepath.Join(root, "internal", "a", "deep")} {
		gotRoot, module, err := findModule(cwd)
		if err != nil || gotRoot != root || module != "example.com/m" {
			t.Errorf("findModule(%s) = %q, %q, %v; want %q, example.com/m", cwd, gotRoot, module, err, root)
		}
	}
	// Below a nested module the nearest go.mod wins.
	if gotRoot, module, err := findModule(filepath.Join(root, "nested", "sub")); err != nil ||
		gotRoot != filepath.Join(root, "nested") || module != "example.com/nested" {
		t.Errorf("findModule(nested/sub) = %q, %q, %v; want the nested module", gotRoot, module, err)
	}

	bare := t.TempDir()
	if err := os.WriteFile(filepath.Join(bare, "go.mod"), []byte("go 1.24\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := findModule(bare); err == nil || !strings.Contains(err.Error(), "no module line") {
		t.Errorf("findModule over a go.mod without a module line: err = %v", err)
	}
}

func TestPackageDirs(t *testing.T) {
	root := moduleTree(t)
	dirs, err := packageDirs(root)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range dirs {
		rel, err := filepath.Rel(root, d)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, filepath.ToSlash(rel))
	}
	slices.Sort(got)
	want := []string{".", "internal/a", "internal/a/deep/more", "internal/b", "internalx"}
	if !slices.Equal(got, want) {
		t.Errorf("packageDirs = %q, want %q", got, want)
	}
}

func TestSelectPackages(t *testing.T) {
	root := moduleTree(t)
	dirs, err := packageDirs(root)
	if err != nil {
		t.Fatal(err)
	}
	const m = "example.com/m"
	internal := filepath.Join(root, "internal")
	cases := []struct {
		cwd      string
		patterns []string
		want     []string
	}{
		{root, []string{"./..."}, []string{m, m + "/internal/a", m + "/internal/a/deep/more", m + "/internal/b", m + "/internalx"}},
		{root, []string{"."}, []string{m}},
		{root, []string{"./internal/..."}, []string{m + "/internal/a", m + "/internal/a/deep/more", m + "/internal/b"}},
		{root, []string{"./internal/a"}, []string{m + "/internal/a"}},
		{root, []string{m + "/internal/b"}, []string{m + "/internal/b"}},
		{root, []string{m + "/internal/..."}, []string{m + "/internal/a", m + "/internal/a/deep/more", m + "/internal/b"}},
		{root, []string{"./internalx", m + "/internal/b"}, []string{m + "/internal/b", m + "/internalx"}},
		// A cwd below the module root resolves ./ patterns against itself.
		{internal, []string{"./..."}, []string{m + "/internal/a", m + "/internal/a/deep/more", m + "/internal/b"}},
		{internal, []string{"./b"}, []string{m + "/internal/b"}},
		{internal, []string{"."}, nil},
		{internal, []string{"./../internalx"}, []string{m + "/internalx"}},
		// Patterns outside the module select nothing.
		{internal, []string{"./../.."}, nil},
		{root, []string{"./../..."}, nil},
		{root, []string{"fmt"}, nil},
		{root, []string{"example.com/nested/..."}, nil},
		{root, []string{"./nested/..."}, nil},
	}
	for _, c := range cases {
		got := selectPackages(m, root, c.cwd, dirs, c.patterns)
		if !slices.Equal(got, c.want) {
			rel, _ := filepath.Rel(root, c.cwd)
			t.Errorf("selectPackages(cwd %s, %q) = %q, want %q", rel, c.patterns, got, c.want)
		}
	}
}

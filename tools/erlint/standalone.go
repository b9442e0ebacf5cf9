package main

import (
	"bufio"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/tools/erlint/internal/checkers"
	"repro/tools/erlint/internal/driver"
	"repro/tools/erlint/internal/load"
)

// standalone runs the suite over ./...-style patterns resolved against the
// enclosing module, type-checking from source so no build cache or network
// is needed.
func standalone(args []string) int {
	patterns := args
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	if patterns[0] == "-list" {
		for _, a := range checkers.All() {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "erlint:", err)
		return 2
	}
	root, module, err := findModule(cwd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "erlint:", err)
		return 2
	}
	dirs, err := packageDirs(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "erlint:", err)
		return 2
	}
	selected := selectPackages(module, root, cwd, dirs, patterns)
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "erlint: no packages match %v\n", patterns)
		return 2
	}

	loader := load.New(load.Root{Prefix: module, Dir: root})
	exit := 0
	for _, pkgPath := range selected {
		units, err := loader.Load(pkgPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "erlint: %v\n", err)
			return 2
		}
		for _, unit := range units {
			for _, f := range driver.Analyze(unit, checkers.All()) {
				fmt.Println(f)
				exit = 1
			}
		}
	}
	return exit
}

// findModule walks up from dir to the enclosing go.mod and returns the
// module root directory and module path.
func findModule(dir string) (root, module string, err error) {
	for d := dir; ; {
		data, err := os.Open(filepath.Join(d, "go.mod"))
		if err == nil {
			defer data.Close()
			sc := bufio.NewScanner(data)
			for sc.Scan() {
				line := strings.TrimSpace(sc.Text())
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("%s/go.mod has no module line", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("no go.mod found above %s", dir)
		}
		d = parent
	}
}

// packageDirs lists every directory under root holding Go files, skipping
// testdata trees, hidden directories and nested modules.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root {
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // nested module
			}
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasPrefix(e.Name(), ".") {
				dirs = append(dirs, path)
				break
			}
		}
		return nil
	})
	return dirs, err
}

// selectPackages resolves ./...-style patterns (relative to cwd) and
// import-path patterns against the module's package directories, returning
// sorted import paths.
func selectPackages(module, root, cwd string, dirs []string, patterns []string) []string {
	match := func(imp string) bool {
		for _, pat := range patterns {
			target := pat
			if strings.HasPrefix(pat, "./") || pat == "." {
				sub := strings.TrimPrefix(pat, "./")
				sub, ellipsis := strings.CutSuffix(sub, "...")
				rel, err := filepath.Rel(root, filepath.Join(cwd, strings.TrimSuffix(sub, "/")))
				if err != nil || rel == ".." || strings.HasPrefix(rel, "../") {
					continue
				}
				target = module
				if rel != "." {
					target = module + "/" + filepath.ToSlash(rel)
				}
				if ellipsis {
					target += "/..."
				}
			}
			if rest, ok := strings.CutSuffix(target, "..."); ok {
				rest = strings.TrimSuffix(rest, "/")
				if rest == "" || imp == rest || strings.HasPrefix(imp, rest+"/") {
					return true
				}
			} else if imp == target {
				return true
			}
		}
		return false
	}
	var out []string
	for _, dir := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			continue
		}
		imp := module
		if rel != "." {
			imp = module + "/" + filepath.ToSlash(rel)
		}
		if match(imp) {
			out = append(out, imp)
		}
	}
	sort.Strings(out)
	return out
}

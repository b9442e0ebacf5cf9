package repro_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/service"
)

// TestREADMENamesOnlyWhatExists keeps the README's usage in step with the
// program. Every `ersolve …` command, in a backticked span or a code
// block, may pass only flags that `ersolve -h` (or `ersolve serve -h`,
// after serve) defines, every JSON object that names a resolve knob — a
// request example — may name only keys the resolve endpoints decode,
// every Test…, Benchmark…, Fuzz… or Example… name it cites must be a func
// of some _test.go file in the repository (a /subtest suffix is not
// checked), and every backticked span that opens with pkg.Name or
// pkg.Type.Member, pkg a directory under internal/ and Name exported, must
// name a declaration of that package: for pkg.Name a top-level name or a
// method or field of one of its types, for pkg.Type.Member a method or
// field of that type. Other spans, such as ctx.Err or sync.Pool, are not
// checked.
func TestREADMENamesOnlyWhatExists(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	spans, code, err := readmeLiveText(string(raw))
	if err != nil {
		t.Fatal(err)
	}
	mainFlags, serveFlags := ersolveFlags(t)
	knobs, requestKeys := resolveRequestKeys()
	tests := testFuncs(t)
	decls := internalDecls(t)

	qualified := 0
	for _, span := range spans {
		m := qualifiedName.FindStringSubmatch(span)
		if m == nil || decls[m[1]] == nil {
			continue
		}
		qualified++
		pkg, name, member := decls[m[1]], m[2], m[3]
		if member != "" && !pkg[name+"."+member] || member == "" && !pkg[name] && !pkg["."+name] {
			t.Errorf("README cites %q, which internal/%s does not declare", span, m[1])
		}
	}
	commands, requests, cited := 0, 0, 0
	for _, text := range append(spans, code...) {
		for _, name := range testName.FindAllString(text, -1) {
			cited++
			if !tests[name] {
				t.Errorf("README cites %s, which no _test.go file declares", name)
			}
		}
		for _, args := range ersolveCommands(text) {
			commands++
			flags := mainFlags
			if len(args) > 0 && args[0] == "serve" {
				flags = serveFlags
			}
			for _, arg := range args {
				name, ok := strings.CutPrefix(arg, "-")
				name, _, _ = strings.Cut(strings.TrimPrefix(name, "-"), "=")
				if !ok || name == "" || !isLetter(name[0]) {
					continue
				}
				if !flags[name] {
					t.Errorf("README runs %q with -%s, which ersolve does not define", text, name)
				}
			}
		}
		for _, keys := range jsonObjectKeys(text) {
			if !slices.ContainsFunc(keys, func(k string) bool { return slices.Contains(knobs, k) }) {
				continue
			}
			requests++
			for _, k := range keys {
				if !requestKeys[k] {
					t.Errorf("README's request example %q names %q, which no resolve endpoint decodes", text, k)
				}
			}
		}
	}
	if commands == 0 || requests == 0 || cited == 0 || qualified == 0 {
		t.Fatalf("the scan found %d ersolve commands, %d request examples, %d test names and %d package-qualified names; it reads the README wrong",
			commands, requests, cited, qualified)
	}
	t.Logf("checked %d ersolve commands, %d request examples, %d test names and %d package-qualified names", commands, requests, cited, qualified)
}

// qualifiedName matches a span that opens with an exported
// package-qualified name, pkg.Name or pkg.Type.Member, alone or called.
var qualifiedName = regexp.MustCompile(`^([a-z]\w*)\.([A-Z]\w*)(?:\.(\w+))?(?:\(|$)`)

// internalDecls returns, per package directory under internal/, what its
// non-test files declare: each top-level name as itself, each method and
// field as "Type.Member", and each such member's name as ".Member".
func internalDecls(t *testing.T) map[string]map[string]bool {
	t.Helper()
	paths, err := filepath.Glob("internal/*/*.go")
	if err != nil {
		t.Fatal(err)
	}
	decls := map[string]map[string]bool{}
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		pkg := filepath.Base(filepath.Dir(path))
		if decls[pkg] == nil {
			decls[pkg] = map[string]bool{}
		}
		names := decls[pkg]
		member := func(typ, name string) { names[typ+"."+name], names["."+name] = true, true }
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					names[d.Name.Name] = true
					continue
				}
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					member(id.Name, d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range s.Names {
							names[n.Name] = true
						}
					case *ast.TypeSpec:
						names[s.Name.Name] = true
						var fields *ast.FieldList
						switch typ := s.Type.(type) {
						case *ast.StructType:
							fields = typ.Fields
						case *ast.InterfaceType:
							fields = typ.Methods
						default:
							continue
						}
						for _, f := range fields.List {
							for _, n := range f.Names {
								member(s.Name.Name, n.Name)
							}
						}
					}
				}
			}
		}
	}
	return decls
}

// testName matches a cited test, benchmark, fuzz target or example; it
// stops at a subtest's "/".
var testName = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz|Example)[A-Z_]\w*`)

// testFuncDecl matches a top-level test function declaration.
var testFuncDecl = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz|Example)\w*)\(`)

// testFuncs returns the names of the top-level Test, Benchmark, Fuzz and
// Example funcs of every _test.go file in the repository, the nested
// tools/erlint module included.
func testFuncs(t *testing.T) map[string]bool {
	t.Helper()
	names := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == "testdata" || d.Name() == ".git") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFuncDecl.FindAllSubmatch(src, -1) {
			names[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// codeSpan matches one backticked span of prose.
var codeSpan = regexp.MustCompile("`([^`]+)`")

// readmeLiveText splits a README into the backticked spans of its prose,
// each with its whitespace collapsed, and the lines of its fenced code
// blocks. A fence is a line starting with ``` after at most three spaces of
// indent, as in CommonMark. A span never crosses a blank line, so a prose
// paragraph holding an odd number of backticks is an error, as is a fence
// left open: a pairing that slipped by one would read the text between
// real spans as code and hide the spans themselves.
func readmeLiveText(readme string) (spans, code []string, err error) {
	var para []string
	fenced, paraLine := false, 0
	endParagraph := func() {
		text := strings.Join(para, "\n")
		if err == nil && strings.Count(text, "`")%2 != 0 {
			err = fmt.Errorf("README.md:%d: the paragraph holds an odd number of backticks", paraLine)
		}
		for _, m := range codeSpan.FindAllStringSubmatch(text, -1) {
			spans = append(spans, strings.Join(strings.Fields(m[1]), " "))
		}
		para = nil
	}
	for i, line := range strings.Split(readme, "\n") {
		trimmed := strings.TrimLeft(line, " ")
		switch {
		case len(line)-len(trimmed) <= 3 && strings.HasPrefix(trimmed, "```"):
			endParagraph()
			fenced = !fenced
		case fenced:
			code = append(code, line)
		case trimmed == "":
			endParagraph()
		default:
			if para == nil {
				paraLine = i + 1
			}
			para = append(para, line)
		}
	}
	endParagraph()
	if fenced && err == nil {
		err = fmt.Errorf("README.md: a code fence is never closed")
	}
	return spans, code, err
}

// TestREADMESpanScan pins how readmeLiveText reads fences and spans.
func TestREADMESpanScan(t *testing.T) {
	fence := "```"
	cases := []struct {
		name        string
		readme      string
		spans, code []string
		fails       bool
	}{
		{
			name:   "an indented fence is a fence",
			readme: "- item:\n\n  " + fence + "\n  a ` b\n  " + fence + "\n\nrun `ersolve -in f`\nand `ersolve\n  serve`\n",
			spans:  []string{"ersolve -in f", "ersolve serve"},
			code:   []string{"  a ` b"},
		},
		{
			name:   "four spaces of indent is not a fence",
			readme: "    " + fence + "\n`x`\n",
			fails:  true,
		},
		{
			name:   "an odd backtick count fails",
			readme: "`a` and `b\n\n`c`\n",
			fails:  true,
		},
		{
			name:   "a fence left open fails",
			readme: "`a`\n" + fence + "\nx\n",
			fails:  true,
		},
		{
			name:   "a # inside a fence is code",
			readme: "# Title\n\n" + fence + "sh\n# `ersolve -x`\n" + fence + "\n## `y`\n",
			spans:  []string{"y"},
			code:   []string{"# `ersolve -x`"},
		},
	}
	for _, tc := range cases {
		spans, code, err := readmeLiveText(tc.readme)
		if (err != nil) != tc.fails {
			t.Errorf("%s: err = %v, want failure %v", tc.name, err, tc.fails)
			continue
		}
		if !tc.fails && (!slices.Equal(spans, tc.spans) || !slices.Equal(code, tc.code)) {
			t.Errorf("%s: spans %q, code %q; want %q, %q", tc.name, spans, code, tc.spans, tc.code)
		}
	}
}

// ersolveCommands returns the arguments of every ersolve invocation in
// text: the words after "ersolve" (bare, or at the end of a path) up to
// the first shell operator or comment.
func ersolveCommands(text string) [][]string {
	var out [][]string
	words := strings.Fields(text)
	for i, w := range words {
		if w != "ersolve" && !strings.HasSuffix(w, "/ersolve") {
			continue
		}
		var args []string
		for _, a := range words[i+1:] {
			if strings.ContainsAny(a[:1], "|&;>#\\") {
				break
			}
			args = append(args, a)
		}
		out = append(out, args)
	}
	return out
}

// jsonObjectKeys returns the top-level keys of every JSON object that
// starts in text, each a `{"` up to its closing brace or the end of text.
func jsonObjectKeys(text string) [][]string {
	var out [][]string
	for start := 0; ; {
		i := strings.Index(text[start:], `{"`)
		if i < 0 {
			return out
		}
		start += i + 1
		var keys []string
		depth, inString, escaped, stringStart := 1, false, false, 0
	scan:
		for j := start; j < len(text); j++ {
			c := text[j]
			switch {
			case inString && escaped:
				escaped = false
			case inString && c == '\\':
				escaped = true
			case inString && c == '"':
				inString = false
				rest := strings.TrimLeft(text[j+1:], " \t\n")
				if depth == 1 && strings.HasPrefix(rest, ":") {
					keys = append(keys, text[stringStart:j])
				}
			case c == '"':
				inString, stringStart = true, j+1
			case c == '{' || c == '[':
				depth++
			case c == '}' || c == ']':
				if depth--; depth == 0 {
					break scan
				}
			}
		}
		out = append(out, keys)
	}
}

// flagKinds are the flag package's definers, less a "Var" suffix: a
// definer's first argument (its second, with the suffix) names the flag.
var flagKinds = []string{"", "Bool", "BoolFunc", "Duration", "Float64", "Func", "Int", "Int64", "String", "Text", "Uint", "Uint64"}

// ersolveFlags reads the flags cmd/ersolve defines: those main declares
// on the default flag set and those runServe declares for `ersolve serve`,
// plus the -h and -help every flag set answers.
func ersolveFlags(t *testing.T) (main, serve map[string]bool) {
	t.Helper()
	file, err := parser.ParseFile(token.NewFileSet(), "cmd/ersolve/main.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	main, serve = map[string]bool{"h": true, "help": true}, map[string]bool{"h": true, "help": true}
	defined := map[string]map[string]bool{"main": main, "runServe": serve}
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || defined[fn.Name.Name] == nil {
			continue
		}
		ast.Inspect(fn, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) < 2 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !slices.Contains(flagKinds, strings.TrimSuffix(sel.Sel.Name, "Var")) {
				return true
			}
			arg := call.Args[0]
			if strings.HasSuffix(sel.Sel.Name, "Var") {
				arg = call.Args[1]
			}
			if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if name, err := strconv.Unquote(lit.Value); err == nil {
					defined[fn.Name.Name][name] = true
				}
			}
			return true
		})
	}
	if len(main) == 2 || len(serve) == 2 {
		t.Fatalf("found no flags in cmd/ersolve/main.go's main (%d) or runServe (%d)", len(main)-2, len(serve)-2)
	}
	return main, serve
}

// resolveRequestKeys returns the resolve knobs both endpoints share and
// every key either resolve endpoint decodes.
func resolveRequestKeys() (knobs []string, keys map[string]bool) {
	keys = map[string]bool{}
	for _, req := range []any{service.ResolveRequest{}, service.IncrementalResolveRequest{}} {
		for _, f := range reflect.VisibleFields(reflect.TypeOf(req)) {
			name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			if f.Anonymous || name == "" {
				continue
			}
			if len(f.Index) == 2 && !keys[name] {
				knobs = append(knobs, name)
			}
			keys[name] = true
		}
	}
	return knobs, keys
}

func isLetter(c byte) bool { return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' }

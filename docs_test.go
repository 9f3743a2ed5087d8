package ffsva_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestDocumentedTestsExist requires every Test… or Fuzz… name that
// DESIGN.md, README.md or EXPERIMENTS.md cites to be declared in some
// _test.go file of the module, every `pkg.Name` they quote in code
// (see codeSpans) whose pkg is one of the module's packages (ffsva for
// the root) to be declared in that package, every repo path they
// quote in code (see citedPaths) to exist, and every flag they quote
// after a command of cmd/ (see quotedFlags) to be registered by that
// command, so the documents cannot point at a check, an API, a program
// or an option that was renamed or deleted.
func TestDocumentedTestsExist(t *testing.T) {
	declared := declarations(t)
	flags := registeredFlags(t)
	tests := map[string]bool{}
	for _, names := range declared {
		for name := range names {
			if strings.HasPrefix(name, "Test") || strings.HasPrefix(name, "Fuzz") {
				tests[name] = true
			}
		}
	}
	cite := regexp.MustCompile(`\b(?:Test|Fuzz)[A-Z]\w*`)
	qualified := regexp.MustCompile(`\b([a-z][a-z0-9]*)\.([A-Z]\w*)`)
	cited, idents, paths, options := 0, 0, 0, 0
	for _, doc := range []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"} {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range cite.FindAllString(string(src), -1) {
			cited++
			if !tests[name] {
				t.Errorf("%s cites %s, which no _test.go declares", doc, name)
			}
		}
		spans := codeSpans(string(src))
		for _, span := range spans {
			for _, m := range qualified.FindAllStringSubmatch(span, -1) {
				names, ok := declared[m[1]]
				if !ok {
					continue
				}
				idents++
				if !names[m[2]] {
					t.Errorf("%s quotes %s, which package %s does not declare", doc, m[0], m[1])
				}
			}
		}
		for _, path := range citedPaths(spans) {
			paths++
			if !pathExists(path) {
				t.Errorf("%s quotes %s, which is not in the repo", doc, path)
			}
		}
		for _, q := range quotedFlags(spans, flags) {
			options++
			if !flags[q.command][q.flag] {
				t.Errorf("%s quotes %s -%s, which cmd/%s does not register", doc, q.command, q.flag, q.command)
			}
		}
	}
	if cited == 0 {
		t.Fatal("the documents cite no test; the citation pattern is wrong")
	}
	if idents == 0 {
		t.Fatal("the documents quote no pkg.Name; the identifier pattern is wrong")
	}
	if paths == 0 {
		t.Fatal("the documents quote no repo path; the path pattern is wrong")
	}
	if options == 0 {
		t.Fatal("the documents quote no command flag; the flag pattern is wrong")
	}
}

// registeredFlags parses the main package of every command under cmd/
// and returns the flag names it registers through the flag package,
// keyed by the command's name: the first argument of flag.String,
// flag.Bool, flag.Func and the like, the second of flag.Var,
// flag.StringVar and the other …Var forms.
func registeredFlags(t *testing.T) map[string]map[string]bool {
	t.Helper()
	dirs, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	flags := map[string]map[string]bool{}
	fset := token.NewFileSet()
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		names := map[string]bool{}
		flags[d.Name()] = names
		files, err := filepath.Glob(filepath.Join("cmd", d.Name(), "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
					return true
				}
				arg := 0
				if strings.HasSuffix(sel.Sel.Name, "Var") {
					arg = 1
				}
				if len(call.Args) <= arg {
					return true
				}
				if lit, ok := call.Args[arg].(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if name, err := strconv.Unquote(lit.Value); err == nil {
						names[name] = true
					}
				}
				return true
			})
		}
	}
	return flags
}

// quotedFlag is one flag a document quotes after a command.
type quotedFlag struct{ command, flag string }

// quotedFlags returns the flags a document's code quotes after one of
// the given commands, named bare (`ffsva -real`, `/tmp/ffsva -real`) or
// run as `go run ./cmd/<name>`. A command's flags end with it: at a
// pipe, `;`, `&&`, a redirect or a `#` comment. A code line ending in a
// backslash continues on the next one. `-a/-b` quotes both flags.
func quotedFlags(code []string, commands map[string]map[string]bool) []quotedFlag {
	var out []quotedFlag
	for i := 0; i < len(code); i++ {
		line := code[i]
		for strings.HasSuffix(line, `\`) && i+1 < len(code) {
			i++
			line = strings.TrimSuffix(line, `\`) + " " + code[i]
		}
		command := ""
		toks := strings.Fields(line)
	scan:
		for j, tok := range toks {
			switch {
			case tok == "|" || tok == "||" || tok == "&&" || tok == ";" ||
				strings.HasPrefix(tok, ">") || strings.HasPrefix(tok, "2>") || strings.HasPrefix(tok, "<"):
				command = ""
				continue
			case strings.HasPrefix(tok, "#"):
				break scan
			}
			tok = strings.Trim(tok, "[](){}`'\"")
			name := tok[strings.LastIndexByte(tok, '/')+1:]
			if _, ok := commands[name]; ok {
				goRun := j >= 2 && toks[j-2] == "go" && toks[j-1] == "run"
				if tok == name || goRun || !strings.HasPrefix(strings.TrimPrefix(tok, "./"), "cmd/") {
					command = name
					continue
				}
			}
			if command == "" || !strings.HasPrefix(tok, "-") {
				continue
			}
			for _, part := range strings.Split(tok, "/") {
				if m := flagName.FindStringSubmatch(part); m != nil {
					out = append(out, quotedFlag{command, m[1]})
				}
			}
		}
	}
	return out
}

var flagName = regexp.MustCompile(`^--?([a-zA-Z][\w-]*)`)

// declarations parses every Go file of the module, test files included,
// and returns the names each package declares at top level or as a
// method (documents write `device.Use` for Device.Use), keyed by package
// name: an external test package counts as the package it tests, and
// packages that share a name (the commands' main) share a set.
func declarations(t *testing.T) map[string]map[string]bool {
	t.Helper()
	declared := map[string]map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := strings.TrimSuffix(f.Name.Name, "_test")
		names := declared[pkg]
		if names == nil {
			names = map[string]bool{}
			declared[pkg] = names
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				names[decl.Name.Name] = true
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						names[spec.Name.Name] = true
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							names[id.Name] = true
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return declared
}

// codeSpans returns a Markdown document's code: every fenced code line
// and every inline code span.
func codeSpans(doc string) []string {
	var code []string
	var prose strings.Builder
	fenced := false
	for _, line := range strings.Split(doc, "\n") {
		switch {
		case strings.HasPrefix(strings.TrimSpace(line), "```"):
			fenced = !fenced
		case fenced:
			code = append(code, line)
		default:
			prose.WriteString(line + "\n")
		}
	}
	for _, m := range inlineCode.FindAllStringSubmatch(prose.String(), -1) {
		code = append(code, m[1])
	}
	return code
}

// citedPaths returns the repo paths quoted in a document's code spans:
// every whitespace-separated token that starts, after an optional "./",
// with cmd/, examples/, internal/, bench/ or docs/. A token ends at the
// first character that cannot be part of a path, so
// `internal/filters.SNM(f)` yields internal/filters.SNM and
// `internal/{a,b}` yields internal/.
func citedPaths(code []string) []string {
	var paths []string
	for _, span := range code {
		for _, tok := range strings.Fields(span) {
			tok = strings.TrimPrefix(tok, "./")
			if !repoPath.MatchString(tok) {
				continue
			}
			if i := strings.IndexFunc(tok, notPathRune); i >= 0 {
				tok = tok[:i]
			}
			paths = append(paths, tok)
		}
	}
	return paths
}

var (
	inlineCode = regexp.MustCompile("`([^`]+)`")
	repoPath   = regexp.MustCompile(`^(?:cmd|examples|internal|bench|docs)/`)
)

func notPathRune(r rune) bool {
	return !(r == '/' || r == '.' || r == '_' || r == '-' ||
		'a' <= r && r <= 'z' || 'A' <= r && r <= 'Z' || '0' <= r && r <= '9')
}

// pathExists reports whether path names a file or directory, or is a
// pkg.Ident form (internal/filters.SNM, internal/lab.TestX) whose
// package directory exists.
func pathExists(path string) bool {
	if _, err := os.Stat(path); err == nil {
		return true
	}
	dir, last := filepath.Split(path)
	pkg, _, ok := strings.Cut(last, ".")
	if !ok {
		return false
	}
	info, err := os.Stat(filepath.Join(dir, pkg))
	return err == nil && info.IsDir()
}

// Package hotalloc statically enforces allocation-free hot paths.
//
// PR 6's zero-allocation event loop is guarded dynamically by the
// bench-regression job's allocs-per-op gate — which only fires after a
// bench run, reports a number rather than a line, and covers just the
// paths the benchmarks drive. hotalloc turns the same invariant into a
// compile-time, line-precise diagnostic: a function annotated
//
//	//simlint:hotpath
//
// in its doc comment must be free of heap allocations according to the
// compiler's own escape analysis. The analyzer obtains that verdict by
// running `go build -gcflags=-m=2` on the annotated package (the build
// cache replays the diagnostics on unchanged packages, so repeated runs
// are cheap) and maps every escape inside an annotated function body —
// value escapes, variables moved to the heap, closure captures,
// interface-boxing of arguments — to a lint error at the offending
// line.
//
// Escapes on a line occupied by a call to the builtin panic are
// exempt: panic strings escape by construction and a panicking hot
// path is already off the fast path.
//
// The proof is "no escapes", not "no allocations": escape analysis
// decides where values live, not how often a slice grows, so an append
// that regrows its backing array allocates without any -gcflags=-m
// record. The dynamic complement is the repository root's
// TestFullRunAllocationBudget, which counts heap allocations per
// simulated instruction over whole runs.
//
// The annotation is the opt-in; packages with no annotated function
// are skipped without invoking the compiler. Functions in _test.go
// files cannot be annotated (go build does not compile them); the
// analyzer reports such annotations as misplaced rather than silently
// passing them.
package hotalloc

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/token"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"github.com/plutus-gpu/plutus/internal/lint/analysis"
	"github.com/plutus-gpu/plutus/internal/lint/scope"
)

// Marker is the annotation that opts a function into the check.
const Marker = "//simlint:hotpath"

// Analyzer implements the check.
var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc: "functions annotated //simlint:hotpath must be allocation-free per the compiler's " +
		"escape analysis (go build -gcflags=-m=2); any escape inside one is an error",
	Run: run,
}

// Record is one escape-analysis diagnostic from the compiler.
type Record struct {
	File    string // absolute path
	Line    int
	Col     int
	Message string
}

// Source obtains escape records for the package in dir. It is a
// variable so tests can substitute synthetic records; the default
// implementation shells out to `go build -gcflags=-m=2` and caches per
// directory.
var Source = goBuildSource

func run(pass *analysis.Pass) error {
	if !scope.HotAlloc(pass.Pkg.Path()) {
		return nil
	}
	type annotated struct {
		fd   *ast.FuncDecl
		file *ast.File
	}
	var funcs []annotated
	dirs := map[string]bool{}
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isAnnotated(fd) {
				continue
			}
			fname := pass.Fset.Position(fd.Pos()).Filename
			if strings.HasSuffix(fname, "_test.go") {
				pass.Reportf(fd.Pos(),
					"//simlint:hotpath on a _test.go function: go build does not compile test files, so the annotation cannot be enforced; move the function or drop the annotation")
				continue
			}
			funcs = append(funcs, annotated{fd, file})
			dirs[filepath.Dir(fname)] = true
		}
	}
	if len(funcs) == 0 {
		return nil
	}

	records := map[string][]Record{} // dir → records
	for dir := range dirs {
		recs, err := Source(dir)
		if err != nil {
			return fmt.Errorf("hotalloc: escape analysis of %s: %v", dir, err)
		}
		records[dir] = recs
	}

	for _, a := range funcs {
		checkFunc(pass, a.fd, records)
	}
	return nil
}

// isAnnotated reports whether fd's doc comment carries the marker.
func isAnnotated(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		text := c.Text
		if text == Marker || strings.HasPrefix(text, Marker+" ") || strings.HasPrefix(text, Marker+"\t") {
			return true
		}
	}
	return false
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl, records map[string][]Record) {
	pos := pass.Fset.Position(fd.Body.Pos())
	end := pass.Fset.Position(fd.Body.End())
	dir := filepath.Dir(pos.Filename)

	// Lines holding a call to the builtin panic are exempt.
	panicLines := map[int]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !analysis.IsBuiltin(pass.TypesInfo, call.Fun, "panic") {
			return true
		}
		for l := pass.Fset.Position(call.Pos()).Line; l <= pass.Fset.Position(call.End()).Line; l++ {
			panicLines[l] = true
		}
		return true
	})

	tf := pass.Fset.File(fd.Pos())
	for _, rec := range records[dir] {
		if rec.File != pos.Filename {
			continue
		}
		if !within(rec, pos, end) || panicLines[rec.Line] {
			continue
		}
		pass.Reportf(posFor(tf, rec),
			"heap allocation in //simlint:hotpath function %s: %s",
			fd.Name.Name, rec.Message)
	}
}

// within reports whether rec falls inside the body span [pos, end].
func within(rec Record, pos, end token.Position) bool {
	if rec.Line < pos.Line || rec.Line > end.Line {
		return false
	}
	if rec.Line == pos.Line && rec.Col < pos.Column {
		return false
	}
	if rec.Line == end.Line && rec.Col > end.Column {
		return false
	}
	return true
}

// posFor converts a record's line/col to a token.Pos inside tf.
func posFor(tf *token.File, rec Record) token.Pos {
	if rec.Line < 1 || rec.Line > tf.LineCount() {
		return tf.Pos(0)
	}
	p := tf.LineStart(rec.Line)
	return p + token.Pos(rec.Col-1)
}

// escapeCache memoizes compiler output per package directory; the
// drivers analyze the augmented and external-test units of a package
// back to back, and parallel unit analysis may request the same
// directory concurrently.
var escapeCache = struct {
	sync.Mutex
	m map[string]cacheEntry
}{m: map[string]cacheEntry{}}

type cacheEntry struct {
	recs []Record
	err  error
}

// goBuildSource runs the compiler's escape analysis over the package
// in dir and extracts allocation records.
func goBuildSource(dir string) ([]Record, error) {
	escapeCache.Lock()
	defer escapeCache.Unlock()
	if e, ok := escapeCache.m[dir]; ok {
		return e.recs, e.err
	}
	cmd := exec.Command("go", "build", "-gcflags=-m=2", ".")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		e := cacheEntry{nil, fmt.Errorf("go build -gcflags=-m=2: %v\n%s", err, out)}
		escapeCache.m[dir] = e
		return e.recs, e.err
	}
	recs := ParseEscapes(dir, out)
	escapeCache.m[dir] = cacheEntry{recs, nil}
	return recs, nil
}

// ParseEscapes extracts allocation records from -m=2 diagnostic output.
// Relative file names are resolved against dir. Only messages that
// denote an allocation are kept: "... escapes to heap" (value, closure,
// or interface-boxing escapes) and "moved to heap: x" (stack variables
// forced to the heap). Inlining notes, leaking-parameter facts, flow
// traces, and "does not escape" verdicts are dropped, and the duplicate
// with-trailing-colon flow-header form of each record is folded into
// one.
func ParseEscapes(dir string, out []byte) []Record {
	var recs []Record
	seen := map[string]bool{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		file, ln, col, msg, ok := splitDiag(line)
		if !ok {
			continue
		}
		// Flow traces and sub-facts are indented continuations.
		if strings.HasPrefix(msg, " ") || strings.HasPrefix(msg, "\t") {
			continue
		}
		msg = strings.TrimSuffix(msg, ":")
		if !strings.HasSuffix(msg, "escapes to heap") && !strings.HasPrefix(msg, "moved to heap") {
			continue
		}
		if !filepath.IsAbs(file) {
			file = filepath.Join(dir, file)
		}
		key := fmt.Sprintf("%s:%d:%d:%s", file, ln, col, msg)
		if seen[key] {
			continue
		}
		seen[key] = true
		recs = append(recs, Record{File: file, Line: ln, Col: col, Message: msg})
	}
	return recs
}

// splitDiag parses "path/file.go:12:34: message".
func splitDiag(line string) (file string, ln, col int, msg string, ok bool) {
	// Find ".go:" to anchor the position fields; the path itself may
	// contain colons on no platform we build on, but anchoring keeps the
	// parse robust against "# package" headers and toolchain notes.
	i := strings.Index(line, ".go:")
	if i < 0 {
		return "", 0, 0, "", false
	}
	file = line[:i+3]
	rest := line[i+4:]
	parts := strings.SplitN(rest, ":", 3)
	if len(parts) != 3 {
		return "", 0, 0, "", false
	}
	ln, err1 := strconv.Atoi(parts[0])
	col, err2 := strconv.Atoi(parts[1])
	if err1 != nil || err2 != nil {
		return "", 0, 0, "", false
	}
	msg = strings.TrimPrefix(parts[2], " ")
	return file, ln, col, msg, true
}

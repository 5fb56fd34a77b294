// Reachability check: every non-test function under internal/ and cmd/
// is linked into a binary (cmd/* or the benchmark), or is on reachAllow
// with the reason it stays. Linking is the oracle, so calls through
// interfaces and generic instantiations count exactly as the program
// makes them.
package hpclog_test

import (
	"bufio"
	"bytes"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// reachAllow names the functions no binary links that stay anyway, each
// with its reason. It may only shrink: an entry that is linked again, or
// no longer declared, fails the test.
var reachAllow = map[string]string{
	"internal/compute.Engine.ResetStats":            "test seam: zeroes the scan counters between measured scans",
	"internal/cql.Session.Execute":                  "oracle: the in-process CQL answer a wire answer must equal byte for byte",
	"internal/ingest.Loader.LoadRuns":               "test seam: loads ground-truth runs without the job-log parser",
	"internal/model.EventFromTimeRow":               "oracle: decodes an event_by_time row for the row-wire codec tests",
	"internal/model.EventFromLocRow":                "oracle: decodes an event_by_location row for the row-wire codec tests",
	"internal/model.eventFromRow":                   "oracle: shared half of EventFromTimeRow and EventFromLocRow",
	"internal/model.EventTimeCount":                 "oracle: timestamp and count half of eventFromRow",
	"internal/model.sourceFromKey":                  "oracle: partition-key half of EventFromLocRow",
	"internal/query.AllOps":                         "test seam: the op list TestEveryOpCovered checks the corpus against",
	"internal/store.DB.Put":                         "test seam: one-row write for store and planner tests",
	"internal/store.DB.ReadRepairs":                 "test seam: the read-repair counter the repair tests assert on",
	"internal/store.Consistency.String":             "test seam: names a consistency level in test failure messages",
	"internal/store.Node.ID":                        "test seam: names the node a round test inspects",
	"internal/store/persist.Batch.Dict":             "oracle: the dictionary view codec tests compare against Col",
	"internal/store/persist.Dict.Len":               "test seam: column dictionary size for interning tests",
	"internal/store/persist.Row.Clone":              "test seam: deep copy for tests that keep rows past a batch",
	"internal/store/persist.Range.Contains":         "oracle: the range check scan tests filter expected rows by",
	"internal/store/persist.Segment.TimeRange":      "test seam: footer time bounds the segment tests assert on",
	"internal/store/persist.Segment.BlockStats":     "test seam: per-block footer statistics the pruning tests read",
	"internal/store/persist.Segment.Verify":         "oracle: whole-file CRC check of a written segment",
	"internal/store/persist.Writer.SetZoneColumns":  "test seam: picks the zone-mapped columns of a test segment",
	"internal/store/persist.Writer.Finish":          "test seam: writes a single-segment file outside a flush round",
	"internal/store/persist.Store.CompactPartition": "test seam: a compaction round of one partition",
	"internal/store/persist.OpenStore":              "test seam: opens a segment directory without an object-store tier",
}

// reachExempt are the trees whose functions exist for callers outside
// the binaries: the SDK and the test-support packages.
var reachExempt = []string{"client", "internal/enginetest", "internal/fsys/fsystest", "internal/testutil"}

func TestEveryFunctionIsLinked(t *testing.T) {
	linked := linkedSymbols(t)
	declared := declaredFuncs(t)

	for key, pos := range declared {
		_, allowed := reachAllow[key]
		switch {
		case linked[key] && allowed:
			t.Errorf("%s: %s is linked again; drop it from reachAllow", pos, key)
		case !linked[key] && !allowed:
			t.Errorf("%s: %s is linked into no binary; delete it, or move it into a _test.go file", pos, key)
		}
	}
	for key := range reachAllow {
		if _, ok := declared[key]; !ok {
			t.Errorf("reachAllow names %s, which is not declared; drop the entry", key)
		}
	}
}

// linkedSymbols builds every binary with inlining off and returns the
// normalised names of the hpclog functions linked into any of them. A
// main package's functions are keyed by its directory, as declaredFuncs
// keys them.
func linkedSymbols(t *testing.T) map[string]bool {
	t.Helper()
	bin := t.TempDir()
	env := append(os.Environ(), "GOFLAGS=-mod=readonly", "GOPROXY=off", "GOTOOLCHAIN=local")
	run := func(args ...string) []byte {
		cmd := exec.Command("go", args...)
		cmd.Env = env
		out, err := cmd.Output()
		if err != nil {
			if ee, ok := err.(*exec.ExitError); ok {
				t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, ee.Stderr)
			}
			t.Fatalf("go %s: %v", strings.Join(args, " "), err)
		}
		return out
	}
	run("build", "-gcflags=all=-l", "-o", bin+"/", "./cmd/...")
	run("build", "-C", "bench", "-gcflags=all=-l", "-o", filepath.Join(bin, "bench"), ".")

	entries, err := os.ReadDir(bin)
	if err != nil {
		t.Fatal(err)
	}
	linked := map[string]bool{}
	for _, e := range entries {
		sc := bufio.NewScanner(bytes.NewReader(run("tool", "nm", filepath.Join(bin, e.Name()))))
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			// "<addr> <kind> <name>"; a generic instantiation's name holds spaces.
			f := strings.SplitN(strings.TrimSpace(sc.Text()), " ", 3)
			if len(f) < 3 || (f[1] != "T" && f[1] != "t") {
				continue
			}
			name := normSymbol(f[2])
			switch {
			case strings.HasPrefix(name, "hpclog/"):
				linked[strings.TrimPrefix(name, "hpclog/")] = true
			case strings.HasPrefix(name, "main."):
				linked["cmd/"+e.Name()+name[len("main"):]] = true
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}
	return linked
}

// closureSuffix matches what the compiler appends to the function a
// symbol was generated inside: closures (func1, nested .1), go and defer
// wrappers, and method values (-fm).
var closureSuffix = regexp.MustCompile(`(\.(func|gowrap|deferwrap)?\d+|-fm)$`)

// ptrRecv rewrites a pointer receiver like a value one.
var ptrRecv = strings.NewReplacer("(*", "", ")", "")

// normSymbol maps a linked symbol to the key declaredFuncs gives its
// declaration: type arguments dropped, closure suffixes stripped, and a
// pointer receiver written like a value one ("pkg.(*T).M" → "pkg.T.M").
func normSymbol(s string) string {
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	s = b.String()
	for {
		loc := closureSuffix.FindStringIndex(s)
		if loc == nil {
			break
		}
		s = s[:loc[0]]
	}
	return ptrRecv.Replace(s)
}

// declaredFuncs returns every non-test function and method with a body
// under internal/ and cmd/, outside the exempt trees, keyed as
// "<dir>.<Func>" or "<dir>.<Type>.<Method>", with its position.
func declaredFuncs(t *testing.T) map[string]string {
	t.Helper()
	fset := token.NewFileSet()
	decls := map[string]string{}
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if slices.Contains(reachExempt, filepath.ToSlash(path)) || d.Name() == "testdata" {
					return filepath.SkipDir
				}
				return nil
			}
			name := d.Name()
			if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				return nil
			}
			if ok, err := build.Default.MatchFile(filepath.Dir(path), name); err != nil || !ok {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			dir := filepath.ToSlash(filepath.Dir(path))
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				// Empty bodies are markers (an interface's sealing method).
				if !ok || fn.Body == nil || len(fn.Body.List) == 0 || fn.Name.Name == "init" {
					continue
				}
				key := dir + "." + fn.Name.Name
				if fn.Recv != nil {
					key = dir + "." + recvName(fn.Recv.List[0].Type) + "." + fn.Name.Name
				}
				decls[key] = fset.Position(fn.Pos()).String()
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return decls
}

// recvName is the bare type name of a receiver: *T, T[K], *T[K, V] → T.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

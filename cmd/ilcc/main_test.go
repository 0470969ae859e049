package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"inlinec"
	"inlinec/internal/bench"
	"inlinec/internal/profdb"
	"inlinec/internal/testgen"
)

// writeFile drops MiniC source (or any content) into a temp dir.
func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const prog = `
extern int printf(char *fmt, ...);
int triple(int x) { return x * 3; }
int main() {
    int i; int s;
    s = 0;
    for (i = 0; i < 50; i++) s += triple(i);
    printf("%d\n", s);
    return 0;
}
`

func runCLI(t *testing.T, args []string, stdin string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, strings.NewReader(stdin), &out, &errb)
	return code, out.String(), errb.String()
}

func TestCLICompileOnly(t *testing.T) {
	dir := t.TempDir()
	p := writeFile(t, dir, "p.c", prog)
	code, out, _ := runCLI(t, []string{p}, "")
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.Contains(out, "2 functions") {
		t.Errorf("summary = %q", out)
	}
}

func TestCLIRun(t *testing.T) {
	dir := t.TempDir()
	p := writeFile(t, dir, "p.c", prog)
	code, out, errb := runCLI(t, []string{"-run", "-stats", p}, "")
	if code != 0 {
		t.Fatalf("exit = %d (%s)", code, errb)
	}
	if out != "3675\n" {
		t.Errorf("stdout = %q", out)
	}
	if !strings.Contains(errb, "IL=") || !strings.Contains(errb, "calls=") {
		t.Errorf("stats missing: %q", errb)
	}
}

func TestCLIInlineRun(t *testing.T) {
	dir := t.TempDir()
	p := writeFile(t, dir, "p.c", prog)
	code, out, errb := runCLI(t, []string{"-inline", "-run", p}, "")
	if code != 0 {
		t.Fatalf("exit = %d (%s)", code, errb)
	}
	if out != "3675\n" {
		t.Errorf("stdout after inlining = %q", out)
	}
	if !strings.Contains(errb, "expanded site") {
		t.Errorf("expansion report missing: %q", errb)
	}
}

func TestCLIDumpAndDot(t *testing.T) {
	dir := t.TempDir()
	p := writeFile(t, dir, "p.c", prog)
	_, dumpOut, _ := runCLI(t, []string{"-dump", p}, "")
	if !strings.Contains(dumpOut, "func main") || !strings.Contains(dumpOut, "call triple") {
		t.Errorf("dump = %.200q", dumpOut)
	}
	_, dotOut, _ := runCLI(t, []string{"-dot", p}, "")
	if !strings.Contains(dotOut, "digraph") || !strings.Contains(dotOut, `"triple"`) {
		t.Errorf("dot = %.200q", dotOut)
	}
}

func TestCLILinkMultipleUnits(t *testing.T) {
	dir := t.TempDir()
	lib := writeFile(t, dir, "lib.c", `
int helper(int x) { return x + 5; }
`)
	app := writeFile(t, dir, "app.c", `
extern int printf(char *fmt, ...);
extern int helper(int x);
int main() { printf("%d\n", helper(37)); return 0; }
`)
	code, out, errb := runCLI(t, []string{"-run", lib, app}, "")
	if code != 0 {
		t.Fatalf("exit = %d (%s)", code, errb)
	}
	if out != "42\n" {
		t.Errorf("stdout = %q", out)
	}
}

func TestCLITailCallFlag(t *testing.T) {
	dir := t.TempDir()
	p := writeFile(t, dir, "p.c", `
extern int printf(char *fmt, ...);
int count(int n, int acc) { if (n <= 0) return acc; return count(n - 1, acc + 1); }
int main() { printf("%d\n", count(500, 0)); return 0; }
`)
	code, out, errb := runCLI(t, []string{"-tco", "-run", p}, "")
	if code != 0 {
		t.Fatalf("exit = %d (%s)", code, errb)
	}
	if out != "500\n" {
		t.Errorf("stdout = %q", out)
	}
	if !strings.Contains(errb, "rewrote 1 self tail call") {
		t.Errorf("tco report missing: %q", errb)
	}
}

func TestCLIFileSeeding(t *testing.T) {
	dir := t.TempDir()
	host := writeFile(t, dir, "data.txt", "hello-fs")
	p := writeFile(t, dir, "p.c", `
extern int open(char *path, int mode);
extern int getc(int fd);
extern int putchar(int c);
int main() {
    int fd; int c;
    fd = open("guest.txt", 0);
    if (fd < 0) return 1;
    while ((c = getc(fd)) != -1) putchar(c);
    return 0;
}
`)
	code, out, _ := runCLI(t, []string{"-run", "-file", "guest.txt=" + host, p}, "")
	if code != 0 || out != "hello-fs" {
		t.Errorf("exit=%d out=%q", code, out)
	}
}

func TestCLIErrors(t *testing.T) {
	dir := t.TempDir()
	bad := writeFile(t, dir, "bad.c", "int main( { return }")
	good := writeFile(t, dir, "good.c", prog)
	cases := []struct {
		args []string
		want int
	}{
		{nil, 2},                         // no args
		{[]string{"-badflag", "x.c"}, 2}, // unknown flag
		{[]string{filepath.Join(dir, "missing.c")}, 1},
		{[]string{bad}, 1},
		{[]string{"-inline", "-heuristic", "bogus", bad}, 1},
		{[]string{"-run", "-file", "malformed", bad}, 1},
		{[]string{"-profile-mode", "bogus", good}, 2}, // rejected even with nothing to run
	}
	for _, c := range cases {
		if code, _, _ := runCLI(t, c.args, ""); code != c.want {
			t.Errorf("args %v: exit = %d, want %d", c.args, code, c.want)
		}
	}
}

// seedDB profiles the program in-process and stores one snapshot in a
// fresh database file, returning the database path.
func seedDB(t *testing.T, dir, srcPath string) string {
	t.Helper()
	src, err := os.ReadFile(srcPath)
	if err != nil {
		t.Fatal(err)
	}
	p, err := inlinec.Compile(srcPath, string(src))
	if err != nil {
		t.Fatal(err)
	}
	prof, err := p.ProfileInputs()
	if err != nil {
		t.Fatal(err)
	}
	rec, err := p.Snapshot(prof, 0)
	if err != nil {
		t.Fatal(err)
	}
	db := profdb.NewDB(filepath.Base(srcPath))
	if err := db.Ingest(rec); err != nil {
		t.Fatal(err)
	}
	dbPath := filepath.Join(dir, "p.profdb")
	if err := profdb.WriteDBFile(dbPath, db); err != nil {
		t.Fatal(err)
	}
	return dbPath
}

// TestCLIInlineFromProfDBFile: -inline -profdb with a database file must
// inline exactly like in-process profiling (the profile came from the
// same program, so nothing is stale).
func TestCLIInlineFromProfDBFile(t *testing.T) {
	dir := t.TempDir()
	p := writeFile(t, dir, "p.c", prog)
	dbPath := seedDB(t, dir, p)
	code, out, errb := runCLI(t, []string{"-inline", "-run", "-profdb", dbPath, p}, "")
	if code != 0 {
		t.Fatalf("exit = %d (%s)", code, errb)
	}
	if out != "3675\n" {
		t.Errorf("stdout = %q", out)
	}
	if !strings.Contains(errb, "expanded site") {
		t.Errorf("expansion report missing: %q", errb)
	}
	if strings.Contains(errb, "profdb:") {
		t.Errorf("clean database consumption must not print a staleness report: %q", errb)
	}
}

// serveDB serves the database file at dbPath the way ilprofd's GET
// /profile does: the merged record for the requested fingerprint.
func serveDB(t *testing.T, dbPath string) *httptest.Server {
	t.Helper()
	db, err := profdb.ReadDBFile(dbPath, "")
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fp := r.URL.Query().Get("fingerprint")
		merged, stats := db.Merge(fp, profdb.DefaultMergeParams())
		if stats.Records == 0 {
			http.Error(w, "no data", http.StatusNotFound)
			return
		}
		profdb.WriteSnapshot(w, db.Program, merged)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestCLIInlineFromProfDBHTTP: the same flow with -profdb pointing at an
// ilprofd-compatible HTTP endpoint.
func TestCLIInlineFromProfDBHTTP(t *testing.T) {
	dir := t.TempDir()
	p := writeFile(t, dir, "p.c", prog)
	ts := serveDB(t, seedDB(t, dir, p))
	code, out, errb := runCLI(t, []string{"-inline", "-run", "-profdb", ts.URL, p}, "")
	if code != 0 {
		t.Fatalf("exit = %d (%s)", code, errb)
	}
	if out != "3675\n" {
		t.Errorf("stdout = %q", out)
	}
	if !strings.Contains(errb, "expanded site") {
		t.Errorf("expansion report missing: %q", errb)
	}
}

// TestCLIHybridFromProfDBHTTP: hybrid weights from a served database
// resolve every site exactly, so the program inlines and runs as with
// measured weights.
func TestCLIHybridFromProfDBHTTP(t *testing.T) {
	dir := t.TempDir()
	p := writeFile(t, dir, "p.c", prog)
	ts := serveDB(t, seedDB(t, dir, p))
	code, out, errb := runCLI(t, []string{"-inline", "-run", "-profile-mode", "hybrid", "-profdb", ts.URL, p}, "")
	if code != 0 {
		t.Fatalf("exit = %d (%s)", code, errb)
	}
	if out != "3675\n" {
		t.Errorf("stdout = %q", out)
	}
	if !strings.Contains(errb, "expanded site") {
		t.Errorf("expansion report missing: %q", errb)
	}
	if strings.Contains(errb, "profdb:") {
		t.Errorf("clean database consumption must not print a staleness report: %q", errb)
	}
}

// TestCLIInlineFromStaleProfDB: a database built from an edited program
// version must still inline what resolves and report what doesn't.
func TestCLIInlineFromStaleProfDB(t *testing.T) {
	dir := t.TempDir()
	v1 := writeFile(t, dir, "p.c", prog)
	dbPath := seedDB(t, dir, v1)
	// Same path, edited source: an extra helper shifts every call-site id.
	v2 := writeFile(t, dir, "p.c", strings.Replace(prog,
		"int triple(int x) { return x * 3; }",
		"int pad(int x) { return x; }\nint triple(int x) { return x * 3; }", 1))
	code, _, errb := runCLI(t, []string{"-inline", "-run", "-profdb", dbPath, v2}, "")
	if code != 0 {
		t.Fatalf("exit = %d (%s)", code, errb)
	}
	if !strings.Contains(errb, "profdb:") || !strings.Contains(errb, "stale") {
		t.Errorf("stale database consumption must print a report: %q", errb)
	}
	if !strings.Contains(errb, "expanded site") {
		t.Errorf("surviving weights must still drive inlining: %q", errb)
	}
}

func TestCLIProfDBErrors(t *testing.T) {
	dir := t.TempDir()
	p := writeFile(t, dir, "p.c", prog)
	dbPath := seedDB(t, dir, p)
	cases := [][]string{
		{"-inline", "-profile", "x.prof", "-profdb", dbPath, p},         // mutually exclusive
		{"-inline", "-profdb", filepath.Join(dir, "missing.profdb"), p}, // empty database
	}
	for _, args := range cases {
		if code, _, _ := runCLI(t, args, ""); code == 0 {
			t.Errorf("args %v: expected nonzero exit", args)
		}
	}
}

// TestCLIProfDBUnreachableDegrades: a dead profile daemon must not fail
// the compile — ilcc warns, falls back to in-process profiling, and
// still inlines.
func TestCLIProfDBUnreachableDegrades(t *testing.T) {
	dir := t.TempDir()
	p := writeFile(t, dir, "p.c", prog)
	code, _, errb := runCLI(t, []string{"-inline", "-run", "-profdb", "http://127.0.0.1:1/", p}, "")
	if code != 0 {
		t.Fatalf("exit = %d, want 0 (graceful degradation); stderr: %s", code, errb)
	}
	if !strings.Contains(errb, "falling back to in-process profiling") {
		t.Errorf("degradation must be announced on stderr: %q", errb)
	}
	if !strings.Contains(errb, "expanded site") {
		t.Errorf("fallback profile must still drive inlining: %q", errb)
	}
}

// TestCLIHybridProfDBUnreachableDegrades: with hybrid weights a dead
// profile daemon degrades to pure prediction, not to profiling — ilcc
// warns and still inlines on the predicted weights.
func TestCLIHybridProfDBUnreachableDegrades(t *testing.T) {
	dir := t.TempDir()
	p := writeFile(t, dir, "p.c", prog)
	// Predicted weights are per-run expectations, so drop the threshold
	// to the per-run scale (see TestCLIPredictedMode).
	code, out, errb := runCLI(t, []string{"-inline", "-run", "-profile-mode", "hybrid", "-threshold", "0.25",
		"-profdb", "http://127.0.0.1:1/", p}, "")
	if code != 0 {
		t.Fatalf("exit = %d, want 0 (graceful degradation); stderr: %s", code, errb)
	}
	if !strings.Contains(errb, "falling back to predicted weights") {
		t.Errorf("degradation must be announced on stderr: %q", errb)
	}
	if !strings.Contains(errb, "expanded site") {
		t.Errorf("predicted fallback must still drive inlining: %q", errb)
	}
	if out != "3675\n" {
		t.Errorf("stdout = %q", out)
	}
}

func TestCLIExitCodePropagates(t *testing.T) {
	dir := t.TempDir()
	p := writeFile(t, dir, "p.c", "int main() { return 7; }")
	code, _, _ := runCLI(t, []string{"-run", p}, "")
	if code != 7 {
		t.Errorf("exit = %d, want the program's own 7", code)
	}
}

// TestCLIPredictedMode: -profile-mode=predicted must compile and expand
// every generator shape and the espresso benchmark with zero profiling
// runs — no input bytes are consumed and no interpreter run happens
// before expansion, so programs whose profiling inputs are unavailable
// still get weighted inlining.
func TestCLIPredictedMode(t *testing.T) {
	dir := t.TempDir()
	srcs := map[string]string{
		"plain.c":     testgen.Generate(1234, testgen.Options{Funcs: 9}),
		"recursion.c": testgen.Generate(1234, testgen.Options{Funcs: 8, Recursion: true}),
		"funcptrs.c":  testgen.Generate(1234, testgen.Options{Funcs: 8, FuncPtrs: true, Extern: true, Recursion: true}),
		"pointers.c":  testgen.Generate(1234, testgen.Options{Funcs: 10, Pointers: true, MaxDepth: 3}),
		"hotcold.c":   testgen.Generate(1234, testgen.Options{Funcs: 10, MaxStmts: 8, HotColdBodies: true}),
		"domptr.c":    testgen.Generate(1234, testgen.Options{Funcs: 8, DominantFuncPtr: true}),
		"mixed.c":     testgen.Generate(1234, testgen.Options{Funcs: 12, MaxStmts: 8, Recursion: true, Pointers: true, FuncPtrs: true, Extern: true}),
	}
	for _, b := range bench.Suite() {
		if b.Name == "espresso" {
			srcs["espresso.c"] = b.Source
		}
	}
	if _, ok := srcs["espresso.c"]; !ok {
		t.Fatal("espresso missing from the bench suite")
	}
	for name, src := range srcs {
		p := writeFile(t, dir, name, src)
		// Predicted weights are per-run expectations (a straight-line
		// site predicts well under 1), so the default threshold of 10 —
		// tuned for multi-run measured counts — would reject everything;
		// drop it to the per-run scale.
		code, _, errb := runCLI(t, []string{"-inline", "-profile-mode", "predicted", "-threshold", "0.25", "-sizelimit", "2.0", p}, "")
		if code != 0 {
			t.Errorf("%s: exit = %d (%s)", name, code, errb)
			continue
		}
		if !strings.Contains(errb, "arcs considered") {
			t.Errorf("%s: inline phase did not run on the predicted profile: %q", name, errb)
		}
		// The heavily recursive shape can legitimately reject every arc
		// (cycles are not expandable); everywhere else the predicted
		// weights must actually drive expansions.
		if name != "recursion.c" && !strings.Contains(errb, "expanded site") {
			t.Errorf("%s: predicted weights produced no expansion: %q", name, errb)
		}
	}
}

// TestCLIPredictedModeRunsCorrectly: predicted-weight expansion must not
// change program behavior.
func TestCLIPredictedModeRunsCorrectly(t *testing.T) {
	dir := t.TempDir()
	p := writeFile(t, dir, "p.c", prog)
	code, out, errb := runCLI(t, []string{"-inline", "-run", "-profile-mode", "predicted", p}, "")
	if code != 0 {
		t.Fatalf("exit = %d (%s)", code, errb)
	}
	if out != "3675\n" {
		t.Errorf("stdout = %q", out)
	}
}

// TestCLIHybridModeFromProfDB: -profile-mode=hybrid with a clean database
// behaves like measured consumption — every site resolves exactly, so the
// program still inlines and runs correctly.
func TestCLIHybridModeFromProfDB(t *testing.T) {
	dir := t.TempDir()
	p := writeFile(t, dir, "p.c", prog)
	dbPath := seedDB(t, dir, p)
	code, out, errb := runCLI(t, []string{"-inline", "-run", "-profile-mode", "hybrid", "-profdb", dbPath, p}, "")
	if code != 0 {
		t.Fatalf("exit = %d (%s)", code, errb)
	}
	if out != "3675\n" {
		t.Errorf("stdout = %q", out)
	}
	if !strings.Contains(errb, "expanded site") {
		t.Errorf("expansion report missing: %q", errb)
	}
}

// TestCLIPredictModeErrors: the profile-source modes reject contradictory
// flag combinations rather than silently picking one source.
func TestCLIPredictModeErrors(t *testing.T) {
	dir := t.TempDir()
	p := writeFile(t, dir, "p.c", prog)
	dbPath := seedDB(t, dir, p)
	cases := [][]string{
		{"-inline", "-profile-mode", "predicted", "-profdb", dbPath, p},  // predicted takes no measurements
		{"-inline", "-profile-mode", "predicted", "-profile", dbPath, p}, // ditto for a profile file
		{"-inline", "-profile-mode", "hybrid", p},                        // hybrid needs a database
	}
	for _, args := range cases {
		if code, _, _ := runCLI(t, args, ""); code == 0 {
			t.Errorf("args %v: expected nonzero exit", args)
		}
	}
}

// TestCLIUnwritableTrace: a -trace file that cannot be created fails the
// command instead of being reported and ignored.
func TestCLIUnwritableTrace(t *testing.T) {
	dir := t.TempDir()
	p := writeFile(t, dir, "p.c", prog)
	code, _, errb := runCLI(t, []string{"-trace", filepath.Join(dir, "no-such-dir", "t.json"), p}, "")
	if code == 0 || !strings.Contains(errb, "no-such-dir") {
		t.Errorf("exit = %d, stderr %q; want nonzero and the path", code, errb)
	}
}

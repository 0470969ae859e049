package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"inlinec"
)

const prog = `
extern int printf(char *fmt, ...);
int work(int x) { return x * x; }
int main() {
    int i; int s;
    s = 0;
    for (i = 0; i < 25; i++) s += work(i);
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

func TestProfilerBasic(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "p.c")
	os.WriteFile(p, []byte(prog), 0o644)
	code, out, errb := runCLI(t, []string{p}, "")
	if code != 0 {
		t.Fatalf("exit = %d (%s)", code, errb)
	}
	if !strings.Contains(out, "work") || !strings.Contains(out, "25.0") {
		t.Errorf("profile output = %q", out)
	}
}

func TestProfilerSites(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "p.c")
	os.WriteFile(p, []byte(prog), 0o644)
	code, out, _ := runCLI(t, []string{"-sites", p}, "")
	if code != 0 {
		t.Fatal("nonzero exit")
	}
	if !strings.Contains(out, "call sites") || !strings.Contains(out, "main") {
		t.Errorf("sites output = %q", out)
	}
}

func TestProfilerMultipleInputsAndOutputFile(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "cat.c")
	os.WriteFile(p, []byte(`
extern int getchar();
int seen;
int note(int c) { seen++; return c; }
int main() {
    int c;
    while ((c = getchar()) != -1) note(c);
    return 0;
}
`), 0o644)
	in1 := filepath.Join(dir, "a.txt")
	in2 := filepath.Join(dir, "b.txt")
	os.WriteFile(in1, []byte("xx"), 0o644)     // 2 calls
	os.WriteFile(in2, []byte("yyyyyy"), 0o644) // 6 calls
	profPath := filepath.Join(dir, "out.prof")
	code, out, errb := runCLI(t, []string{"-in", in1, "-in", in2, "-o", profPath, p}, "")
	if code != 0 {
		t.Fatalf("exit = %d (%s)", code, errb)
	}
	// Averaged over two runs: note entered (2+6)/2 = 4 times.
	if !strings.Contains(out, "2 run(s)") {
		t.Errorf("runs missing from %q", out)
	}
	data, err := os.ReadFile(profPath)
	if err != nil {
		t.Fatalf("profile file: %v", err)
	}
	prof, err := inlinec.ReadProfile(strings.NewReader(string(data)))
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if got := prof.FuncWeight("note"); got != 4 {
		t.Errorf("note weight = %v, want 4", got)
	}
}

func TestProfilerErrors(t *testing.T) {
	if code, _, _ := runCLI(t, nil, ""); code == 0 {
		t.Error("no args must fail")
	}
	if code, _, _ := runCLI(t, []string{"nope.c"}, ""); code == 0 {
		t.Error("missing file must fail")
	}
}

// TestProfilerDatabaseFlow exercises the database life cycle end to end
// through the CLI: profile with -db twice (two generations), inspect with
// show, and read back a merged legacy profile with merge.
func TestProfilerDatabaseFlow(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "p.c")
	os.WriteFile(p, []byte(prog), 0o644)
	dbPath := filepath.Join(dir, "p.profdb")

	for i := 0; i < 2; i++ {
		code, _, errb := runCLI(t, []string{"-db", dbPath, p}, "")
		if code != 0 {
			t.Fatalf("profile+ingest %d: exit = %d (%s)", i, code, errb)
		}
		if !strings.Contains(errb, "ingested 1 run(s)") {
			t.Errorf("ingest report missing: %q", errb)
		}
	}

	code, out, errb := runCLI(t, []string{"show", "-db", dbPath}, "")
	if code != 0 {
		t.Fatalf("show: exit = %d (%s)", code, errb)
	}
	if !strings.Contains(out, "2 record(s), 2 run(s), newest gen 1") {
		t.Errorf("show output = %q", out)
	}
	if !strings.Contains(out, "gen 0") || !strings.Contains(out, "gen 1") {
		t.Errorf("show must list both generations: %q", out)
	}

	// -halflife 0 disables age decay, so the merge is the exact integer
	// sum of both generations.
	profPath := filepath.Join(dir, "merged.prof")
	code, out, errb = runCLI(t, []string{"merge", "-db", dbPath, "-halflife", "0", "-o", profPath, p}, "")
	if code != 0 {
		t.Fatalf("merge: exit = %d (%s)", code, errb)
	}
	if errb != "" {
		t.Errorf("merge on identical source must be clean, got %q", errb)
	}
	if !strings.Contains(out, "work") {
		t.Errorf("merged profile output = %q", out)
	}
	data, err := os.ReadFile(profPath)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := inlinec.ReadProfile(strings.NewReader(string(data)))
	if err != nil {
		t.Fatalf("merge -o wrote an unreadable legacy profile: %v", err)
	}
	if merged.Runs != 2 {
		t.Errorf("merged runs = %d, want 2", merged.Runs)
	}
	if merged.FuncWeight("work") != 25 {
		t.Errorf("work weight = %v, want the per-run average 25", merged.FuncWeight("work"))
	}
}

// TestProfilerMixedRateWarning: publishing sampled runs into a
// generation that already holds exactly-counted data (or vice versa)
// must warn that the combined counts become mixed-rate, while same-rate
// republishing stays silent.
func TestProfilerMixedRateWarning(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "p.c")
	os.WriteFile(p, []byte(prog), 0o644)
	dbPath := filepath.Join(dir, "p.profdb")

	// First publish: exact counts into gen 0.
	if code, _, errb := runCLI(t, []string{"-db", dbPath, "-gen", "0", p}, ""); code != 0 {
		t.Fatalf("exact ingest: exit = %d (%s)", code, errb)
	}
	// Same rate again: no warning.
	if code, _, errb := runCLI(t, []string{"-db", dbPath, "-gen", "0", p}, ""); code != 0 {
		t.Fatalf("exact re-ingest: exit = %d (%s)", code, errb)
	} else if strings.Contains(errb, "mixed-rate") {
		t.Errorf("same-rate republish must not warn: %q", errb)
	}
	// Sampled runs into the same generation: warn.
	code, _, errb := runCLI(t, []string{"-db", dbPath, "-gen", "0", "-profile-mode", "sampled", "-samplerate", "4", p}, "")
	if code != 0 {
		t.Fatalf("sampled ingest: exit = %d (%s)", code, errb)
	}
	if !strings.Contains(errb, "mixed-rate") || !strings.Contains(errb, "exactly-counted") || !strings.Contains(errb, "1-in-4 sampled") {
		t.Errorf("mixed-rate warning missing or incomplete: %q", errb)
	}
	// show must surface the record's now-mixed rate marker.
	_, out, _ := runCLI(t, []string{"show", "-db", dbPath}, "")
	if !strings.Contains(out, "[mixed-rate]") {
		t.Errorf("show output lacks the mixed-rate marker: %q", out)
	}
}

// TestProfilerMergeStaleSource: a database built from one source applied
// to an edited source must report staleness instead of misattributing.
func TestProfilerMergeStaleSource(t *testing.T) {
	dir := t.TempDir()
	v1 := filepath.Join(dir, "v1.c")
	os.WriteFile(v1, []byte(prog), 0o644)
	v2 := filepath.Join(dir, "v2.c")
	os.WriteFile(v2, []byte(strings.Replace(prog, "int work(int x) { return x * x; }",
		"int twice(int x) { return x + x; }\nint work(int x) { return twice(x) * x; }", 1)), 0o644)
	dbPath := filepath.Join(dir, "p.profdb")

	if code, _, errb := runCLI(t, []string{"-db", dbPath, v1}, ""); code != 0 {
		t.Fatalf("ingest v1: %s", errb)
	}
	code, out, errb := runCLI(t, []string{"merge", "-db", dbPath, "-stale", "1", v2}, "")
	if code != 0 {
		t.Fatalf("merge v2: exit = %d (%s)", code, errb)
	}
	if !strings.Contains(errb, "1 stale down-weighted") {
		t.Errorf("stale record not reported: %q", errb)
	}
	if !strings.Contains(out, "work") {
		t.Errorf("merged profile output = %q", out)
	}
}

// TestProfilerDiff compares two program versions stored in one database.
func TestProfilerDiff(t *testing.T) {
	dir := t.TempDir()
	v1 := filepath.Join(dir, "v1.c")
	os.WriteFile(v1, []byte(prog), 0o644)
	v2 := filepath.Join(dir, "v2.c")
	os.WriteFile(v2, []byte(strings.Replace(prog, "i < 25", "i < 50", 1)), 0o644)
	dbPath := filepath.Join(dir, "p.profdb")

	if code, _, errb := runCLI(t, []string{"-db", dbPath, v1}, ""); code != 0 {
		t.Fatalf("ingest v1: %s", errb)
	}
	if code, _, errb := runCLI(t, []string{"-db", dbPath, v2}, ""); code != 0 {
		t.Fatalf("ingest v2: %s", errb)
	}

	_, out, _ := runCLI(t, []string{"show", "-db", dbPath}, "")
	var fps []string
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) > 2 && f[1] == "gen" {
			fps = append(fps, f[0])
		}
	}
	if len(fps) != 2 {
		t.Fatalf("want 2 fingerprints in show output, got %v from %q", fps, out)
	}

	code, out, errb := runCLI(t, []string{"diff", "-db", dbPath, fps[0], fps[1]}, "")
	if code != 0 {
		t.Fatalf("diff: exit = %d (%s)", code, errb)
	}
	// The loop bound doubled, so the main->work arc weight changed; the
	// shared site must show up with its stable key, under either order.
	if !strings.Contains(out, "main work 0") {
		t.Errorf("diff output lacks the shared main->work site: %q", out)
	}
	if !strings.Contains(out, "25.0") || !strings.Contains(out, "50.0") {
		t.Errorf("diff output lacks the per-run weights: %q", out)
	}
}

// TestProfilerTruncatedWarning: a program exiting mid-call-chain must
// trigger the stderr warning.
func TestProfilerTruncatedWarning(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "p.c")
	os.WriteFile(p, []byte(`
extern void exit(int c);
int leave(int c) { exit(c); return 0; }
int main() { leave(3); return 0; }
`), 0o644)
	code, out, errb := runCLI(t, []string{p}, "")
	if code != 0 {
		t.Fatalf("exit = %d (%s)", code, errb)
	}
	if !strings.Contains(errb, "truncated") {
		t.Errorf("stderr warning missing: %q", errb)
	}
	if !strings.Contains(out, "1 of 1 run(s) truncated") {
		t.Errorf("profile summary missing truncation count: %q", out)
	}

	// And the converse: a run that unwinds normally (returns == calls+1,
	// counting main's own ret) must not be flagged.
	clean := filepath.Join(dir, "clean.c")
	os.WriteFile(clean, []byte(`
int leave(int c) { return c; }
int main() { leave(3); return 0; }
`), 0o644)
	code, out, errb = runCLI(t, []string{clean}, "")
	if code != 0 {
		t.Fatalf("exit = %d (%s)", code, errb)
	}
	if strings.Contains(errb, "truncated") || strings.Contains(out, "truncated") {
		t.Errorf("clean run spuriously flagged truncated:\nstderr %q\nstdout %q", errb, out)
	}
}

// TestProfilerVerbErrors: each verb validates its arguments.
func TestProfilerVerbErrors(t *testing.T) {
	dir := t.TempDir()
	cases := [][]string{
		{"merge"},             // no -db
		{"merge", "-db", "x"}, // no source or fingerprint
		{"show"},              // no -db
		{"diff", "-db", "x"},  // missing fingerprints
		{"merge", "-db", filepath.Join(dir, "empty.profdb"), "-fingerprint", "ffff"}, // no data
	}
	for _, args := range cases {
		if code, _, _ := runCLI(t, args, ""); code == 0 {
			t.Errorf("args %v: expected nonzero exit", args)
		}
	}
}

// TestProfilerProfileModes: ilprof shares the one -profile-mode parser
// with ilcc and ilbench. measured is an alias for full, and the weight
// sources ilprof cannot produce — predicted, hybrid — exit 2 with a
// message, as do unknown values.
func TestProfilerProfileModes(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "p.c")
	os.WriteFile(p, []byte(prog), 0o644)
	code, full, errb := runCLI(t, []string{"-sites", "-profile-mode", "full", p}, "")
	if code != 0 {
		t.Fatalf("full: exit = %d (%s)", code, errb)
	}
	code, measured, errb := runCLI(t, []string{"-sites", "-profile-mode", "measured", p}, "")
	if code != 0 {
		t.Fatalf("measured: exit = %d (%s)", code, errb)
	}
	if measured != full {
		t.Errorf("measured profile differs from full:\n%s\nvs\n%s", measured, full)
	}
	for _, mode := range []string{"predicted", "hybrid", "bogus"} {
		code, out, errb := runCLI(t, []string{"-profile-mode", mode, p}, "")
		if code != 2 || out != "" || !strings.Contains(errb, mode) {
			t.Errorf("-profile-mode %s: exit = %d, stdout %q, stderr %q; want exit 2 and a message naming the mode", mode, code, out, errb)
		}
	}
}

// TestProfilerUnwritableOutputs: an output file that cannot be created
// fails the command instead of being reported and ignored.
func TestProfilerUnwritableOutputs(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "p.c")
	os.WriteFile(p, []byte(prog), 0o644)
	missing := filepath.Join(dir, "no-such-dir", "out")
	for _, flag := range []string{"-trace", "-memprofile", "-cpuprofile"} {
		code, _, errb := runCLI(t, []string{flag, missing, p}, "")
		if code == 0 || !strings.Contains(errb, "no-such-dir") {
			t.Errorf("%s into a missing directory: exit = %d, stderr %q; want nonzero and the path", flag, code, errb)
		}
	}
}

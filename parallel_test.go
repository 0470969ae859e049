// Tests for the parallel profiling pipeline: fanning runs out over a
// worker pool must be an implementation detail, invisible in every
// observable result.
package inlinec_test

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"inlinec"
	"inlinec/internal/bench"
)

// serializeProfile renders a profile through the on-disk format, the
// strictest equality available (it covers every count the profile holds).
func serializeProfile(t *testing.T, p *inlinec.Profile) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestParallelProfilingDeterminism: the worker pool produces byte-identical
// serialized profiles to a serial run, across suite benchmarks and worker
// counts (including more workers than inputs).
func TestParallelProfilingDeterminism(t *testing.T) {
	for _, name := range []string{"wc", "tee"} {
		bm := bench.Get(name)
		if bm == nil {
			t.Fatalf("missing suite benchmark %s", name)
		}
		inputs := bm.Inputs
		if testing.Short() && len(inputs) > 6 {
			inputs = inputs[:6]
		}
		p, err := bm.Compile()
		if err != nil {
			t.Fatal(err)
		}
		p.Parallelism = 1
		serial, err := p.ProfileInputs(inputs...)
		if err != nil {
			t.Fatal(err)
		}
		want := serializeProfile(t, serial)
		for _, par := range []int{0, 2, 4, len(inputs) + 3} {
			p.Parallelism = par
			prof, err := p.ProfileInputs(inputs...)
			if err != nil {
				t.Fatalf("%s parallelism %d: %v", name, par, err)
			}
			if got := serializeProfile(t, prof); !bytes.Equal(got, want) {
				t.Errorf("%s: parallelism %d profile differs from serial run:\n--- serial ---\n%s--- parallel ---\n%s",
					name, par, want, got)
			}
		}
	}
}

// TestParallelRunAllDeterminism: RunAll with a worker pool returns results
// in suite order with the same measurements a serial pass produces. Uses a
// single capped run per benchmark to keep the suite fast.
func TestParallelRunAllDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite comparison is not short")
	}
	cfg := bench.DefaultConfig()
	cfg.MaxRuns = 1
	cfg.Parallelism = 1
	serial, err := bench.RunAll(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Parallelism = runtime.GOMAXPROCS(0)
	parallel, err := bench.RunAll(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("result counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		s, p := serial[i], parallel[i]
		if s.Name != p.Name {
			t.Fatalf("result %d out of order: %s vs %s", i, s.Name, p.Name)
		}
		if s.AvgIL != p.AvgIL || s.AvgILAfter != p.AvgILAfter ||
			s.Expansions != p.Expansions || s.CallDec != p.CallDec || s.CodeInc != p.CodeInc {
			t.Errorf("%s: parallel measurements differ from serial: %+v vs %+v", s.Name, s, p)
		}
	}
	// The rendered tables — what ilbench prints — must match byte for byte.
	if st, pt := bench.AllTables(serial), bench.AllTables(parallel); st != pt {
		t.Errorf("tables differ between serial and parallel runs:\n%s\nvs\n%s", st, pt)
	}
}

// renderDecisions flattens everything Inline decided — the linear order,
// every decision with its reason, and the size accounting — into one
// comparable string. Cache stats are deliberately excluded: the hit/miss
// split is per-worker state and varies with the worker count.
func renderDecisions(res *inlinec.Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "order: %s\n", strings.Join(res.Order, " "))
	for _, d := range res.Decisions {
		fmt.Fprintf(&sb, "site %d %s<-%s w=%.1f accepted=%v reason=%q\n",
			d.SiteID, d.Caller, d.Callee, d.Weight, d.Accepted, d.Reason)
	}
	fmt.Fprintf(&sb, "expansions=%d size %d->%d\n%s",
		res.NumExpansions, res.OriginalSize, res.FinalSize, res.String())
	return sb.String()
}

// TestParallelInlineDeterminism: wave-scheduled physical expansion must
// be invisible — byte-identical module, decision list, and rendered
// report versus the serial walk at worker counts {1, 2, 8} on real
// multi-function benchmarks.
func TestParallelInlineDeterminism(t *testing.T) {
	for _, name := range []string{"espresso", "cccp"} {
		bm := bench.Get(name)
		if bm == nil {
			t.Fatalf("missing suite benchmark %s", name)
		}
		inputs := bm.Inputs[:4]
		if testing.Short() {
			inputs = inputs[:2]
		}
		base, err := bm.Compile()
		if err != nil {
			t.Fatal(err)
		}
		prof, err := base.ProfileInputs(inputs...)
		if err != nil {
			t.Fatal(err)
		}
		inlineAt := func(par int) (string, string) {
			p, err := bm.Compile()
			if err != nil {
				t.Fatal(err)
			}
			params := inlinec.DefaultParams()
			params.Parallelism = par
			res, err := p.Inline(prof, params)
			if err != nil {
				t.Fatalf("%s inline (par %d): %v", name, par, err)
			}
			if res.Cache.Lookups != res.NumExpansions {
				t.Errorf("%s par %d: %d cache lookups for %d splices", name, par, res.Cache.Lookups, res.NumExpansions)
			}
			return p.Module.String(), renderDecisions(res)
		}
		wantMod, wantRes := inlineAt(1)
		for _, par := range []int{2, 8} {
			gotMod, gotRes := inlineAt(par)
			if gotMod != wantMod {
				t.Errorf("%s: parallelism %d module differs from serial expansion", name, par)
			}
			if gotRes != wantRes {
				t.Errorf("%s: parallelism %d decisions differ from serial:\n--- serial ---\n%s--- parallel ---\n%s",
					name, par, wantRes, gotRes)
			}
		}
	}
}

// TestParallelOptimizeDeterminism: the concurrent per-function cleanup
// pipelines must produce the byte-identical module a serial pass does,
// at worker counts {1, 2, 8}.
func TestParallelOptimizeDeterminism(t *testing.T) {
	bm := bench.Get("espresso")
	if bm == nil {
		t.Fatal("missing suite benchmark espresso")
	}
	base, err := bm.Compile()
	if err != nil {
		t.Fatal(err)
	}
	prof, err := base.ProfileInputs(bm.Inputs[:2]...)
	if err != nil {
		t.Fatal(err)
	}
	optimizeAt := func(par int) string {
		p, err := bm.Compile()
		if err != nil {
			t.Fatal(err)
		}
		params := inlinec.DefaultParams()
		params.Parallelism = 1 // identical input module for every par
		if _, err := p.Inline(prof, params); err != nil {
			t.Fatal(err)
		}
		p.Parallelism = par
		if err := p.Optimize(); err != nil {
			t.Fatalf("optimize (par %d): %v", par, err)
		}
		return p.Module.String()
	}
	want := optimizeAt(1)
	for _, par := range []int{2, 8} {
		if got := optimizeAt(par); got != want {
			t.Errorf("parallelism %d optimized module differs from serial", par)
		}
	}
}

// Multi-unit sources for the parallel front end tests.
var unitSources = []inlinec.UnitSource{
	{Name: "math.c", Src: `
int square(int x) { return x * x; }
int cube(int x) { return square(x) * x; }
static int twist(int x) { return x ^ 0x2a; }
int scramble(int x) { return twist(x) + 1; }
`},
	{Name: "acc.c", Src: `
extern int square(int x);
int total;
int accumulate(int x) { total += square(x); return total; }
static int twist(int x) { return x + 1000; }
int wobble(int x) { return twist(x); }
`},
	{Name: "main.c", Src: `
extern int printf(char *fmt, ...);
extern int cube(int x);
extern int accumulate(int x);
extern int scramble(int x);
extern int wobble(int x);
extern int total;
int main() {
    int i; int s;
    s = 0;
    for (i = 0; i < 40; i++) s += accumulate(i) + cube(i);
    s += scramble(s) + wobble(s);
    printf("%d %d\n", s, total);
    return 0;
}
`},
}

// TestParallelCompileUnitsDeterminism: the parallel multi-unit front end
// must link the byte-identical module a serial unit-by-unit compile
// does, at worker counts {1, 2, 8}, and behave identically when run.
func TestParallelCompileUnitsDeterminism(t *testing.T) {
	linkAt := func(par int) (string, string) {
		p, err := inlinec.CompileAndLink("prog", inlinec.Options{Parallelism: par}, unitSources...)
		if err != nil {
			t.Fatalf("compile+link (par %d): %v", par, err)
		}
		out, err := p.Run(inlinec.Input{})
		if err != nil {
			t.Fatalf("run (par %d): %v", par, err)
		}
		return p.Module.String(), out.Stdout
	}
	wantMod, wantOut := linkAt(1)
	for _, par := range []int{2, 8} {
		gotMod, gotOut := linkAt(par)
		if gotMod != wantMod {
			t.Errorf("parallelism %d linked module differs from serial front end", par)
		}
		if gotOut != wantOut {
			t.Errorf("parallelism %d program output %q, serial %q", par, gotOut, wantOut)
		}
	}
}

// TestParallelCompileUnitsDiagnostics: diagnostics from failing units
// merge in input order with identical text at any worker count, and
// every failing unit is reported — not just the first.
func TestParallelCompileUnitsDiagnostics(t *testing.T) {
	bad := []inlinec.UnitSource{
		{Name: "ok.c", Src: `int fine(int x) { return x; }`},
		{Name: "broken1.c", Src: `int oops( { return 1; }`},
		{Name: "broken2.c", Src: `int main() { return undeclared_thing; }`},
	}
	errAt := func(par int) string {
		_, err := inlinec.CompileUnits(par, bad...)
		if err == nil {
			t.Fatalf("compile (par %d) of broken units succeeded", par)
		}
		return err.Error()
	}
	want := errAt(1)
	for _, unit := range []string{"broken1.c", "broken2.c"} {
		if !strings.Contains(want, unit) {
			t.Errorf("merged diagnostics missing %s: %q", unit, want)
		}
	}
	if i1, i2 := strings.Index(want, "broken1.c"), strings.Index(want, "broken2.c"); i1 > i2 {
		t.Errorf("diagnostics out of input order: %q", want)
	}
	for _, par := range []int{2, 8} {
		if got := errAt(par); got != want {
			t.Errorf("parallelism %d diagnostics differ:\n--- serial ---\n%s\n--- parallel ---\n%s", par, want, got)
		}
	}
}

// Interpreter and profiling-pipeline microbenchmarks. These track the
// hot-loop dispatch cost (ns and allocations per run) and the end-to-end
// profiling throughput that every table regeneration pays, so interpreter
// regressions show up in the bench trajectory alongside the paper's
// result-shape metrics.
package inlinec_test

import (
	"fmt"
	"testing"

	"inlinec"
	"inlinec/internal/bench"
	"inlinec/internal/interp"
	"inlinec/internal/profile"
	"inlinec/internal/testgen"
)

// dispatchProgs isolates the dispatch loop's distinct cost centers: pure
// register arithmetic, call/return overhead, branch-dense control flow,
// memory traffic through pointers and arrays, and the printf extern path.
// Each runs a few hundred thousand IL instructions — long enough that
// steady-state dispatch dominates setup.
var dispatchProgs = []struct{ name, src string }{
	{"arith", `int main() {
	int i; int a; int b; int c;
	a = 1; b = 2; c = 0;
	for (i = 0; i < 100000; i++) {
		c = c + a * b - (a ^ i) + (b << 1) - (i % 7);
		a = a + 1;
		b = b ^ c;
	}
	return c & 0xff;
}`},
	{"calls", `int add3(int a, int b, int c) { return a + b + c; }
int twice(int x) { return add3(x, x, 1); }
int main() {
	int i; int s;
	s = 0;
	for (i = 0; i < 30000; i++) {
		s = s + twice(i) + add3(i, s, 2);
	}
	return s & 0xff;
}`},
	{"branches", `int main() {
	int i; int s;
	s = 0;
	for (i = 0; i < 60000; i++) {
		if (i % 3 == 0) { s = s + 1; }
		else if (i % 5 == 0) { s = s + 2; }
		else if (i % 7 == 0) { s = s - 1; }
		else { s = s + i % 2; }
		while (s > 1000) { s = s - 1000; }
	}
	return s & 0xff;
}`},
	{"memory", `int buf[256];
int main() {
	int i; int s; int *p;
	char line[64];
	for (i = 0; i < 256; i++) { buf[i] = i * 3; }
	s = 0;
	for (i = 0; i < 30000; i++) {
		p = &buf[i % 256];
		*p = *p + 1;
		s = s + buf[(i * 7) % 256];
		line[i % 64] = s;
		s = s + line[(i * 3) % 64];
	}
	return s & 0xff;
}`},
	{"printf", `extern int sprintf(char *buf, char *f, ...);
int main() {
	int i; int n;
	char buf[64];
	n = 0;
	for (i = 0; i < 5000; i++) {
		n = n + sprintf(buf, "%d %08x %-6d|%c", i, i * 7, i % 100, 'a' + i % 26);
	}
	return n & 0xff;
}`},
}

// dispatchMachine compiles a microbenchmark program into a reusable
// Machine on the given engine, warmed with one run so lazy allocations
// (memory arena, frame pools, printf buffers) are out of the way.
func dispatchMachine(tb testing.TB, src, engine string) (*interp.Machine, *interp.Env, *profile.RunStats) {
	tb.Helper()
	p, err := inlinec.Compile("micro.c", src)
	if err != nil {
		tb.Fatal(err)
	}
	env := interp.NewEnv()
	m, err := interp.NewMachine(p.Module, env, interp.Options{Engine: engine})
	if err != nil {
		tb.Fatal(err)
	}
	st := profile.NewRunStats()
	if err := m.RunInto(st); err != nil {
		tb.Fatal(err)
	}
	return m, env, st
}

// BenchmarkInterpDispatch is the dispatch microbenchmark suite: each cost
// center on each engine, reusing one Machine per sub-benchmark the way
// the profiling pipeline does. ReportAllocs makes the steady-state
// allocation behaviour part of the metric (the bytecode engine's is
// asserted zero by TestBytecodeDispatchZeroAlloc).
func BenchmarkInterpDispatch(b *testing.B) {
	for _, prog := range dispatchProgs {
		for _, engine := range []string{interp.EngineBytecode, interp.EngineSwitch} {
			b.Run(prog.name+"/"+engine, func(b *testing.B) {
				m, env, st := dispatchMachine(b, prog.src, engine)
				ilPerRun := st.IL
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					env.Reset()
					if err := m.RunInto(st); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(ilPerRun)*float64(b.N)/b.Elapsed().Seconds(), "IL/s")
			})
		}
	}
}

// BenchmarkLoad measures what a run on a fresh Machine pays, as every
// Program.Run and every profiling worker's first run does: NewMachine
// plus that first Run. The 150-function generated module enters part of
// its code on an empty input; funcptrs runs its first input in minimal
// profile mode, whose load also records each direct site's callee.
// -benchmem shows the load's bytes and allocations per op.
func BenchmarkLoad(b *testing.B) {
	gen, err := inlinec.Compile("gen150.c", testgen.Generate(1, testgen.Options{Funcs: 150}))
	if err != nil {
		b.Fatal(err)
	}
	fp := bench.Get("funcptrs")
	fpProg, err := fp.Compile()
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		p    *inlinec.Program
		in   inlinec.Input
		opts interp.Options
	}{
		{"testgen150", gen, inlinec.Input{}, interp.Options{}},
		{"funcptrs-minimal", fpProg, fp.Inputs[0], interp.Options{ProfileMode: interp.ProfileMinimal}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				env := interp.NewEnv()
				env.Stdin = c.in.Stdin
				for k, v := range c.in.Files {
					env.Files[k] = v
				}
				m, err := interp.NewMachine(c.p.Module, env, c.opts)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := m.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkInterpEspresso measures the full espresso benchmark — the
// suite's most dispatch-heavy program (tight cube-cover loops, high
// dynamic IL per call) — end to end through the public Run API on both
// engines.
func BenchmarkInterpEspresso(b *testing.B) {
	bm := bench.Get("espresso")
	for _, engine := range []string{interp.EngineBytecode, interp.EngineSwitch} {
		b.Run(engine, func(b *testing.B) {
			p, err := bm.Compile()
			if err != nil {
				b.Fatal(err)
			}
			p.Engine = engine
			var il int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := p.Run(bm.Inputs[0])
				if err != nil {
					b.Fatal(err)
				}
				il = out.Stats.IL
			}
			b.ReportMetric(float64(il)*float64(b.N)/b.Elapsed().Seconds(), "IL/s")
		})
	}
}

// TestBytecodeDispatchZeroAlloc pins the bytecode engine's steady-state
// contract: once a Machine is warm, a run performs zero heap allocations
// — frames, registers, memory, argument buffers, and the printf
// formatting path are all pooled.
func TestBytecodeDispatchZeroAlloc(t *testing.T) {
	for _, prog := range dispatchProgs {
		t.Run(prog.name, func(t *testing.T) {
			m, env, st := dispatchMachine(t, prog.src, interp.EngineBytecode)
			// A second warm run settles buffer growth high-water marks
			// (stdout, pooled formatters) before measuring.
			env.Reset()
			if err := m.RunInto(st); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(5, func() {
				env.Reset()
				if err := m.RunInto(st); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("steady-state run allocates %.1f objects/run, want 0", allocs)
			}
		})
	}
	profilingWorkerZeroAllocCases(t)
}

// profilingWorkerZeroAllocCases extends TestBytecodeDispatchZeroAlloc
// with the profiling worker's reuse contract in every instrumentation
// mode: refreshing a warm Env the way profileModule's workers do —
// Reset, clear and re-populate Files with the input's own slices
// (shared, never copied), swap Stdin — and re-running the machine
// performs zero steady-state heap allocations.
func profilingWorkerZeroAllocCases(t *testing.T) {
	const src = `extern int getchar();
int main() {
	int c; int n;
	n = 0;
	while ((c = getchar()) != -1) { n = n + c; }
	return n & 0xff;
}`
	files := map[string][]byte{"in.txt": []byte("shared input bytes\n")}
	stdin := []byte("profiling worker stdin")
	for _, mode := range []struct {
		name string
		opts interp.Options
	}{
		{"full", interp.Options{}},
		{"minimal", interp.Options{ProfileMode: interp.ProfileMinimal}},
		{"sampled", interp.Options{ProfileMode: interp.ProfileSampled, SampleRate: 8}},
	} {
		t.Run("worker/"+mode.name, func(t *testing.T) {
			p, err := inlinec.Compile("worker.c", src)
			if err != nil {
				t.Fatal(err)
			}
			opts := mode.opts
			opts.Engine = interp.EngineBytecode
			env := interp.NewEnv()
			m, err := interp.NewMachine(p.Module, env, opts)
			if err != nil {
				t.Fatal(err)
			}
			st := profile.NewRunStats()
			refresh := func() {
				env.Reset()
				clear(env.Files)
				for k, v := range files {
					env.Files[k] = v
				}
				env.Stdin = stdin
			}
			// Two warm runs settle lazily grown buffers before measuring.
			for i := 0; i < 2; i++ {
				refresh()
				if err := m.RunInto(st); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(5, func() {
				refresh()
				if err := m.RunInto(st); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("steady-state profiling run allocates %.1f objects/run, want 0", allocs)
			}
		})
	}
}

// BenchmarkProfileSuite measures the multi-run profiling pipeline (the
// paper's "average run-time statistics over many runs") on one benchmark
// at several parallelism levels.
func BenchmarkProfileSuite(b *testing.B) {
	bm := bench.Get("wc")
	for _, par := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("par%d", par), func(b *testing.B) {
			p, err := bm.Compile()
			if err != nil {
				b.Fatal(err)
			}
			p.Parallelism = par
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.ProfileInputs(bm.Inputs...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

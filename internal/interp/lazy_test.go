package interp

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"inlinec/internal/ir"
)

// translated returns the names of m's translated functions, sorted.
func translated(m *Machine) []string {
	var names []string
	for i := range m.bfuncs {
		if m.bfuncs[i].code != nil {
			names = append(names, m.bfuncs[i].fn.Name)
		}
	}
	sort.Strings(names)
	return names
}

const firstCallSrc = `extern int putchar(int c);
int never(int x) { return x * 3; }
int viaPtr(int x) { return x + 1; }
int direct(int x) { return x * 2; }
int main() {
    int (*fp)(int);
    fp = viaPtr;
    putchar('0' + direct(1) + fp(1));
    putchar(10);
    return 0;
}`

// TestTranslateOnFirstActivation pins when the bytecode engine
// translates: NewMachine translates nothing, and a run translates
// exactly the functions it enters, including one it reaches only
// through a function pointer.
func TestTranslateOnFirstActivation(t *testing.T) {
	mod := lowerOpt(t, firstCallSrc)
	m, err := NewMachine(mod, NewEnv(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := translated(m); len(got) != 0 {
		t.Fatalf("NewMachine translated %v, want nothing", got)
	}
	out, st, err := rerun(m, "")
	if err != nil || out != "4\n" {
		t.Fatalf("run: %q, %v; want \"4\\n\"", out, err)
	}
	var entered []string
	for _, f := range mod.Funcs {
		if st.FuncCounts[f.Name] > 0 {
			entered = append(entered, f.Name)
		}
	}
	sort.Strings(entered)
	want := []string{"direct", "main", "viaPtr"}
	if !reflect.DeepEqual(entered, want) {
		t.Fatalf("entered %v, want %v", entered, want)
	}
	if got := translated(m); !reflect.DeepEqual(got, want) {
		t.Errorf("translated %v after the run, want the entered functions %v", got, want)
	}
}

// dispatcherSrc reaches a different set of functions for each input
// byte: a chain of direct calls, a loop, a pointer call, or none.
const dispatcherSrc = `extern int getchar();
extern int putchar(int c);
int a1(int x) { return x + 1; }
int a2(int x) { return a1(x) * 2; }
int b1(int x) { int i; int s; s = 0; for (i = 0; i < x; i++) s += i; return s; }
int b2(int x) { return b1(x) - x; }
int c1(int x) { return x * x; }
int c2(int x) { int (*fp)(int); fp = c1; return fp(x) + 1; }
int main() {
    int c; int s;
    s = 0;
    while ((c = getchar()) != -1) {
        if (c == 'a') s += a2(s);
        else if (c == 'b') s += b2(7);
        else if (c == 'c') s += c2(3);
        else s += 1;
        putchar('0' + s % 10);
    }
    putchar(10);
    return s % 256;
}`

// TestLazyTranslationConcurrent runs one shared module on many machines
// at once, each translating the functions its input reaches: the
// outputs and RunStats must match a serial run, and the module must be
// left exactly as it was. Run it under -race.
func TestLazyTranslationConcurrent(t *testing.T) {
	mod := lowerOpt(t, dispatcherSrc)
	before := mod.String()
	inputs := []string{"", "a", "b", "c", "x", "abc", "cba", "ccbbaa"}
	want := make([]loanOutcome, len(inputs))
	for i, in := range inputs {
		want[i] = outcome(runOn(t, mod, in, Options{}))
	}

	const workers, iters = 8, 16
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// A machine of its own translates over several runs; the
			// others translate from scratch.
			reused, err := NewMachine(mod, NewEnv(), Options{})
			if err != nil {
				t.Error(err)
				return
			}
			for it := 0; it < iters; it++ {
				k := (g*5 + it) % len(inputs)
				var got loanOutcome
				if it%2 == 0 {
					got = outcome(runOn(t, mod, inputs[k], Options{}))
				} else {
					got = outcome(rerun(reused, inputs[k]))
				}
				if !reflect.DeepEqual(got, want[k]) {
					t.Errorf("goroutine %d input %q: got %+v, want %+v", g, inputs[k], got, want[k])
				}
			}
		}(g)
	}
	wg.Wait()
	if mod.String() != before {
		t.Error("running the module changed it")
	}
}

// fillerFunc is a function of about 100 IL instructions that nothing
// calls.
func fillerFunc(k int) string {
	return fmt.Sprintf(`int filler%d(int a, int b) {
    int s; int i; int t;
    s = a; t = b;
    for (i = 0; i < b; i++) {
        s = s * 3 + i;
        if (s > 1000) s = s - 999;
        t = t ^ (s << 2);
        if (t < 0) t = -t;
    }
    while (t > 10) { t = t / 2 + 1; s = s + t; }
    return s + t * %d;
}
`, k, k)
}

// TestUncalledFunctionsCostLittle pins what a function nothing calls
// adds to a single run on a fresh machine, the cost of every
// Program.Run: a slot in the load-time tables, not a translation.
// Translating every function at load added about 7.5 KiB for each of
// these.
func TestUncalledFunctionsCostLittle(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n = 100
	var fillers strings.Builder
	for k := 0; k < n; k++ {
		fillers.WriteString(fillerFunc(k))
	}
	base := lowerOpt(t, dispatcherSrc)
	big := lowerOpt(t, fillers.String()+dispatcherSrc)
	il := 0
	for _, f := range big.Funcs {
		if strings.HasPrefix(f.Name, "filler") {
			il += len(f.Code)
		}
	}
	if il < 80*n {
		t.Fatalf("the fillers have %d IL instructions, want about 100 each", il)
	}
	opts := Options{StackSize: 1 << 16, HeapSize: 1 << 16}
	loadAndRun := func(mod *ir.Module) uint64 {
		least := ^uint64(0)
		for i := 0; i < 5; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, _, err := runOn(t, mod, "abc", opts); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	loadAndRun(big) // warm the segment and translator pools
	per := (int64(loadAndRun(big)) - int64(loadAndRun(base))) / n
	t.Logf("%d IL per uncalled function, %d bytes each", il/n, per)
	if per > 1024 {
		t.Errorf("each uncalled function adds %d bytes to a run on a fresh machine, want at most 1 KiB", per)
	}
}

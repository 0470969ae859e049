package interp

import (
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"inlinec/internal/ir"
	"inlinec/internal/irgen"
	"inlinec/internal/parser"
	"inlinec/internal/profile"
	"inlinec/internal/sema"
)

// dirtierSrc stores non-zero bytes across heap, stack and globals, then
// ends the run from 40 frames deep in the way its stdin selects: 'x'
// calls exit(3), 'f' faults on a NULL load, anything else loops until
// the instruction budget trips. Its first statements check that the
// globals came back to their initial values, the zero-initialized array
// included. Just before it ends the
// run it calls loanprobe, which records the lent pair (see below).
const dirtierSrc = `
extern int malloc(int n);
extern char *memset(char *d, int c, int n);
extern int getchar();
extern int exit(int code);
extern int loanprobe();
int g[64];
int gi = 5;
int finish() {
    int mode; int *np;
    loanprobe();
    mode = getchar();
    if (mode == 'x') exit(3);
    if (mode == 'f') { np = 0; return *np; }
    for (;;) ;
    return 0;
}
int fill(int depth) {
    char buf[512];
    memset(buf, 90, 512);
    if (depth == 0) return finish();
    return fill(depth - 1) + buf[depth];
}
int main() {
    char *h; int i;
    if (gi != 5) return 1;
    for (i = 0; i < 64; i++) if (g[i] != 0) return 2;
    h = (char *)malloc(65536);
    memset(h, 77, 65536);
    for (i = 0; i < 64; i++) g[i] = i + 1;
    gi = 99;
    return fill(40);
}
`

// loanSight is what loanprobe saw of a machine's lent pair: the pair
// itself and how far the run had dirtied it.
type loanSight struct {
	pair                  *segments
	dirtyStack, dirtyHeap int64
}

// loanSights maps each machine that called loanprobe to its last sight.
// Machines run concurrently in TestSegmentLoanConcurrent, hence the lock.
var loanSights struct {
	sync.Mutex
	by map[*Machine]loanSight
}

// loanprobe is an extern only the tests register: it watches the pair
// while it is lent, on whichever engine the machine runs.
func init() {
	loanSights.by = make(map[*Machine]loanSight)
	Externs["loanprobe"] = func(m *Machine, _ []int64) (int64, error) {
		loanSights.Lock()
		loanSights.by[m] = loanSight{m.mem.loan, m.mem.dirtyStack, m.mem.dirtyHeap}
		loanSights.Unlock()
		return 0, nil
	}
}

// readerSrc is a different module that exits 42 only if its globals
// hold their initial values, its first malloc'ed 64 KiB reads zero, and
// the 32 KiB of stack above its own frame — where dirtierSrc's frames
// were — reads zero too.
const readerSrc = `
extern int malloc(int n);
int seven = 7;
int zeros[64];
int main() {
    char a[16]; int *p; int i;
    if (seven != 7) return 1;
    for (i = 0; i < 64; i++) if (zeros[i] != 0) return 2;
    p = (int *)malloc(65536);
    for (i = 0; i < 8192; i++) if (p[i] != 0) return 3;
    p = (int *)(a + 256);
    for (i = 0; i < 4096; i++) if (p[i] != 0) return 4;
    return 42;
}
`

// loanOpts keeps the lent segments small so the tests can scan them.
var loanOpts = Options{StackSize: 1 << 16, HeapSize: 1 << 20, MaxIL: 1 << 20}

var engines = []string{EngineBytecode, EngineSwitch}

func lowerSrc(t *testing.T, src string) *ir.Module {
	t.Helper()
	file, err := parser.Parse("t.c", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog, err := sema.Check(file)
	if err != nil {
		t.Fatalf("sema: %v", err)
	}
	mod, err := irgen.Generate(prog)
	if err != nil {
		t.Fatalf("irgen: %v", err)
	}
	return mod
}

// runOn runs mod once on a fresh machine, as Program.Run does.
func runOn(t *testing.T, mod *ir.Module, stdin string, opts Options) (string, *profile.RunStats, error) {
	m, err := NewMachine(mod, NewEnv(), opts)
	if err != nil {
		t.Errorf("machine: %v", err)
		return "", nil, err
	}
	return rerun(m, stdin)
}

// rerun runs m once more in a fresh environment reading stdin.
func rerun(m *Machine, stdin string) (string, *profile.RunStats, error) {
	env := NewEnv()
	env.Stdin = []byte(stdin)
	m.SetEnv(env)
	st, err := m.Run()
	return env.Stdout.String(), st, err
}

func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// TestLoanCleanAfterAnyExit pins the loan contract: however a run ends
// (exit(), a fault, or a budget trip, each with 41 frames pending), the
// pair it borrowed goes back all zero, and a different module run next
// sees zero heap and stack and its own initial globals. Re-running the
// dirtying machine must see its initial globals again.
func TestLoanCleanAfterAnyExit(t *testing.T) {
	dirtier, reader := lowerSrc(t, dirtierSrc), lowerSrc(t, readerSrc)
	exits := []struct{ stdin, want string }{
		{"x", ""},
		{"f", "memory fault"},
		{"b", "instruction budget exceeded"},
	}
	for _, engine := range engines {
		for _, ex := range exits {
			t.Run(engine+"/"+ex.stdin, func(t *testing.T) {
				opts := loanOpts
				opts.Engine = engine
				m, err := NewMachine(dirtier, NewEnv(), opts)
				if err != nil {
					t.Fatal(err)
				}
				if m.Engine() != engine {
					t.Fatalf("machine runs on %s, want %s", m.Engine(), engine)
				}
				check := func(run int) {
					loanSights.Lock()
					delete(loanSights.by, m)
					loanSights.Unlock()
					_, st, err := rerun(m, ex.stdin)
					if ex.want == "" {
						if err != nil || st.ExitCode != 3 || st.Truncated != 1 {
							t.Fatalf("run %d: exit %d truncated %d err %v, want exit(3)", run, st.ExitCode, st.Truncated, err)
						}
					} else if err == nil || !strings.Contains(err.Error(), ex.want) {
						t.Fatalf("run %d: err = %v, want %q", run, err, ex.want)
					}
					loanSights.Lock()
					seen, ok := loanSights.by[m]
					loanSights.Unlock()
					if !ok {
						t.Fatalf("run %d never called loanprobe", run)
					}
					if seen.dirtyHeap < 65536 || seen.dirtyStack < 40*512 {
						t.Fatalf("run %d dirtied only %d heap and %d stack bytes", run, seen.dirtyHeap, seen.dirtyStack)
					}
					if pair := seen.pair; pair.lent.Load() || !allZero(pair.stack) || !allZero(pair.heap) {
						t.Fatalf("run %d released its pair still lent or not all zero", run)
					}
				}
				check(1)
				if _, st, err := runOn(t, reader, "", loanOpts); err != nil {
					t.Fatalf("reader after the dirtier: %v", err)
				} else if st.ExitCode != 42 {
					t.Fatalf("reader after the dirtier: exit %d, want 42", st.ExitCode)
				}
				check(2)
			})
		}
	}
}

// loanOutcome is what one run shows the caller.
type loanOutcome struct {
	stdout, err string
	stats       *profile.RunStats
}

func outcome(stdout string, st *profile.RunStats, err error) loanOutcome {
	o := loanOutcome{stdout: stdout, stats: st}
	if err != nil {
		o.err = err.Error()
	}
	return o
}

// TestSegmentLoanConcurrent runs different modules from eight goroutines
// at once and requires every output and RunStats to match a serial run
// of the same case. Each goroutine alternates fresh machines with one
// machine of its own, so pairs pass between machines both through the
// pool and by a machine taking its previous pair back; half of the
// goroutines use a heap size the other half's pairs do not fit.
func TestSegmentLoanConcurrent(t *testing.T) {
	type loanCase struct {
		mod           *ir.Module
		stdin, engine string
	}
	mods := []struct {
		mod   *ir.Module
		stdin string
	}{
		{lowerSrc(t, dirtierSrc), "x"},
		{lowerSrc(t, dirtierSrc), "f"},
		{lowerSrc(t, dirtierSrc), "b"},
		{lowerSrc(t, readerSrc), ""},
		{lowerSrc(t, dispatchSrc), ""},
	}
	var cases []loanCase
	for _, engine := range engines {
		for _, c := range mods {
			cases = append(cases, loanCase{c.mod, c.stdin, engine})
		}
	}
	optsFor := func(c loanCase, heapSize int) Options {
		opts := loanOpts
		opts.Engine, opts.HeapSize = c.engine, heapSize
		return opts
	}
	want := make([]loanOutcome, len(cases))
	for i, c := range cases {
		want[i] = outcome(runOn(t, c.mod, c.stdin, optsFor(c, loanOpts.HeapSize)))
	}

	const workers, iters = 8, 12
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			heapSize := loanOpts.HeapSize << (g % 2)
			own := g % len(cases)
			reused, err := NewMachine(cases[own].mod, NewEnv(), optsFor(cases[own], heapSize))
			if err != nil {
				t.Error(err)
				return
			}
			for it := 0; it < iters; it++ {
				k := (g*3 + it) % len(cases)
				var got loanOutcome
				if it%2 == 0 {
					got = outcome(runOn(t, cases[k].mod, cases[k].stdin, optsFor(cases[k], heapSize)))
				} else {
					k = own
					got = outcome(rerun(reused, cases[k].stdin))
				}
				if !reflect.DeepEqual(got, want[k]) {
					t.Errorf("goroutine %d case %d: got %+v, want %+v", g, k, got, want[k])
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestWarmRunAllocation pins the point of the loan: once the pool holds
// a pair, a run on a fresh machine with the default 68 MB of segments —
// what Program.Run does on every call — allocates well under 1 MB. It
// runs on one P: sync.Pool never steals another P's private slot, so a
// goroutine that changes Ps between runs (as it may at the stop-the-world
// in ReadMemStats) can miss a pooled pair and make a fresh one.
func TestWarmRunAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	mod := lowerSrc(t, dispatchSrc)
	for _, engine := range engines {
		t.Run(engine, func(t *testing.T) {
			opts := Options{Engine: engine}
			runOn(t, mod, "", opts) // warm the pool
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, _, err := runOn(t, mod, "", opts); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
				t.Errorf("warm run allocated %d bytes, want < 1 MiB", n)
			}
		})
	}
}

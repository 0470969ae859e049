package inlinec_test

// Randomized crash-consistency suite for the chaos-hardened profile
// store. Each seed drives one schedule: a crash-safe profdb store on an
// in-memory filesystem takes ingest traffic while a fault injector
// breaks writes, fsyncs, and renames, and the "machine" is crashed
// (with torn unsynced tails) between episodes. After every recovery
// three properties must hold:
//
//  1. the store loads — no sequence of faults may brick it;
//  2. per (fingerprint, generation): acked runs <= recovered runs <=
//     attempted runs — an acknowledged ingest is never lost, and no
//     record is ever double-counted past what was sent;
//  3. a compile driven by the recovered database produces the same
//     inline decisions and the same rewritten module as in-process
//     profiling — duplicated snapshots only scale runs and totals
//     proportionally, so per-run weights (and every decision made from
//     them) are invariant.
//
// The companion test in cmd/ilprofd kills the real daemon process with
// SIGKILL mid-ingest; this one covers hundreds of schedules cheaply.

import (
	"fmt"
	"math/rand"
	"testing"

	"inlinec"
	"inlinec/internal/chaos"
	"inlinec/internal/profdb"
)

// chaosSrc is small enough to compile hundreds of times yet call-heavy
// enough that inline decisions are non-trivial. Every arc above the
// inline threshold carries a DISTINCT weight (50, 31, 13, 7, 6): the
// recovered database scales all counts by the number of ingested
// copies, and distinct weights keep the decision ordering immune to
// the merge's integer rounding.
const chaosSrc = `
extern int printf(char *fmt, ...);

int square(int x) { return x * x; }
int twice(int x) { return x + x; }
int combine(int a, int b) {
    if (a / 2 * 2 == a) return twice(b);
    return square(a);
}
int fact(int n) { if (n <= 1) return 1; return n * fact(n - 1); }
int apply(int (*f)(int), int v) { return f(v); }

int main() {
    int i; int sum;
    sum = 0;
    for (i = 0; i < 50; i++) sum += square(i);
    for (i = 0; i < 31; i++) sum += twice(i);
    for (i = 0; i < 13; i++) sum += combine(i, i + 2);
    sum += fact(6);
    sum += apply(twice, sum);
    printf("%d\n", sum);
    return 0;
}
`

// chaosReference holds the shared fault-free baseline artifacts.
type chaosReference struct {
	fp        string
	rec       *profdb.Record // one profiled run, gen 0
	decoy     *profdb.Record // second fingerprint exercising multi-key paths
	decisions string
	module    string
}

func buildChaosReference(t *testing.T) *chaosReference {
	t.Helper()
	prog, err := inlinec.Compile("chaos.c", chaosSrc)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := prog.ProfileInputs(inlinec.Input{})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := prog.Snapshot(prof, 0)
	if err != nil {
		t.Fatal(err)
	}
	decoy := *rec
	decoy.Fingerprint = "00decoy" + rec.Fingerprint[:8]

	res, err := prog.Inline(prof, inlinec.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return &chaosReference{
		fp:        rec.Fingerprint,
		rec:       rec,
		decoy:     &decoy,
		decisions: decisionList(res),
		module:    prog.Module.String(),
	}
}

func TestChaosCrashConsistency(t *testing.T) {
	seeds := 220
	if testing.Short() {
		seeds = 20
	}
	ref := buildChaosReference(t)

	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%03d", seed), func(t *testing.T) {
			t.Parallel()
			runChaosSchedule(t, int64(seed), ref)
		})
	}
}

func runChaosSchedule(t *testing.T, seed int64, ref *chaosReference) {
	rng := rand.New(rand.NewSource(seed))
	m := chaos.NewMemFS()
	inj := chaos.NewInjector(m, chaos.Config{
		Seed:       seed*101 + 7,
		WriteErr:   0.06,
		SyncErr:    0.06,
		RenameErr:  0.03,
		TornRename: 0.04,
		OpenErr:    0.02,
	})
	const dbPath = "fleet/p.profdb"

	// Per (fingerprint, gen): runs known-durable vs. runs ever sent.
	acked := map[profdb.RecordKey]int{}
	attempted := map[profdb.RecordKey]int{}
	checkInvariants := func(s *profdb.Store, when string) {
		for k, want := range acked {
			got := 0
			if r, ok := s.DB().Records[k]; ok {
				got = r.Runs
			}
			if got < want {
				t.Fatalf("%s: %v recovered %d run(s), below %d acked — acked data lost", when, k, got, want)
			}
		}
		for k, r := range s.DB().Records {
			if r.Runs > attempted[k] {
				t.Fatalf("%s: %v recovered %d run(s), above %d attempted — double count", when, k, r.Runs, attempted[k])
			}
		}
	}

	episodes := 2 + rng.Intn(2)
	for ep := 0; ep < episodes; ep++ {
		inj.SetEnabled(false) // recovery itself always runs on healthy hardware
		s, _, err := profdb.Open(inj, dbPath, "chaos.c")
		if err != nil {
			t.Fatalf("episode %d: recovery failed: %v", ep, err)
		}
		checkInvariants(s, fmt.Sprintf("episode %d", ep))

		inj.SetEnabled(true)
		ops := 4 + rng.Intn(10)
		for i := 0; i < ops; i++ {
			switch rng.Intn(8) {
			case 0:
				s.Flush() // may fail under injection; never corrupts
			default:
				rec := *ref.rec
				if rng.Intn(3) == 0 {
					rec = *ref.decoy
				}
				k := profdb.RecordKey{Fingerprint: rec.Fingerprint, Gen: rec.Gen}
				attempted[k] += rec.Runs
				if err := s.Ingest("chaos.c", &rec); err == nil {
					acked[k] += rec.Runs
				}
			}
		}
		// kill -9: unsynced state is torn away, possibly mid-byte.
		m.Crash(rand.New(rand.NewSource(seed*17 + int64(ep))))
	}

	// Final recovery on healthy hardware.
	inj.SetEnabled(false)
	s, _, err := profdb.Open(inj, dbPath, "chaos.c")
	if err != nil {
		t.Fatalf("final recovery failed: %v", err)
	}
	checkInvariants(s, "final")

	// Compile identity: if anything for the real fingerprint survived,
	// a database-driven compile must match in-process profiling bit for
	// bit in its decisions and its rewritten module.
	mainKey := profdb.RecordKey{Fingerprint: ref.fp, Gen: 0}
	if r, ok := s.DB().Records[mainKey]; ok && r.Runs > 0 {
		prog, err := inlinec.Compile("chaos.c", chaosSrc)
		if err != nil {
			t.Fatal(err)
		}
		// StaleWeight 0 keeps the decoy fingerprint out of the merge, so
		// the recovered profile is an exact integer multiple of the
		// reference — per-run weights, and hence every decision line,
		// match bit for bit.
		params := inlinec.DefaultProfDBMergeParams()
		params.StaleWeight = 0
		prof, _ := prog.ProfileFromDB(s.DB(), params)
		if prof.Runs == 0 {
			t.Fatal("recovered database served an empty profile for its own fingerprint")
		}
		res, err := prog.Inline(prof, inlinec.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		if got := decisionList(res); got != ref.decisions {
			t.Errorf("decision list diverged after %d recovered run(s):\n--- reference ---\n%s--- recovered db ---\n%s",
				r.Runs, ref.decisions, got)
		}
		if prog.Module.String() != ref.module {
			t.Error("inlined module diverged from the in-process reference")
		}
	}
}

package inlinec_test

// Randomized crash-consistency suite for the ingestion daemon, seen
// from the fleet of profiling machines that feed it. Each seed drives
// one schedule against a real ilprofd process whose store runs under
// -chaos-fs fault injection: three machines post snapshots over
// faulty links (connection resets before and after delivery,
// timeouts, 503s), while the schedule SIGKILLs the daemon mid-episode
// and at the end of every episode, restarting it so recovery replays
// the WAL each time. After a final fault-free restart three properties
// must hold:
//
//  1. per (fingerprint, generation): acked <= recovered <= attempted.
//     The daemon acks only after its WAL is durable, so a SIGKILL never
//     loses an acknowledged run; and the clients' at-most-once POST
//     policy means no record ever exceeds what was sent, even though
//     some snapshots reached the daemon without the machine learning it.
//  2. the daemon serves what it stored: /profile for the program's
//     fingerprint reports exactly the recovered runs.
//  3. compile identity: a compile driven by the served profile — the
//     ilcc -profdb <URL> path — makes the same inline decisions and
//     produces the same rewritten module as in-process profiling.
//
// chaos_test.go covers the store itself over hundreds of simulated
// torn-filesystem crashes; this suite adds the HTTP protocol, the
// client retry policy, and real process kills around it.

import (
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"inlinec"
	"inlinec/internal/chaos"
	"inlinec/internal/profdb"
)

const fleetChaosMachines = 3

func TestFleetChaosCrashConsistency(t *testing.T) {
	seeds := 220
	if testing.Short() {
		seeds = 16
	}
	ref := buildChaosReference(t)
	bin := filepath.Join(t.TempDir(), "ilprofd-under-test")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/ilprofd").CombinedOutput(); err != nil {
		t.Fatalf("building daemon: %v\n%s", err, out)
	}

	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%03d", seed), func(t *testing.T) {
			t.Parallel()
			runFleetChaosSchedule(t, bin, int64(seed), ref)
		})
	}
}

// fleetHarness is one schedule's daemon plus the machines posting to
// it. Each machine keeps its own seeded faulty link across daemon
// restarts; only the daemon address changes.
type fleetHarness struct {
	t      *testing.T
	bin    string
	dbPath string
	proc   *chaos.Proc
	addr   string
	base   *http.Transport
	links  []*chaos.RoundTripper
}

func newFleetHarness(t *testing.T, bin string, seed int64) *fleetHarness {
	f := &fleetHarness{
		t:      t,
		bin:    bin,
		dbPath: filepath.Join(t.TempDir(), "p.profdb"),
		base:   &http.Transport{},
	}
	for i := 0; i < fleetChaosMachines; i++ {
		link := chaos.NewRoundTripper(f.base, chaos.HTTPConfig{
			Seed:      seed*131 + int64(i)*17 + 3,
			Reset:     0.06,
			Timeout:   0.03,
			ServerErr: 0.06,
		})
		// Machine 0's resets strike after the daemon got the snapshot:
		// the ambiguous case a blind retry would double-count.
		link.AfterSend = i == 0
		f.links = append(f.links, link)
	}
	t.Cleanup(func() {
		if f.proc != nil {
			f.proc.Kill9()
			f.proc.Wait()
		}
		f.base.CloseIdleConnections()
	})
	return f
}

// start launches the daemon over the schedule's database. A non-empty
// chaosSpec runs the store under fault injection after recovery, which
// itself always runs on healthy hardware.
func (f *fleetHarness) start(chaosSpec string) {
	args := []string{"-addr", "127.0.0.1:0", "-db", f.dbPath, "-flush-every", "2"}
	if chaosSpec != "" {
		args = append(args, "-chaos-fs", chaosSpec)
	}
	proc, addr, err := chaos.StartProc(exec.Command(f.bin, args...), "listening on ", 10*time.Second)
	if err != nil {
		f.t.Fatal(err)
	}
	f.proc, f.addr = proc, addr
}

// kill is SIGKILL: no handlers, no final flush.
func (f *fleetHarness) kill() {
	if err := f.proc.Kill9(); err != nil {
		f.t.Fatalf("kill: %v", err)
	}
	f.proc.Wait()
	f.proc = nil
}

// machine returns a client posting over machine i's faulty link.
func (f *fleetHarness) machine(i int) *profdb.Client {
	c := profdb.NewClient("http://" + f.addr)
	c.HTTP = &http.Client{Transport: f.links[i], Timeout: 5 * time.Second}
	c.Attempts = 3
	c.Backoff = time.Microsecond
	c.MaxBackoff = 10 * time.Microsecond
	return c
}

func runFleetChaosSchedule(t *testing.T, bin string, seed int64, ref *chaosReference) {
	rng := rand.New(rand.NewSource(seed))
	f := newFleetHarness(t, bin, seed)

	// Per (fingerprint, gen): runs the daemon acked vs. runs ever sent.
	acked := map[profdb.RecordKey]int{}
	attempted := map[profdb.RecordKey]int{}

	starts := 0
	chaosSpec := func() string {
		starts++
		return fmt.Sprintf("seed=%d,write=0.04,sync=0.04,rename=0.02,torn=0.02,open=0.01", seed*101+int64(starts))
	}

	episodes := 2 + rng.Intn(2)
	for ep := 0; ep < episodes; ep++ {
		f.start(chaosSpec())
		ops := 4 + rng.Intn(8)
		for op := 0; op < ops; op++ {
			switch rng.Intn(10) {
			case 0: // SIGKILL mid-episode, then recover
				f.kill()
				f.start(chaosSpec())
			default: // one machine posts a profiled run
				rec := *ref.rec
				if rng.Intn(3) == 0 {
					rec = *ref.decoy
				}
				k := profdb.RecordKey{Fingerprint: rec.Fingerprint, Gen: rec.Gen}
				attempted[k] += rec.Runs
				if _, err := f.machine(rng.Intn(fleetChaosMachines)).PostSnapshot("chaos.c", &rec); err == nil {
					acked[k] += rec.Runs
				}
			}
		}
		// End of episode: the daemon dies without a final flush.
		f.kill()
	}

	// Final recovery on healthy hardware, over a fault-free link.
	f.start("")
	mainKey := profdb.RecordKey{Fingerprint: ref.fp, Gen: 0}
	served := 0
	_, merged, err := profdb.NewClient("http://"+f.addr).FetchProfile(ref.fp, url.Values{"stale": {"0"}})
	var he *profdb.HTTPError
	switch {
	case err == nil:
		served = merged.Runs
	case errors.As(err, &he) && he.StatusCode == http.StatusNotFound:
		// Nothing for the program's fingerprint survived.
	default:
		t.Fatalf("/profile after recovery: %v", err)
	}
	if err := f.proc.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := f.proc.Wait(); err != nil {
		t.Fatalf("graceful shutdown exited with %v; stderr:\n%s", err, f.proc.Output())
	}
	f.proc = nil

	// Property 1: the durable database holds exactly the truth.
	store, recovery, err := profdb.Open(chaos.OSFS{}, f.dbPath, "")
	if err != nil {
		t.Fatalf("store failed to load after the schedule: %v (recovery: %s)", err, recovery)
	}
	for k, want := range acked {
		got := 0
		if r, ok := store.DB().Records[k]; ok {
			got = r.Runs
		}
		if got < want {
			t.Fatalf("%v: recovered %d run(s), below %d acked — SIGKILL lost acknowledged data", k, got, want)
		}
	}
	for k, r := range store.DB().Records {
		if r.Runs > attempted[k] {
			t.Fatalf("%v: recovered %d run(s), above %d attempted — double count", k, r.Runs, attempted[k])
		}
	}

	// Property 2: /profile served the recovered runs, no more, no less.
	stored := 0
	if r, ok := store.DB().Records[mainKey]; ok {
		stored = r.Runs
	}
	if served != stored {
		t.Fatalf("/profile served %d run(s) for %s, the store holds %d", served, ref.fp, stored)
	}
	t.Logf("%s: %d acked <= %d recovered <= %d attempted run(s); final recovery: %s",
		ref.fp, acked[mainKey], stored, attempted[mainKey], recovery)

	// Property 3: compile identity from the served profile. StaleWeight
	// 0 (the stale=0 query) keeps the decoy fingerprint out of the merge,
	// so the profile is an exact integer multiple of the reference and
	// decisions match bit for bit.
	if served == 0 {
		return
	}
	prog, err := inlinec.Compile("chaos.c", chaosSrc)
	if err != nil {
		t.Fatal(err)
	}
	prof, _ := merged.Resolve(profdb.ModuleKeys(prog.Module))
	if prof.Runs == 0 {
		t.Fatal("daemon served an empty profile for its own fingerprint")
	}
	res, err := prog.Inline(prof, inlinec.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if got := decisionList(res); got != ref.decisions {
		t.Errorf("decision list diverged after %d recovered run(s):\n--- reference ---\n%s--- daemon profile ---\n%s",
			served, ref.decisions, got)
	}
	if prog.Module.String() != ref.module {
		t.Error("inlined module diverged from the in-process reference")
	}
}

package inlinec_test

// End-to-end acceptance for the persistent profile database: espresso
// profiling runs flow into a profdb (offline and over ilprofd's HTTP
// protocol), the compiler consumes the merged database, and the inline
// decision list and rewritten module come out byte-identical to
// in-process profiling. A second scenario edits the source so every raw
// call-site id shifts, and checks the staleness machinery reports — and
// never misapplies — the old records.

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"inlinec"
	"inlinec/internal/bench"
	"inlinec/internal/profdb"
)

// decisionList renders an inline result as a deterministic byte string:
// the expansion order plus every decision line.
func decisionList(res *inlinec.Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "order %s\n", strings.Join(res.Order, " "))
	for _, d := range res.Decisions {
		fmt.Fprintf(&sb, "%v\n", d)
	}
	return sb.String()
}

func TestE2EDatabaseMatchesInProcessProfiling(t *testing.T) {
	b := bench.Get("espresso")
	if b == nil {
		t.Fatal("espresso benchmark missing")
	}
	inputs := b.Inputs[:4]

	// Reference pipeline: profile in-process, inline directly.
	ref, err := b.Compile()
	if err != nil {
		t.Fatal(err)
	}
	prof, err := ref.ProfileInputs(inputs...)
	if err != nil {
		t.Fatal(err)
	}

	// Snapshot before inlining — Inline rewrites the module in place, and
	// the snapshot must be keyed against the module the profile measured.
	db := inlinec.NewProfDB("espresso.c")
	rec, err := ref.Snapshot(prof, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Ingest(rec); err != nil {
		t.Fatal(err)
	}
	refFP := ref.Fingerprint()

	refRes, err := ref.Inline(prof, inlinec.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}

	dbProg, err := b.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if dbProg.Fingerprint() != refFP {
		t.Fatal("recompiling the same source changed the module fingerprint")
	}
	dbProf, report := dbProg.ProfileFromDB(db, inlinec.DefaultProfDBMergeParams())
	if !report.Clean() {
		t.Fatalf("same-version consumption must be clean:\n%s", report)
	}

	// The resolved profile must be byte-identical to the in-process one...
	var want, got strings.Builder
	if _, err := prof.WriteTo(&want); err != nil {
		t.Fatal(err)
	}
	if _, err := dbProf.WriteTo(&got); err != nil {
		t.Fatal(err)
	}
	if want.String() != got.String() {
		t.Fatalf("database round trip changed the profile:\n--- in-process ---\n%s--- via db ---\n%s",
			want.String(), got.String())
	}

	// ...and so must the decision list and the rewritten module.
	dbRes, err := dbProg.Inline(dbProf, inlinec.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if decisionList(refRes) != decisionList(dbRes) {
		t.Errorf("decision lists differ:\n--- in-process ---\n%s--- via db ---\n%s",
			decisionList(refRes), decisionList(dbRes))
	}
	if ref.Module.String() != dbProg.Module.String() {
		t.Error("inlined modules differ between in-process and database profiles")
	}
}

// TestE2EMinimalModeDatabaseMatchesFull closes the loop on reduced-mode
// profiling: profiles collected in minimal mode flow through snapshot,
// database ingest, and merged resolution, and the database-driven
// compile is byte-identical — profile, decision list, and rewritten
// module — to in-process full-mode profiling. Reconstruction exactness
// composes with the whole database pipeline, not just with Profile.Add.
func TestE2EMinimalModeDatabaseMatchesFull(t *testing.T) {
	b := bench.Get("espresso")
	if b == nil {
		t.Fatal("espresso benchmark missing")
	}
	inputs := b.Inputs[:4]

	// Reference: in-process, full instrumentation.
	ref, err := b.Compile()
	if err != nil {
		t.Fatal(err)
	}
	refProf, err := ref.ProfileInputs(inputs...)
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := ref.Inline(refProf, inlinec.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}

	// Collector: minimal instrumentation, published through the database.
	coll, err := b.Compile()
	if err != nil {
		t.Fatal(err)
	}
	coll.ProfileMode = "minimal"
	collProf, err := coll.ProfileInputs(inputs...)
	if err != nil {
		t.Fatal(err)
	}
	if collProf.ProfileEvents >= refProf.ProfileEvents {
		t.Errorf("minimal mode performed %d profiling events, full %d — no reduction",
			collProf.ProfileEvents, refProf.ProfileEvents)
	}
	db := inlinec.NewProfDB("espresso.c")
	rec, err := coll.Snapshot(collProf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rec.SampleRate != 0 {
		t.Errorf("minimal-mode snapshot carries sample rate %d, want 0 (exact)", rec.SampleRate)
	}
	if err := db.Ingest(rec); err != nil {
		t.Fatal(err)
	}

	// Consumer: fresh compile, database profile, inline.
	cons, err := b.Compile()
	if err != nil {
		t.Fatal(err)
	}
	consProf, report := cons.ProfileFromDB(db, inlinec.DefaultProfDBMergeParams())
	if !report.Clean() {
		t.Fatalf("same-version consumption must be clean:\n%s", report)
	}
	var want, got strings.Builder
	if _, err := refProf.WriteTo(&want); err != nil {
		t.Fatal(err)
	}
	if _, err := consProf.WriteTo(&got); err != nil {
		t.Fatal(err)
	}
	if want.String() != got.String() {
		t.Fatalf("minimal-mode database profile differs from full in-process profile:\n--- full ---\n%s--- minimal via db ---\n%s",
			want.String(), got.String())
	}
	consRes, err := cons.Inline(consProf, inlinec.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if decisionList(refRes) != decisionList(consRes) {
		t.Errorf("decision lists differ:\n--- full ---\n%s--- minimal via db ---\n%s",
			decisionList(refRes), decisionList(consRes))
	}
	if ref.Module.String() != cons.Module.String() {
		t.Error("inlined modules differ between full in-process and minimal database profiles")
	}
}

func TestE2EStaleDatabaseAfterSourceEdit(t *testing.T) {
	b := bench.Get("espresso")
	if b == nil {
		t.Fatal("espresso benchmark missing")
	}
	inputs := b.Inputs[:2]

	v1, err := b.Compile()
	if err != nil {
		t.Fatal(err)
	}
	prof, err := v1.ProfileInputs(inputs...)
	if err != nil {
		t.Fatal(err)
	}
	db := inlinec.NewProfDB("espresso.c")
	rec, err := v1.Snapshot(prof, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Ingest(rec); err != nil {
		t.Fatal(err)
	}

	// Prepend a function: every raw call-site id in the module shifts, the
	// exact failure mode that silently corrupts id-keyed profiles.
	edited := "int profdb_e2e_pad(int x) { return x + 1; }\n" + b.Source
	v2, err := inlinec.Compile("espresso.c", edited)
	if err != nil {
		t.Fatal(err)
	}
	if v2.Fingerprint() == v1.Fingerprint() {
		t.Fatal("source edit did not change the module fingerprint")
	}

	params := inlinec.DefaultProfDBMergeParams()
	params.StaleWeight = 1 // keep full weight so surviving arcs are comparable
	v2prof, report := v2.ProfileFromDB(db, params)
	if report.Clean() {
		t.Fatal("consuming v1 records on v2 must be reported as stale")
	}
	if report.Merge.StaleRecords != 1 || report.Merge.ExactRecords != 0 {
		t.Fatalf("merge stats: %+v", report.Merge)
	}
	if report.Resolve.ExactSites != 0 {
		t.Errorf("no site kept its position, yet %d reported exact", report.Resolve.ExactSites)
	}
	if report.Resolve.MovedSites == 0 {
		t.Error("name-stable sites must survive the id shift as moved")
	}

	// No weight may leak onto the inserted function's sites, and every
	// surviving arc must connect the same (caller, callee) names as in v1.
	g := v2.CallGraph(v2prof)
	keysV2 := profdb.ModuleKeys(v2.Module)
	for id := range v2prof.SiteCounts {
		k, ok := keysV2.Key(id)
		if !ok {
			t.Fatalf("profile references unknown site id %d", id)
		}
		if k.Caller == "profdb_e2e_pad" || k.Callee == "profdb_e2e_pad" {
			t.Errorf("weight misattributed to the inserted function: site %v", k)
		}
		if a := g.Arc(id); a != nil && a.Caller.Name != k.Caller {
			t.Errorf("arc %d caller %s does not match stable key %v", id, a.Caller.Name, k)
		}
	}

	// The surviving weights still drive inlining on the edited program.
	res, err := v2.Inline(v2prof, inlinec.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Expanded) == 0 {
		t.Error("no expansions from the migrated profile")
	}
}

// TestE2EHybridAppendEditKeepsExactDecisions covers the hybrid profile
// mode's core contract: after a source edit that leaves every recorded
// call site in place (appending a function), fingerprint resolution
// reports the surviving sites exact, the hybrid profile keeps their
// measured weights bit-for-bit, and the inline decisions at those sites
// are identical — arc by arc — to measured mode. The compile stays
// deterministic and byte-identical at Parallelism 1, 2, and 8 on both
// engines.
func TestE2EHybridAppendEditKeepsExactDecisions(t *testing.T) {
	b := bench.Get("espresso")
	if b == nil {
		t.Fatal("espresso benchmark missing")
	}
	inputs := b.Inputs[:4]

	// v1: measured profile into the database.
	v1, err := b.Compile()
	if err != nil {
		t.Fatal(err)
	}
	prof, err := v1.ProfileInputs(inputs...)
	if err != nil {
		t.Fatal(err)
	}
	db := inlinec.NewProfDB("espresso.c")
	rec, err := v1.Snapshot(prof, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Ingest(rec); err != nil {
		t.Fatal(err)
	}

	// v2: appended function — fingerprint changes, site ids do not.
	edited := b.Source + "\nint hybrid_e2e_pad(int x) { return x * 2 + 1; }\n"
	compileV2 := func() *inlinec.Program {
		t.Helper()
		p, err := inlinec.Compile("espresso.c", edited)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	v2 := compileV2()
	if v2.Fingerprint() == v1.Fingerprint() {
		t.Fatal("source edit did not change the module fingerprint")
	}

	// Measured-mode reference on v2 (the appended function is dead code,
	// so its measured behavior matches v1's weights on the shared sites).
	ref := compileV2()
	refProf, err := ref.ProfileInputs(inputs...)
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := ref.Inline(refProf, inlinec.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}

	// The edit changes the fingerprint, so the record merges as stale;
	// keep full weight so the raw counts stay comparable (the per-run
	// averages — and hence the decisions — are scale-invariant anyway).
	mergeParams := inlinec.DefaultProfDBMergeParams()
	mergeParams.StaleWeight = 1
	hybridProf, report := v2.HybridProfileFromDB(db, mergeParams)
	if report.Resolve.MovedSites != 0 {
		t.Fatalf("append-only edit moved %d sites", report.Resolve.MovedSites)
	}
	if report.Resolve.ExactSites == 0 {
		t.Fatal("no site resolved exact after an append-only edit")
	}
	for id, exact := range report.Resolve.ExactIDs {
		if !exact {
			t.Errorf("site %d resolved non-exact after an append-only edit", id)
		}
	}

	// Exact sites keep the raw measured counts — same Runs, same totals,
	// hence bit-identical averaged weights.
	if hybridProf.Runs != prof.Runs {
		t.Fatalf("hybrid Runs = %d, want the measured %d", hybridProf.Runs, prof.Runs)
	}
	for id, n := range prof.SiteCounts {
		if hybridProf.SiteCounts[id] != n {
			t.Errorf("exact site %d: hybrid count %d, want the measured %d",
				id, hybridProf.SiteCounts[id], n)
		}
	}

	// Same expansion parameters: every exact site must decide exactly as
	// measured mode did — same outcome, same devirtualization target.
	// (Sites the database never saw — cold sites with zero measured
	// weight — take predicted weights by design, so only their decision
	// class is compared: the predictor may move a rejection between the
	// classifier and the cost function, but it must not flip accept and
	// reject on this corpus.)
	hybRes, err := v2.Inline(hybridProf, inlinec.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	refBy, hybBy := refRes.TraceBySite(), hybRes.TraceBySite()
	exactCompared := 0
	for id, want := range refBy {
		got, ok := hybBy[id]
		if !ok {
			t.Errorf("site %d decided in measured mode but absent in hybrid", id)
			continue
		}
		if report.Resolve.ExactIDs[id] {
			exactCompared++
			if got.Outcome != want.Outcome || got.Target != want.Target {
				t.Errorf("exact site %d (%s <- %s): hybrid %s(%s), measured %s(%s)",
					id, want.Caller, want.Callee, got.Outcome, got.Target, want.Outcome, want.Target)
			}
		} else if got.Outcome.DecisionClass() != want.Outcome.DecisionClass() {
			t.Errorf("unmeasured site %d (%s <- %s): hybrid class %s, measured class %s",
				id, want.Caller, want.Callee, got.Outcome.DecisionClass(), want.Outcome.DecisionClass())
		}
	}
	if exactCompared == 0 {
		t.Error("no exact site reached the decision comparison")
	}
	for id := range hybBy {
		if _, ok := refBy[id]; !ok {
			t.Errorf("site %d decided in hybrid mode but absent in measured", id)
		}
	}

	// Determinism: parallelism and engine must not perturb the compile.
	refModule := v2.Module.String()
	for _, engine := range []string{"bytecode", "switch"} {
		for _, par := range []int{1, 2, 8} {
			p := compileV2()
			p.Parallelism = par
			p.Engine = engine
			hp, _ := p.HybridProfileFromDB(db, mergeParams)
			if _, err := p.Inline(hp, inlinec.DefaultParams()); err != nil {
				t.Fatal(err)
			}
			if p.Module.String() != refModule {
				t.Errorf("hybrid compile differs at Parallelism %d on %s engine", par, engine)
			}
		}
	}
}

// TestE2EHybridPrependEditPredictsMovedSites is the other half of the
// hybrid contract: an edit that shifts every raw call-site id (prepending
// a function) makes fingerprint resolution report every surviving site
// moved — and hybrid mode then trusts the predictor, not the displaced
// measurements, for every site weight. Function entry counts, which key
// on names rather than positions, stay measured.
func TestE2EHybridPrependEditPredictsMovedSites(t *testing.T) {
	b := bench.Get("espresso")
	if b == nil {
		t.Fatal("espresso benchmark missing")
	}
	inputs := b.Inputs[:2]

	v1, err := b.Compile()
	if err != nil {
		t.Fatal(err)
	}
	prof, err := v1.ProfileInputs(inputs...)
	if err != nil {
		t.Fatal(err)
	}
	db := inlinec.NewProfDB("espresso.c")
	rec, err := v1.Snapshot(prof, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Ingest(rec); err != nil {
		t.Fatal(err)
	}

	edited := "int hybrid_e2e_pad(int x) { return x + 1; }\n" + b.Source
	v2, err := inlinec.Compile("espresso.c", edited)
	if err != nil {
		t.Fatal(err)
	}

	params := inlinec.DefaultProfDBMergeParams()
	params.StaleWeight = 1
	hybridProf, report := v2.HybridProfileFromDB(db, params)
	if report.Resolve.ExactSites != 0 {
		t.Fatalf("every id shifted, yet %d sites reported exact", report.Resolve.ExactSites)
	}
	if report.Resolve.MovedSites == 0 {
		t.Fatal("name-stable sites must survive the id shift as moved")
	}

	// Every site weight must come from the prediction (scaled to the
	// measured run count), not from the displaced measurements.
	pred := v2.PredictProfile()
	for id, n := range hybridProf.SiteCounts {
		want := int64(math.Round(pred.SiteWeight(id) * float64(hybridProf.Runs)))
		if n != want {
			t.Errorf("moved site %d: hybrid count %d, want the predicted %d", id, n, want)
		}
	}
	// ...while name-keyed function entries stay measured.
	for name, n := range prof.FuncCounts {
		if got := hybridProf.FuncCounts[name]; got != n {
			t.Errorf("func %s: hybrid count %d, want the measured %d", name, got, n)
		}
	}

	res, err := v2.Inline(hybridProf, inlinec.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Expanded) == 0 {
		t.Error("no expansions from the hybrid profile after an id-shifting edit")
	}
}

package profdb

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"inlinec/internal/profile"
)

// Record is the unit the database stores and the wire unit ilprofd
// ingests: the totals of one or more runs of one program version
// (Fingerprint) collected at one generation, with arc weights keyed by
// stable SiteKeys. All fields are sums (MaxStack is a max), so ingesting
// the same set of records in any order produces the same database.
type Record struct {
	// Fingerprint identifies the program version the runs executed.
	Fingerprint string
	// Gen is the producer-stamped generation (a batch/epoch counter, e.g.
	// a CI build number). Age decay is computed from generation distance,
	// so fresh generations dominate merged profiles; stamping is the
	// producer's job precisely so that the database stays independent of
	// ingestion order.
	Gen int

	Runs      int
	IL        int64
	Control   int64
	Calls     int64
	Returns   int64
	Extern    int64
	Ptr       int64
	Truncated int64
	MaxStack  int64

	Funcs map[string]int64
	Sites map[SiteKey]int64
	// Targets holds the per-target resolution counts of pointer-call
	// sites (site key -> resolved target function -> count), the data
	// behind guarded devirtualization. Absent for direct sites, so old
	// databases without target lines parse — and re-serialize — as-is.
	Targets map[SiteKey]map[string]int64

	// SampleRate records how the runs behind this record were counted:
	// 0 means exact (full or minimal profile mode), k > 0 means sampled
	// 1-in-k and rescaled, and -1 means runs with differing rates were
	// merged into one record, so the effective rate is no longer a single
	// number. It combines, never sums.
	SampleRate int
}

// NewRecord returns an empty record for one (fingerprint, generation).
func NewRecord(fingerprint string, gen int) *Record {
	return &Record{
		Fingerprint: fingerprint,
		Gen:         gen,
		Funcs:       make(map[string]int64),
		Sites:       make(map[SiteKey]int64),
		Targets:     make(map[SiteKey]map[string]int64),
	}
}

// addTarget accumulates one per-target count, allocating the inner map
// on first use.
func (r *Record) addTarget(k SiteKey, target string, n int64) {
	m := r.Targets[k]
	if m == nil {
		m = make(map[string]int64)
		r.Targets[k] = m
	}
	m[target] += n
}

// add accumulates another record's counts (same fingerprint and gen).
func (r *Record) add(o *Record) {
	r.Runs += o.Runs
	r.IL += o.IL
	r.Control += o.Control
	r.Calls += o.Calls
	r.Returns += o.Returns
	r.Extern += o.Extern
	r.Ptr += o.Ptr
	r.Truncated += o.Truncated
	if o.MaxStack > r.MaxStack {
		r.MaxStack = o.MaxStack
	}
	for f, n := range o.Funcs {
		r.Funcs[f] += n
	}
	for k, n := range o.Sites {
		r.Sites[k] += n
	}
	for k, targets := range o.Targets {
		for t, n := range targets {
			r.addTarget(k, t, n)
		}
	}
	r.SampleRate = combineSampleRates(r.SampleRate, o.SampleRate, r.Runs-o.Runs, o.Runs)
}

// sortedTargetKeys returns the site keys with per-target data in on-disk
// order, skipping empty inner maps so they never affect serialization.
func (r *Record) sortedTargetKeys() []SiteKey {
	keys := make([]SiteKey, 0, len(r.Targets))
	for k := range r.Targets {
		if len(r.Targets[k]) > 0 {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return siteKeyLess(keys[i], keys[j]) })
	return keys
}

// combineSampleRates merges the sampling rates of two run populations:
// an empty side adopts the other's rate, equal rates keep it, and
// differing rates collapse to -1 (mixed). The rule is commutative and
// associative, so ingestion order cannot change the result.
func combineSampleRates(a, b int, aRuns, bRuns int) int {
	switch {
	case aRuns <= 0:
		return b
	case bRuns <= 0:
		return a
	case a == b:
		return a
	default:
		return -1
	}
}

// sortedSiteKeys returns the record's site keys in on-disk order.
func (r *Record) sortedSiteKeys() []SiteKey {
	keys := make([]SiteKey, 0, len(r.Sites))
	for k := range r.Sites {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return siteKeyLess(keys[i], keys[j]) })
	return keys
}

// siteKeyLess is the canonical on-disk site-key order.
func siteKeyLess(a, b SiteKey) bool {
	if a.Caller != b.Caller {
		return a.Caller < b.Caller
	}
	if a.Callee != b.Callee {
		return a.Callee < b.Callee
	}
	if a.Ordinal != b.Ordinal {
		return a.Ordinal < b.Ordinal
	}
	return a.PosHash < b.PosHash
}

// sortedFuncNames returns the record's function names in on-disk order.
func (r *Record) sortedFuncNames() []string {
	names := make([]string, 0, len(r.Funcs))
	for n := range r.Funcs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// RecordKey identifies one record within the database.
type RecordKey struct {
	Fingerprint string
	Gen         int
}

// DB is the persistent profile database for one program.
type DB struct {
	// Program names the program the database covers (informational; the
	// daemon rejects ingests whose program name disagrees).
	Program string
	// Epoch is the durability epoch stamped by the crash-safe Store: a
	// snapshot at epoch E contains every WAL record from epochs < E, so
	// recovery replays a write-ahead log exactly when its epoch is >= the
	// snapshot's. Offline databases stay at 0 and omit the directive.
	Epoch int
	// Records holds one record per (fingerprint, generation).
	Records map[RecordKey]*Record
}

// NewDB returns an empty database.
func NewDB(program string) *DB {
	return &DB{Program: program, Records: make(map[RecordKey]*Record)}
}

// Ingest merges one record into the store. Records with the same
// fingerprint and generation accumulate; ingestion is commutative, so any
// arrival order of the same record set yields an identical database.
func (db *DB) Ingest(rec *Record) error {
	if rec.Fingerprint == "" {
		return fmt.Errorf("profdb: ingest: record has no fingerprint")
	}
	if rec.Runs <= 0 {
		return fmt.Errorf("profdb: ingest: record has non-positive runs count %d", rec.Runs)
	}
	key := RecordKey{rec.Fingerprint, rec.Gen}
	if cur, ok := db.Records[key]; ok {
		cur.add(rec)
		return nil
	}
	cp := NewRecord(rec.Fingerprint, rec.Gen)
	cp.add(rec)
	db.Records[key] = cp
	return nil
}

// MaxGen returns the newest generation in the store (0 when empty).
func (db *DB) MaxGen() int {
	max := 0
	for k := range db.Records {
		if k.Gen > max {
			max = k.Gen
		}
	}
	return max
}

// TotalRuns sums the runs across all records.
func (db *DB) TotalRuns() int {
	n := 0
	for _, r := range db.Records {
		n += r.Runs
	}
	return n
}

// sortedKeys returns record keys in deterministic (fingerprint, gen) order.
func (db *DB) sortedKeys() []RecordKey {
	keys := make([]RecordKey, 0, len(db.Records))
	for k := range db.Records {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Fingerprint != keys[j].Fingerprint {
			return keys[i].Fingerprint < keys[j].Fingerprint
		}
		return keys[i].Gen < keys[j].Gen
	})
	return keys
}

// MergeParams tunes the weighted merge.
type MergeParams struct {
	// HalfLifeGens is the exponential-decay half-life in generations: a
	// record g generations older than the newest weighs 0.5^(g/HalfLife).
	// 0 disables decay (all generations weigh 1).
	HalfLifeGens int
	// StaleWeight scales records whose fingerprint differs from the merge
	// target: 0 drops them entirely; 1 trusts them fully. Intermediate
	// values down-weight old-version data so it seeds — but never
	// dominates — a fresh build's profile.
	StaleWeight float64
}

// DefaultMergeParams trusts exact records fully, halves a record's weight
// every 4 generations, and down-weights stale-version records to 0.5.
func DefaultMergeParams() MergeParams {
	return MergeParams{HalfLifeGens: 4, StaleWeight: 0.5}
}

// MergeStats reports what went into a merge.
type MergeStats struct {
	Records        int // records considered
	ExactRecords   int // fingerprint matched the target
	StaleRecords   int // fingerprint differed, down-weighted in
	DroppedRecords int // fingerprint differed, dropped (StaleWeight 0)
	ExactRuns      int
	StaleRuns      int // runs behind StaleRecords + DroppedRecords
}

// Merge produces the weighted combination of every stored record for the
// target fingerprint, still in stable-key form. Records are visited in
// sorted (fingerprint, gen) order and float accumulation is rounded once
// per counter at the end, so the result is deterministic for a given
// store; with a single-generation, exact-fingerprint store the weights
// are exactly 1 and the merge is an exact integer sum.
func (db *DB) Merge(fingerprint string, p MergeParams) (*Record, *MergeStats) {
	return db.mergeAt(fingerprint, db.MaxGen(), p)
}

// ResolveStats reports how a stable-key record mapped onto the current
// module.
type ResolveStats struct {
	Sites        int // site keys in the record
	ExactSites   int // resolved with matching position hash
	MovedSites   int // resolved, but the source position changed
	DroppedSites int // no (caller, callee, ordinal) match — stale
	// DroppedWeight is the total count behind DroppedSites.
	DroppedWeight int64
	// DroppedFuncs counts function entries naming functions the current
	// module no longer defines.
	DroppedFuncs int
	// Dropped lists the stale site keys and unknown function names, sorted,
	// for reporting.
	Dropped []string
	// ExactIDs classifies every resolved site by its current raw id:
	// true when the source position matched (exact), false when the site
	// moved. Ids absent from the map did not resolve at all. Hybrid
	// profile-mode uses this to keep measured weights only where the
	// resolution is exact.
	ExactIDs map[int]bool
}

// Resolve remaps a stable-key record onto the current module's raw
// call-site ids, producing the averaged profile the call graph consumes.
// Keys that no longer resolve are dropped and reported — never silently
// attributed to whatever site now holds the old raw id.
func (r *Record) Resolve(keys *KeyMap) (*profile.Profile, *ResolveStats) {
	prof := profile.NewProfile()
	prof.Runs = r.Runs
	prof.TotalIL = r.IL
	prof.TotalControl = r.Control
	prof.TotalCalls = r.Calls
	prof.TotalReturns = r.Returns
	prof.TotalExtern = r.Extern
	prof.TotalPtr = r.Ptr
	prof.TotalTruncated = r.Truncated
	prof.MaxStack = r.MaxStack
	// Mixed-rate records (-1) resolve as exact: the counts were already
	// rescaled at collection time, so no further scaling applies and the
	// profile carries a rate only when a single one describes all runs.
	if r.SampleRate > 0 {
		prof.SampleRate = r.SampleRate
	}

	stats := &ResolveStats{ExactIDs: make(map[int]bool)}
	for _, k := range r.sortedSiteKeys() {
		n := r.Sites[k]
		stats.Sites++
		id, exact, ok := keys.Resolve(k)
		if !ok {
			stats.DroppedSites++
			stats.DroppedWeight += n
			stats.Dropped = append(stats.Dropped, "site "+k.String())
			continue
		}
		if exact {
			stats.ExactSites++
		} else {
			stats.MovedSites++
		}
		// Two keys can resolve onto one id only if one of them moved;
		// the id is exact only when every contributor matched exactly.
		if prev, seen := stats.ExactIDs[id]; seen {
			stats.ExactIDs[id] = prev && exact
		} else {
			stats.ExactIDs[id] = exact
		}
		prof.SiteCounts[id] += n
	}
	// Per-target pointer-site counts ride on the same keys: a target
	// entry resolves exactly when its site does (the drop was already
	// reported above, since every target key also has a site entry).
	for _, k := range r.sortedTargetKeys() {
		id, _, ok := keys.Resolve(k)
		if !ok {
			continue
		}
		for t, n := range r.Targets[k] {
			prof.AddPtrTarget(id, t, n)
		}
	}
	for _, f := range r.sortedFuncNames() {
		if !keys.HasFunc(f) {
			stats.DroppedFuncs++
			stats.Dropped = append(stats.Dropped, "func "+f)
			continue
		}
		prof.FuncCounts[f] += r.Funcs[f]
	}
	sort.Strings(stats.Dropped)
	return prof, stats
}

// Report combines the merge- and resolve-level staleness accounting for
// one database consumption.
type Report struct {
	Merge   MergeStats
	Resolve ResolveStats
}

// Clean reports whether nothing was down-weighted, moved, or dropped.
func (rp *Report) Clean() bool {
	return rp.Merge.StaleRecords == 0 && rp.Merge.DroppedRecords == 0 &&
		rp.Resolve.MovedSites == 0 && rp.Resolve.DroppedSites == 0 &&
		rp.Resolve.DroppedFuncs == 0
}

// String summarizes the report in one or two lines.
func (rp *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "profdb: merged %d record(s): %d exact (%d runs), %d stale down-weighted, %d stale dropped (%d runs)",
		rp.Merge.Records, rp.Merge.ExactRecords, rp.Merge.ExactRuns,
		rp.Merge.StaleRecords, rp.Merge.DroppedRecords, rp.Merge.StaleRuns)
	fmt.Fprintf(&sb, "\nprofdb: resolved %d site(s): %d exact, %d moved, %d dropped as stale; %d unknown function(s)",
		rp.Resolve.Sites, rp.Resolve.ExactSites, rp.Resolve.MovedSites,
		rp.Resolve.DroppedSites, rp.Resolve.DroppedFuncs)
	if len(rp.Resolve.Dropped) > 0 {
		fmt.Fprintf(&sb, "\nprofdb: dropped: %s", strings.Join(rp.Resolve.Dropped, ", "))
	}
	return sb.String()
}

// ProfileFor merges the store for the target fingerprint and resolves the
// result against the current module's key map in one step — the
// profiler-to-compiler interface, database edition.
func (db *DB) ProfileFor(fingerprint string, keys *KeyMap, p MergeParams) (*profile.Profile, *Report) {
	merged, ms := db.Merge(fingerprint, p)
	prof, rs := merged.Resolve(keys)
	return prof, &Report{Merge: *ms, Resolve: *rs}
}

// Compact folds every fingerprint's generations into a single record at
// that fingerprint's newest generation, applying age decay relative to
// the store-wide newest generation first so that compaction and a later
// merge agree about how much old data should weigh. It returns the number
// of records eliminated.
func (db *DB) Compact(p MergeParams) int {
	maxGen := db.MaxGen()
	byFP := make(map[string][]*Record)
	for _, key := range db.sortedKeys() {
		rec := db.Records[key]
		byFP[rec.Fingerprint] = append(byFP[rec.Fingerprint], rec)
	}
	removed := 0
	for fp, recs := range byFP {
		if len(recs) == 1 {
			continue
		}
		// Scale each generation into the newest one for this fingerprint.
		newest := recs[len(recs)-1].Gen
		sub := NewDB(db.Program)
		for _, rec := range recs {
			sub.Records[RecordKey{rec.Fingerprint, rec.Gen}] = rec
			delete(db.Records, RecordKey{rec.Fingerprint, rec.Gen})
		}
		// Borrow Merge for the decayed fold: within one fingerprint nothing
		// is stale, and decay must use the store-wide newest generation.
		folded, _ := sub.mergeAt(fp, maxGen, p)
		folded.Gen = newest
		if folded.Runs > 0 {
			db.Records[RecordKey{fp, newest}] = folded
		}
		removed += len(recs) - 1
	}
	return removed
}

// mergeAt is the merge body with an explicit decay origin; Compact folds
// one fingerprint's generations with the store-wide origin so compaction
// never changes how much surviving data weighs.
func (db *DB) mergeAt(fingerprint string, maxGen int, p MergeParams) (*Record, *MergeStats) {
	out := NewRecord(fingerprint, maxGen)
	stats := &MergeStats{}
	var runs, il, control, calls, returns, extern, ptr, truncated float64
	funcs := make(map[string]float64)
	sites := make(map[SiteKey]float64)
	targets := make(map[SiteKey]map[string]float64)
	includedRuns := 0
	for _, key := range db.sortedKeys() {
		rec := db.Records[key]
		stats.Records++
		w := 1.0
		if p.HalfLifeGens > 0 && rec.Gen < maxGen {
			w = math.Pow(0.5, float64(maxGen-rec.Gen)/float64(p.HalfLifeGens))
		}
		if rec.Fingerprint != fingerprint {
			stats.StaleRuns += rec.Runs
			if p.StaleWeight <= 0 {
				stats.DroppedRecords++
				continue
			}
			stats.StaleRecords++
			w *= p.StaleWeight
		} else {
			stats.ExactRecords++
			stats.ExactRuns += rec.Runs
		}
		out.SampleRate = combineSampleRates(out.SampleRate, rec.SampleRate, includedRuns, rec.Runs)
		includedRuns += rec.Runs
		runs += w * float64(rec.Runs)
		il += w * float64(rec.IL)
		control += w * float64(rec.Control)
		calls += w * float64(rec.Calls)
		returns += w * float64(rec.Returns)
		extern += w * float64(rec.Extern)
		ptr += w * float64(rec.Ptr)
		truncated += w * float64(rec.Truncated)
		if rec.MaxStack > out.MaxStack {
			out.MaxStack = rec.MaxStack
		}
		for f, n := range rec.Funcs {
			funcs[f] += w * float64(n)
		}
		for k, n := range rec.Sites {
			sites[k] += w * float64(n)
		}
		for k, ts := range rec.Targets {
			m := targets[k]
			if m == nil {
				m = make(map[string]float64)
				targets[k] = m
			}
			for t, n := range ts {
				m[t] += w * float64(n)
			}
		}
	}
	round := func(v float64) int64 { return int64(math.Round(v)) }
	out.Runs = int(round(runs))
	if out.Runs == 0 && runs > 0 {
		out.Runs = 1
	}
	out.IL = round(il)
	out.Control = round(control)
	out.Calls = round(calls)
	out.Returns = round(returns)
	out.Extern = round(extern)
	out.Ptr = round(ptr)
	out.Truncated = round(truncated)
	for f, v := range funcs {
		if n := round(v); n > 0 {
			out.Funcs[f] = n
		}
	}
	for k, v := range sites {
		if n := round(v); n > 0 {
			out.Sites[k] = n
		}
	}
	for k, ts := range targets {
		for t, v := range ts {
			if n := round(v); n > 0 {
				out.addTarget(k, t, n)
			}
		}
	}
	return out, stats
}

package callgraph

import (
	"sort"

	"inlinec/internal/ir"
)

// Coverage planning: choose a minimal subset of profiling counters such
// that every node and arc weight of the call graph is recoverable by flow
// conservation, in the spirit of Knuth's spanning-tree counter placement
// and its modern treatment in "Minimum Coverage Instrumentation".
//
// The conservation law available to a call-graph profiler is callee-side
// only: for every callee entity n (user function or extern),
//
//	entries(n) = Σ cnt(s) over direct sites s targeting n
//	           + ptrEntries(n)                    (calls through pointers)
//	           + 1 if n is the root of the run    (entered without an arc)
//
// Unlike basic-block flow graphs there is no caller-side counterpart (a
// function body may call any subset of its sites per invocation), so the
// equations form a bipartite system in which each direct-call counter
// appears in exactly one equation and pointer-entry counters appear in
// none. Two consequences shape the planner: at most one counter per
// equation can be elided (it is the single unknown, solved directly — no
// leaf-peeling propagation is ever needed), and pointer-entry counters can
// never be elided. Eliding every entry counter is therefore a minimum
// coverage plan: it removes exactly one counter per equation, the maximum
// the system permits.

// CoverageSite describes one static call site as the planner sees it.
type CoverageSite struct {
	// ID is the call-site id (ir.Instr.CallID).
	ID int
	// Callee is the direct callee entity name; "" marks a call through a
	// pointer, whose counter is never elidable.
	Callee string
}

// ReconStep solves one conservation equation at profile-finalize time.
type ReconStep struct {
	// Entity is the callee the equation belongs to.
	Entity string
	// SolveSite is the elided direct site id to solve for, or -1 when the
	// entity's entry counter is the unknown.
	SolveSite int
	// Sites lists every direct in-site id of Entity (including SolveSite
	// when a site is the unknown).
	Sites []int
	// Root marks the run's root entity, which receives one entry per run
	// that no call arc accounts for.
	Root bool
}

// CoveragePlan is the planner's output: which counters to keep and how to
// reconstruct the elided ones.
type CoveragePlan struct {
	// SiteCounted reports, per direct site id, whether the site's counter
	// is instrumented. Pointer sites are absent (always instrumented, as
	// ptr-entry counters on the resolved target).
	SiteCounted map[int]bool
	// EntryCounted reports, per entity, whether the entity's entry counter
	// is instrumented.
	EntryCounted map[string]bool
	// Steps are the reconstruction steps, one per elided counter. The
	// system is bipartite, so steps are independent and order-free.
	Steps []ReconStep
	// Elided and Total count counters dropped vs. the full-instrumentation
	// baseline (entries + direct sites + pointer-entry counters).
	Elided, Total int
}

// ElideEntry and KeepAll are sentinel returns for NewPlan's chooser.
const (
	ElideEntry = -1
	KeepAll    = -2
)

// NewPlan builds a coverage plan. entities lists every callee entity in
// deterministic order; root names the entity entered once per run without
// a call arc (may be empty). choose picks, per entity, the counter to
// elide from its equation: a direct in-site id, ElideEntry for the entry
// counter, or KeepAll to instrument everything. Because each direct site
// appears in exactly one equation, any combination of per-entity choices
// is valid.
func NewPlan(entities []string, root string, sites []CoverageSite, choose func(entity string, inSites []int) int) *CoveragePlan {
	inSites := make(map[string][]int, len(entities))
	ptrSites := 0
	for _, s := range sites {
		if s.Callee == "" {
			ptrSites++
			continue
		}
		inSites[s.Callee] = append(inSites[s.Callee], s.ID)
	}
	p := &CoveragePlan{
		SiteCounted:  make(map[int]bool, len(sites)-ptrSites),
		EntryCounted: make(map[string]bool, len(entities)),
		Steps:        make([]ReconStep, 0, len(entities)),
	}
	for _, s := range sites {
		if s.Callee != "" {
			p.SiteCounted[s.ID] = true
		}
	}
	for _, e := range entities {
		p.EntryCounted[e] = true
		p.Total++ // the entity's entry counter
	}
	p.Total += len(p.SiteCounted) + ptrSites

	for _, e := range entities {
		in := inSites[e]
		sort.Ints(in)
		pick := choose(e, in)
		switch {
		case pick == KeepAll:
			continue
		case pick == ElideEntry:
			p.EntryCounted[e] = false
		default:
			if !p.SiteCounted[pick] {
				continue // not a direct in-site of this entity: keep all
			}
			ok := false
			for _, s := range in {
				if s == pick {
					ok = true
					break
				}
			}
			if !ok {
				continue
			}
			p.SiteCounted[pick] = false
		}
		p.Elided++
		p.Steps = append(p.Steps, ReconStep{
			Entity:    e,
			SolveSite: pick,
			Sites:     in,
			Root:      e == root,
		})
	}
	return p
}

// MinimalPlanFor elides every entry counter — the minimum coverage plan
// for the callee-side conservation system (see the package comment above:
// one elision per equation is the maximum possible).
func MinimalPlanFor(entities []string, root string, sites []CoverageSite) *CoveragePlan {
	return NewPlan(entities, root, sites, func(string, []int) int { return ElideEntry })
}

// ModuleCoverage extracts the planner's view of a module: every callee
// entity (module functions first, in module order, then direct-call extern
// names sorted) and every call site. The root is the interpreter's entry
// point, "main".
func ModuleCoverage(mod *ir.Module) (entities []string, root string, sites []CoverageSite) {
	seen := make(map[string]bool, len(mod.Funcs))
	for _, f := range mod.Funcs {
		entities = append(entities, f.Name)
		seen[f.Name] = true
	}
	var externs []string
	for _, f := range mod.Funcs {
		for i := range f.Code {
			in := &f.Code[i]
			switch in.Op {
			case ir.OpCall:
				sites = append(sites, CoverageSite{ID: in.CallID, Callee: in.Sym})
				if !seen[in.Sym] {
					seen[in.Sym] = true
					externs = append(externs, in.Sym)
				}
			case ir.OpCallPtr:
				sites = append(sites, CoverageSite{ID: in.CallID})
			}
		}
	}
	sort.Strings(externs)
	return append(entities, externs...), "main", sites
}

// Counts holds raw observed counters for map-based reconstruction (the
// interpreter keeps dense arrays and applies Steps directly; this form
// serves tests and the reconstruction fuzzer).
type Counts struct {
	// Entries maps entity → entry count (only instrumented entities).
	Entries map[string]int64
	// Sites maps direct site id → count (only instrumented sites).
	Sites map[int]int64
	// PtrEntries maps entity → entries via pointer calls.
	PtrEntries map[string]int64
	// RootRuns is how many runs the counts cover (one uncounted root entry
	// each).
	RootRuns int64
}

// Reconstruct solves every step's equation in place, filling the elided
// counters in c. Exact whenever the observed counters are exact — which
// holds at every profile-visible stop point, including truncated runs
// (exit() before main returns): entry and site counters are bumped on the
// caller side of the transfer, so a run that stops mid-call leaves every
// equation balanced.
func (p *CoveragePlan) Reconstruct(c Counts) {
	for _, st := range p.Steps {
		known := c.PtrEntries[st.Entity]
		if st.Root {
			known += c.RootRuns
		}
		if st.SolveSite == ElideEntry {
			for _, s := range st.Sites {
				known += c.Sites[s]
			}
			c.Entries[st.Entity] = known
		} else {
			for _, s := range st.Sites {
				if s != st.SolveSite {
					known += c.Sites[s]
				}
			}
			c.Sites[st.SolveSite] = c.Entries[st.Entity] - known
		}
	}
}

package interp

import (
	"fmt"

	"inlinec/internal/callgraph"
	"inlinec/internal/profile"
)

// Profile modes. Full instruments every counter the profiler defines —
// one increment per call arc plus one per function entry. Minimal keeps
// only a minimum coverage set (the arc counters plus a pointer-entry
// counter per callee; see internal/callgraph/coverage.go) and
// reconstructs every elided entry count exactly by flow conservation at
// run finalize. Sampled uses the minimal placement and additionally
// counts only every k-th event per counter with a deterministic skip
// counter, rescaling by k on finalize — approximate arc weights with a
// per-site, per-run error below k, at roughly 1/k of full mode's
// instrumentation events. IL, Control, Calls, Returns, ExternCalls,
// PtrCalls, MaxStack, ExitCode, and Truncated remain exact in every mode
// (they live in dispatch-loop registers, not profiling counters).
const (
	ProfileFull    = "full"
	ProfileMinimal = "minimal"
	ProfileSampled = "sampled"
)

// DefaultSampleRate is the 1-in-k rate sampled mode uses when
// Options.SampleRate is zero.
const DefaultSampleRate = 32

// denseRecon is one flow-conservation equation in dense-id form:
// entries(id) = Σ siteCounts[sites] (+1 root entry when the run entered
// the program through this function).
type denseRecon struct {
	id    int32
	root  bool
	sites []int32
}

// initProfileMode validates the profiling options and, for the minimal
// and sampled modes, consumes the module's minimum coverage plan: dense
// counter masks for both engines (the bytecode translator reads them to
// elide counter superinstructions; the switch oracle applies the same
// masks at dispatch) plus the dense reconstruction steps finalizeCounts
// replays after every run.
func (m *Machine) initProfileMode() error {
	opts := &m.opts
	if opts.SampleRate < 0 {
		return fmt.Errorf("negative sample rate %d", opts.SampleRate)
	}
	switch opts.ProfileMode {
	case "", ProfileFull:
		m.profileMode = ProfileFull
		m.sampleK = 1
		return nil
	case ProfileMinimal:
		m.profileMode = ProfileMinimal
		m.sampleK = 1
	case ProfileSampled:
		m.profileMode = ProfileSampled
		m.sampleK = int64(opts.SampleRate)
		if m.sampleK == 0 {
			m.sampleK = DefaultSampleRate
		}
	default:
		return fmt.Errorf("unknown profile mode %q (want %q, %q, or %q)",
			opts.ProfileMode, ProfileFull, ProfileMinimal, ProfileSampled)
	}

	entities, root, sites := callgraph.ModuleCoverage(m.Mod)
	plan := callgraph.MinimalPlanFor(entities, root, sites)

	// Dense id per entity name, mirroring call resolution: user functions
	// precede externs in funcNames, and direct calls resolve user-first,
	// so first occurrence wins.
	idByName := make(map[string]int32, len(m.funcNames))
	for id, name := range m.funcNames {
		if _, seen := idByName[name]; !seen {
			idByName[name] = int32(id)
		}
	}

	m.entryCount = make([]bool, len(m.funcCounts))
	for name, counted := range plan.EntryCounted {
		if id, ok := idByName[name]; ok && counted {
			m.entryCount[id] = true
		}
	}

	// Site mask: direct sites per the plan; pointer sites are always
	// instrumented (they appear in no conservation equation, so the plan
	// can never elide them — their arc weight has no other witness).
	m.siteCount = make([]bool, len(m.siteCounts))
	for _, s := range sites {
		if s.ID >= len(m.siteCount) {
			continue
		}
		if s.Callee == "" {
			m.siteCount[s.ID] = true
		} else {
			m.siteCount[s.ID] = plan.SiteCounted[s.ID]
		}
	}

	// Reconstruction steps in dense form. Entities that resolved to no
	// dense id (direct calls to symbols with no implementation) are
	// skipped: such calls fault at dispatch, so no successful —
	// profile-visible — run ever reaches them.
	for _, step := range plan.Steps {
		id, ok := idByName[step.Entity]
		if !ok {
			continue
		}
		dr := denseRecon{id: id, root: step.Root}
		for _, s := range step.Sites {
			if s < len(m.siteCounts) {
				dr.sites = append(dr.sites, int32(s))
			}
		}
		m.recon = append(m.recon, dr)
	}

	m.ptrEntries = make([]int64, len(m.funcCounts))
	if m.sampleK > 1 {
		m.siteSkip = make([]int64, len(m.siteCounts))
		m.ptrSkip = make([]int64, len(m.funcCounts))
	}
	return nil
}

// finalizeCounts runs after every execution, before the dense counters
// fold into RunStats: it measures the instrumentation events the run
// performed, rescales sampled counters, and solves the coverage plan's
// conservation equations to rebuild the elided entry counts. It is a
// pure function of the dense counter arrays, which both engines fill
// identically, so the reconstructed RunStats keep cross-engine
// bit-identity per mode.
func (m *Machine) finalizeCounts(st *profile.RunStats) {
	// Every nonzero raw counter value is the number of increments that
	// counter performed this run (computed before any rescale).
	var ev int64
	for _, c := range m.siteCounts {
		ev += c
	}
	for _, c := range m.funcCounts {
		ev += c
	}
	for _, c := range m.ptrEntries {
		ev += c
	}
	st.ProfileEvents = ev
	if m.profileMode == ProfileFull {
		return
	}

	var end func()
	if m.opts.Obs != nil {
		end = m.opts.Obs.StartSpan("reconstruct")
	}
	if m.sampleK > 1 {
		for i, c := range m.siteCounts {
			if c != 0 {
				m.siteCounts[i] = c * m.sampleK
			}
		}
		for i, c := range m.ptrEntries {
			if c != 0 {
				m.ptrEntries[i] = c * m.sampleK
			}
		}
	}
	for i := range m.recon {
		rs := &m.recon[i]
		var sum int64
		for _, s := range rs.sites {
			sum += m.siteCounts[s]
		}
		if rs.root && m.rootEntered {
			sum++
		}
		m.funcCounts[rs.id] += sum
	}
	// Entries through function pointers belong to the same equations but
	// are counted separately per dense id (a shadowed name can split
	// across ids; foldCounts sums by name either way).
	for id, c := range m.ptrEntries {
		if c != 0 {
			m.funcCounts[id] += c
		}
	}
	if end != nil {
		end()
	}
}

// resetProfileCounters clears the per-run mode-specific counter state.
// Sampling skip counters restart at k every run so each run's counts —
// and therefore merged profiles — are deterministic at any worker count
// and input order.
func (m *Machine) resetProfileCounters() {
	m.rootEntered = false
	for i := range m.ptrEntries {
		m.ptrEntries[i] = 0
	}
	for i := range m.siteSkip {
		m.siteSkip[i] = m.sampleK
	}
	for i := range m.ptrSkip {
		m.ptrSkip[i] = m.sampleK
	}
}

// bumpEntry counts one function entry, honoring the coverage plan's
// entry mask (nil mask = full mode, everything counted).
func (m *Machine) bumpEntry(id int) {
	if m.entryCount == nil || m.entryCount[id] {
		m.funcCounts[id]++
	}
}

// bumpSite counts one call-arc event at a masked site, sampling 1-in-k
// when the rate is above one. The skip counter is deterministic: events
// k, 2k, ... are the counted ones.
func (m *Machine) bumpSite(id int) {
	if !m.siteCount[id] {
		return
	}
	if m.sampleK > 1 {
		m.siteSkip[id]--
		if m.siteSkip[id] != 0 {
			return
		}
		m.siteSkip[id] = m.sampleK
	}
	m.siteCounts[id]++
}

// bumpPtrEntry counts one function entry reached through a pointer call
// in the minimal/sampled modes (full mode counts these through the
// ordinary entry counter instead).
func (m *Machine) bumpPtrEntry(id int32) {
	if m.sampleK > 1 {
		m.ptrSkip[id]--
		if m.ptrSkip[id] != 0 {
			return
		}
		m.ptrSkip[id] = m.sampleK
	}
	m.ptrEntries[id]++
}

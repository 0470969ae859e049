package interp

import (
	"cmp"
	"fmt"
	"sync"

	"inlinec/internal/profile"
)

// Profile modes. Full counts every call site and every function entry
// as it happens. Minimal and sampled count no entries: every entry is a
// call through a direct site, a call through a pointer, or main's one
// root entry per run, so finalizeCounts derives each entry count from
// the site counts, and the pointer-call entries are counted directly.
// Each direct site's counter sits in exactly one of these equations, its
// callee's, so eliding every entry counter is already minimal: unlike a
// flow graph, where a counter sits in two equations (Knuth; Minimum
// Coverage Instrumentation), there is no placement to choose.
//
// Minimal profiles therefore equal full ones exactly. Sampled mode also
// counts only every k-th event per counter with a deterministic skip
// counter and rescales by k on finalize — approximate arc weights with a
// per-site, per-run error below k, from roughly 1/k of full mode's
// counter increments. IL, Control, Calls, Returns, ExternCalls,
// PtrCalls, MaxStack, ExitCode, Truncated and the pointer-target
// histograms stay exact in every mode.
const (
	ProfileFull    = "full"
	ProfileMinimal = "minimal"
	ProfileSampled = "sampled"
)

// DefaultSampleRate is the 1-in-k rate sampled mode uses when
// Options.SampleRate is zero.
const DefaultSampleRate = 32

// directSite is a direct call site and the dense id of the callee it
// resolves to.
type directSite struct {
	site, callee int32
}

// siteScratch lends NewMachine's scan a buffer for the direct sites it
// collects, so that a load allocates only the exact-size list it keeps.
var siteScratch sync.Pool

// initProfileMode validates the profiling options and resolves the mode
// and its sampling rate.
func (m *Machine) initProfileMode() error {
	opts := &m.opts
	if opts.SampleRate < 0 {
		return fmt.Errorf("negative sample rate %d", opts.SampleRate)
	}
	m.sampleK = 1
	switch opts.ProfileMode {
	case "", ProfileFull:
		m.profileMode, m.countEntries = ProfileFull, true
	case ProfileMinimal:
		m.profileMode = ProfileMinimal
	case ProfileSampled:
		m.profileMode = ProfileSampled
		m.sampleK = int64(cmp.Or(opts.SampleRate, DefaultSampleRate))
	default:
		return fmt.Errorf("unknown profile mode %q (want %q, %q, or %q)",
			opts.ProfileMode, ProfileFull, ProfileMinimal, ProfileSampled)
	}
	return nil
}

// finalizeCounts runs after every execution, before the dense counters
// fold into RunStats: it measures the counter increments the run
// performed, then, in the modes that count no entries, rescales sampled
// counters and adds each direct site's count and main's root entry to
// the entry counts. It reads only the dense counters, which both engines
// fill identically, so RunStats stay bit-identical across engines.
func (m *Machine) finalizeCounts(st *profile.RunStats) {
	var ev int64
	for _, c := range m.siteCounts {
		ev += c
	}
	for _, c := range m.funcCounts {
		ev += c
	}
	st.ProfileEvents = ev
	if m.countEntries {
		return
	}

	var end func()
	if m.opts.Obs != nil {
		end = m.opts.Obs.StartSpan("reconstruct")
	}
	if m.sampleK > 1 {
		for i := range m.siteCounts {
			m.siteCounts[i] *= m.sampleK
		}
		for i := range m.funcCounts {
			m.funcCounts[i] *= m.sampleK
		}
	}
	for _, d := range m.directSites {
		m.funcCounts[d.callee] += m.siteCounts[d.site]
	}
	if m.rootEntered {
		m.funcCounts[m.ids["main"]]++
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
	for i := range m.siteSkip {
		m.siteSkip[i] = m.sampleK
	}
	for i := range m.ptrSkip {
		m.ptrSkip[i] = m.sampleK
	}
}

// bumpSite counts one call through site id.
func (m *Machine) bumpSite(id int) { m.bump(m.siteCounts, m.siteSkip, id) }

// bumpPtrEntry counts one entry into function id through a pointer
// call. Full mode's push counts user functions' entries itself.
func (m *Machine) bumpPtrEntry(id int) { m.bump(m.funcCounts, m.ptrSkip, id) }

// bump counts one event of counter id, 1-in-k when the rate is above
// one. The skip counter is deterministic: events k, 2k, ... are the
// counted ones.
func (m *Machine) bump(counts, skip []int64, id int) {
	if m.sampleK > 1 {
		skip[id]--
		if skip[id] != 0 {
			return
		}
		skip[id] = m.sampleK
	}
	counts[id]++
}

package inlinec

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"inlinec/internal/interp"
	"inlinec/internal/obs"
	"inlinec/internal/testgen"
)

// partialDevirtParams is the differential configuration: a per-callee
// limit tight enough that testgen's hot/cold bodies overflow it, with
// both guarded-expansion features switched on.
func partialDevirtParams() Params {
	p := DefaultParams()
	p.WeightThreshold = 1
	p.SizeLimitFactor = 3.0
	p.MaxCalleeSize = 60
	p.PartialInline = true
	p.DevirtThreshold = 0.5
	return p
}

// transformAt compiles src, profiles it, and runs the guarded expander
// at the given worker count, returning the program, its base profile,
// the inline result, and the decision trace serialized as JSONL.
func transformAt(t *testing.T, src string, par int, inputs []Input) (*Program, *Profile, *Result, string) {
	t.Helper()
	p, err := Compile("pd.c", src)
	if err != nil {
		t.Fatalf("compile: %v\n%s", err, src)
	}
	p.Parallelism = par
	base, err := p.ProfileInputs(inputs...)
	if err != nil {
		t.Fatalf("base profile (par %d): %v", par, err)
	}
	res, err := p.Inline(base, partialDevirtParams())
	if err != nil {
		t.Fatalf("inline (par %d): %v", par, err)
	}
	var tr strings.Builder
	if err := obs.WriteInlineTraceJSONL(&tr, res.Trace); err != nil {
		t.Fatal(err)
	}
	return p, base, res, tr.String()
}

// TestPropertyPartialDevirtDifferential is the differential layer for
// region-based partial inlining and guarded devirtualization. For random
// programs shaped to trigger both features it checks, per seed:
//
//  1. The transformed module and its decision trace are byte-identical
//     at Parallelism 1, 2, and 8 (region plans are snapshotted during
//     serial selection, so waves cannot race).
//  2. Program output is byte-identical to the original under both
//     interpreter engines and all three profile modes — the guards are
//     plain IL, so no engine needs to know the features exist.
//  3. Fallback counters are exact: a devirtualized site keeps its
//     original call id on the CALLPTR fallback, so its transformed
//     full-profile count must equal the base count minus the dominant
//     target's count, and the residual target histogram must be the
//     base histogram with the dominant entry removed. Per-target
//     histograms are exact even in sampled mode.
//  4. A partially inlined site's fallback fires at most as often as the
//     original call did.
//  5. Minimal-mode profiles of the transformed module serialize
//     byte-identically to full mode — entry counts derived from site
//     counts stay exact across the new guard diamonds.
//
// An aggregate assertion at the end requires that both features
// actually fired across the seed set, so the suite cannot rot into
// vacuous passes if selection stops accepting them.
func TestPropertyPartialDevirtDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("property test")
	}
	shapes := []testgen.Options{
		{Funcs: 6, HotColdBodies: true, DominantFuncPtr: true},
		{Funcs: 5, HotColdBodies: true},
		{Funcs: 7, DominantFuncPtr: true, MaxStmts: 8},
		{Funcs: 8, HotColdBodies: true, DominantFuncPtr: true, Extern: true},
	}
	inputs := []Input{{}, {}, {}}
	const sampleK = 8

	var totalPartial, totalDevirt int64
	t.Run("seeds", func(t *testing.T) {
		for seed := int64(500); seed < 516; seed++ {
			seed := seed
			t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
				t.Parallel()
				src := testgen.Generate(seed, shapes[int(seed)%len(shapes)])

				ref, base, res, refTrace := transformAt(t, src, 1, inputs)
				want := make([]string, len(inputs))
				for i, in := range inputs {
					out, err := ref.RunOriginal(in)
					if err != nil {
						t.Fatalf("run original: %v", err)
					}
					want[i] = out.Stdout
				}
				refMod := ref.Module.String()

				// (1) Determinism across worker counts.
				for _, par := range []int{2, 8} {
					p, _, _, trace := transformAt(t, src, par, inputs)
					if got := p.Module.String(); got != refMod {
						t.Errorf("transformed module differs at Parallelism %d", par)
					}
					if trace != refTrace {
						t.Errorf("decision trace differs at Parallelism %d:\n%s\nvs\n%s", par, refTrace, trace)
					}
				}

				var partial, devirt []obs.ArcEvent
				for _, ev := range res.Trace {
					switch ev.Outcome {
					case obs.OutcomePartialInlined:
						partial = append(partial, ev)
					case obs.OutcomeDevirtualized:
						devirt = append(devirt, ev)
					}
				}
				atomic.AddInt64(&totalPartial, int64(len(partial)))
				atomic.AddInt64(&totalDevirt, int64(len(devirt)))

				// Reference serialization of the transformed module's full
				// profile, for the minimal-mode byte-identity check.
				profileAs := func(engine, mode string, rate int) *Profile {
					t.Helper()
					ref.Engine, ref.ProfileMode, ref.SampleRate = engine, mode, rate
					prof, err := ref.ProfileInputs(inputs...)
					if err != nil {
						t.Fatalf("profile transformed (engine %s, mode %s): %v", engine, mode, err)
					}
					return prof
				}
				serialize := func(p *Profile) string {
					var sb strings.Builder
					if _, err := p.WriteTo(&sb); err != nil {
						t.Fatal(err)
					}
					return sb.String()
				}
				tfull := profileAs(interp.EngineBytecode, interp.ProfileFull, 0)
				refSerial := serialize(tfull)

				for _, engine := range []string{interp.EngineBytecode, interp.EngineSwitch} {
					for _, mode := range []string{interp.ProfileFull, interp.ProfileMinimal, interp.ProfileSampled} {
						rate := 0
						if mode == interp.ProfileSampled {
							rate = sampleK
						}
						ref.Engine, ref.ProfileMode, ref.SampleRate = engine, mode, rate

						// (2) Output byte-identity on every input.
						for i, in := range inputs {
							out, err := ref.Run(in)
							if err != nil {
								t.Fatalf("run transformed (engine %s, mode %s): %v", engine, mode, err)
							}
							if out.Stdout != want[i] {
								t.Errorf("output diverged (engine %s, mode %s, input %d)\nwant %q\ngot  %q\nsource:\n%s",
									engine, mode, i, want[i], out.Stdout, src)
							}
						}

						prof := profileAs(engine, mode, rate)
						switch mode {
						case interp.ProfileFull, interp.ProfileMinimal:
							// (5) Exact modes serialize byte-identically.
							if got := serialize(prof); got != refSerial {
								t.Errorf("%s/%s profile of transformed module not byte-identical to full:\n%s\nvs\n%s",
									engine, mode, refSerial, got)
							}
						case interp.ProfileSampled:
							bound := int64((sampleK - 1) * len(inputs))
							for id, exact := range tfull.SiteCounts {
								if got := prof.SiteCounts[id]; got > exact || exact-got > bound {
									t.Errorf("sampled site %d count %d outside [%d-%d, %d] (engine %s)",
										id, got, exact, bound, exact, engine)
								}
							}
						}

						// (3) Devirt fallback counters: exact in every mode for
						// the per-target histogram, exact in exact modes for the
						// site counter.
						for _, ev := range devirt {
							dom, domCount, _ := base.DominantTarget(ev.Site)
							wantFallback := base.SiteCounts[ev.Site] - domCount
							if mode != interp.ProfileSampled {
								if got := prof.SiteCounts[ev.Site]; got != wantFallback {
									t.Errorf("devirt site %d fallback count %d, want %d (= %d base - %d dominant %s) (engine %s, mode %s)",
										ev.Site, got, wantFallback, base.SiteCounts[ev.Site], domCount, dom, engine, mode)
								}
							}
							if got := prof.PtrTargets[ev.Site][dom]; got != 0 {
								t.Errorf("devirt site %d still resolves %d calls to dominant %s (engine %s, mode %s)",
									ev.Site, got, dom, engine, mode)
							}
							for tgt, n := range base.PtrTargets[ev.Site] {
								if tgt == dom {
									continue
								}
								if got := prof.PtrTargets[ev.Site][tgt]; got != n {
									t.Errorf("devirt site %d residual target %s count %d, want %d (engine %s, mode %s)",
										ev.Site, tgt, got, n, engine, mode)
								}
							}
						}

						// (4) Partial fallback never fires more often than the
						// original call.
						if mode != interp.ProfileSampled {
							for _, ev := range partial {
								if got := prof.SiteCounts[ev.Site]; got > base.SiteCounts[ev.Site] {
									t.Errorf("partial site %d fallback count %d exceeds original %d (engine %s, mode %s)",
										ev.Site, got, base.SiteCounts[ev.Site], engine, mode)
								}
							}
						}
					}
				}
			})
		}
	})

	if totalPartial == 0 {
		t.Errorf("no partial inlines fired across the seed set — the differential layer is vacuous")
	}
	if totalDevirt == 0 {
		t.Errorf("no devirtualizations fired across the seed set — the differential layer is vacuous")
	}
}

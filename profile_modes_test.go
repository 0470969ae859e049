package inlinec_test

import (
	"fmt"
	"strings"
	"testing"

	"inlinec"
	"inlinec/internal/bench"
	"inlinec/internal/testgen"
)

// truncatedSrc ends some runs with exit() mid-call-chain, so Returns !=
// Calls and frames die without unwinding — the hardest case for
// deriving entry counts from site counts, since the two disagree
// transiently at the moment of death.
const truncatedSrc = `
extern int exit(int code);
int leaf(int n) { return n + 1; }
int mid(int n) {
	int i;
	i = 0;
	while (i < 10) { leaf(i); i = i + 1; }
	if (n > 3) exit(7);
	return leaf(n);
}
int main() {
	int i;
	i = 0;
	while (i < 6) { mid(i); i = i + 1; }
	return 0;
}
`

// TestPropertyMinimalProfileExact: for program shapes covering every
// call-arc kind (direct, recursive, pointer-valued, indirect, extern),
// for truncated runs, and for the 13 suite programs on all their
// inputs, the minimal profile mode must serialize byte-identically to
// full mode at every worker count — entry counts derived from site
// counts are exact, not approximate. Sampled mode must stay within its
// deterministic per-site bound of (k-1) per run.
func TestPropertyMinimalProfileExact(t *testing.T) {
	shapes := []testgen.Options{
		{},
		{Funcs: 10, Recursion: true},
		{Funcs: 5, Pointers: true, Recursion: true},
		{Funcs: 6, FuncPtrs: true},
		{Funcs: 4, FuncPtrs: true, Extern: true, Pointers: true},
		{Funcs: 9, FuncPtrs: true, Extern: true, Recursion: true, MaxStmts: 8},
		{Funcs: 7, HotColdBodies: true, DominantFuncPtr: true},
	}
	type source struct {
		name, src string
		inputs    []inlinec.Input
		suite     bool
	}
	genInputs := []inlinec.Input{{}, {Stdin: []byte("4\n")}, {Stdin: []byte("1 2 3\n")}, {Stdin: []byte("x")}, {}, {Stdin: []byte("42\n")}}
	srcs := []source{{"src0", truncatedSrc, genInputs, false}}
	for i, shape := range shapes {
		srcs = append(srcs, source{fmt.Sprintf("src%d", i+1), testgen.Generate(int64(3000+i), shape), genInputs, false})
	}
	for _, name := range append(bench.SuiteNames(), "funcptrs") {
		bm := bench.Get(name)
		srcs = append(srcs, source{name, bm.Source, bm.Inputs, true})
	}

	serialize := func(t *testing.T, s source, mode string, rate, par int) (*inlinec.Profile, string) {
		t.Helper()
		p, err := inlinec.Compile("prop.c", s.src)
		if err != nil {
			t.Fatalf("compile: %v\n%s", err, s.src)
		}
		p.ProfileMode = mode
		p.SampleRate = rate
		p.Parallelism = par
		prof, err := p.ProfileInputs(s.inputs...)
		if err != nil {
			t.Fatalf("profile (mode %s, par %d): %v", mode, par, err)
		}
		var sb strings.Builder
		if _, err := prof.WriteTo(&sb); err != nil {
			t.Fatal(err)
		}
		return prof, sb.String()
	}

	for _, s := range srcs {
		s := s
		t.Run(s.name, func(t *testing.T) {
			if s.suite && testing.Short() {
				t.Skip("profiles every input of a suite program five times")
			}
			t.Parallel()
			full, ref := serialize(t, s, "full", 0, 1)
			for _, par := range []int{1, 2, 8} {
				if _, got := serialize(t, s, "minimal", 0, par); got != ref {
					t.Errorf("minimal profile at Parallelism %d is not byte-identical to full:\nfull:\n%s\nminimal:\n%s", par, ref, got)
				}
			}
			// Sampled: each site may under-report by at most k-1 events per
			// run, never over-report.
			const k = 16
			sampled, _ := serialize(t, s, "sampled", k, 1)
			bound := int64((k - 1) * len(s.inputs))
			for id, want := range full.SiteCounts {
				got := sampled.SiteCounts[id]
				if got > want || want-got > bound {
					t.Errorf("sampled site %d count %d outside [%d-%d, %d] (k=%d, %d runs)",
						id, got, want, bound, want, k, len(s.inputs))
				}
			}
			if sampled.SampleRate != k {
				t.Errorf("sampled profile carries rate %d, want %d", sampled.SampleRate, k)
			}
			if sampled.ProfileEvents >= full.ProfileEvents {
				t.Errorf("sampled mode performed %d profile events, full %d — no reduction",
					sampled.ProfileEvents, full.ProfileEvents)
			}
		})
	}
}

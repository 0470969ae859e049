package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"sort"

	"inlinec"
	"inlinec/internal/bench"
	"inlinec/internal/interp"
	"inlinec/internal/testgen"
)

// weightSource is where a workload's builds get their arc weights.
type weightSource int

const (
	measured  weightSource = iota // ProfileInputs over the training inputs
	predicted                     // PredictProfile: static prediction, no runs
	hybrid                        // Ingest producer snapshots, then HybridProfileFromDB
)

// job is one program a workload builds on every pass.
type job struct {
	name   string
	src    string
	suite  bool // an internal/bench suite program rather than a testgen one
	params inlinec.Params
	// train feeds measured weights (and the predictor-agreement
	// reference); eval runs on the inlined module and is checked against
	// the oracle.
	train, eval []inlinec.Input
	// snapInput and snapGen plan the producer snapshots of a hybrid
	// workload: snapshot k profiles train[snapInput[k]] at generation
	// snapGen[k].
	snapInput, snapGen []int

	// Filled in by setup.
	oracle []outcome               // per eval input, from the original module
	snaps  []*inlinec.ProfDBRecord // producer snapshots, hybrid workloads only
}

// workload is one seeded set of jobs plus how they are built and run.
type workload struct {
	name    string
	weights weightSource
	// mode is the interpreter's profiling instrumentation for measured
	// weights and for every run of an inlined module.
	mode string
	// runsInPass is false for build-only workloads: their evaluation
	// inputs run in verification rounds after the timed passes, which
	// check the modules and time run_ms.
	runsInPass bool
	jobs       []*job
}

const (
	// snapshotsPerJob and snapshotGens shape the hybrid workload's store:
	// every build ingests this many producer snapshots spread over this
	// many generations, so the merge exercises age decay.
	snapshotsPerJob = 32
	snapshotGens    = 4
	// producerSampleRate is the producers' 1-in-k sampling rate.
	producerSampleRate = 32
	// testgenMaxIL rejects a generated program whose original run would
	// execute more instructions than this; the generator draws again.
	testgenMaxIL = 20_000_000
)

// guardedParams is the configuration the funcptrs CI gate runs: every
// arc with weight ≥ 1, room for 3× growth, and both guarded expanders.
func guardedParams() inlinec.Params {
	p := inlinec.DefaultParams()
	p.WeightThreshold = 1
	p.SizeLimitFactor = 3.0
	p.MaxCalleeSize = 40
	p.PartialInline = true
	p.DevirtThreshold = 0.9
	return p
}

// partialDevirtParams is the guarded configuration of the repository's
// partial/devirt differential tests, sized for testgen's shapes.
func partialDevirtParams() inlinec.Params {
	p := guardedParams()
	p.MaxCalleeSize = 60
	p.DevirtThreshold = 0.5
	return p
}

// rngFor derives an independent random stream for one purpose from the
// seed, so adding a draw in one place never shifts another's inputs.
func rngFor(seed int64, label string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(label))
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
}

func inputSize(in inlinec.Input) int {
	n := len(in.Stdin)
	for _, f := range in.Files {
		n += len(f)
	}
	return n
}

// split divides inputs into a training and an evaluation half. It pairs
// inputs of adjacent size and lets the seed pick which of each pair
// trains, so a seed changes which inputs are measured but barely how much
// work each half holds; both halves are then shuffled.
func split(r *rand.Rand, inputs []inlinec.Input) (train, eval []inlinec.Input) {
	idx := make([]int, len(inputs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return inputSize(inputs[idx[a]]) < inputSize(inputs[idx[b]]) })
	for i := 0; i < len(idx); i += 2 {
		if i+1 == len(idx) {
			train = append(train, inputs[idx[i]])
			break
		}
		a, b := inputs[idx[i]], inputs[idx[i+1]]
		if r.Intn(2) == 1 {
			a, b = b, a
		}
		train = append(train, a)
		eval = append(eval, b)
	}
	r.Shuffle(len(train), func(i, j int) { train[i], train[j] = train[j], train[i] })
	r.Shuffle(len(eval), func(i, j int) { eval[i], eval[j] = eval[j], eval[i] })
	return train, eval
}

func suiteJob(seed int64, name string, params inlinec.Params) *job {
	b := bench.Get(name)
	train, eval := split(rngFor(seed, "split/"+name), b.Inputs)
	return &job{name: name, src: b.Source, suite: true, params: params, train: train, eval: eval}
}

// testgenJob draws a generated program that runs to completion within
// testgenMaxIL instructions. The draw is a pure function of the seed.
func testgenJob(r *rand.Rand, name string, opts testgen.Options, params inlinec.Params, train, eval int) (*job, error) {
	for attempt := 0; attempt < 16; attempt++ {
		src := testgen.Generate(r.Int63(), opts)
		p, err := inlinec.Compile(name+".c", src)
		if err != nil {
			return nil, fmt.Errorf("testgen program %s: %w", name, err)
		}
		m, err := interp.NewMachine(p.Module, interp.NewEnv(), interp.Options{MaxIL: testgenMaxIL})
		if err != nil {
			return nil, err
		}
		if _, err := m.Run(); err != nil {
			continue // too long-running (or faulting) to serve as a workload
		}
		return &job{name: name, src: src, params: params,
			train: make([]inlinec.Input, train), eval: make([]inlinec.Input, eval)}, nil
	}
	return nil, fmt.Errorf("testgen program %s: no runnable draw in 16 attempts", name)
}

// generate builds a workload's jobs from the seed alone. subset, when
// positive, keeps only the first subset suite programs and generated
// programs of each kind (a quick run for tests).
func generate(name string, seed int64, subset int) (*workload, error) {
	limit := func(n int) int {
		if subset > 0 {
			return min(n, subset)
		}
		return n
	}
	suite := func(names []string) []string { return names[:limit(len(names))] }
	w := &workload{name: name, mode: interp.ProfileFull}
	switch name {
	case "pgo-measured":
		// The paper's methodology: full-profile weights from the training
		// half, the paper's parameters, evaluation on the other half.
		w.weights, w.runsInPass = measured, true
		for _, n := range suite(bench.SuiteNames()) {
			w.jobs = append(w.jobs, suiteJob(seed, n, inlinec.DefaultParams()))
		}
	case "compile-predicted":
		// Build only: predicted weights, so no layer of the timed loop
		// executes a program. Generated programs add the large modules.
		w.weights = predicted
		for _, n := range suite(append(bench.SuiteNames(), "funcptrs")) {
			w.jobs = append(w.jobs, suiteJob(seed, n, inlinec.DefaultParams()))
		}
		r := rngFor(seed, "testgen/compile")
		for _, funcs := range []int{20, 60, 150} {
			for k := 0; k < limit(5); k++ {
				opts := testgen.Options{Funcs: funcs, Recursion: true, Pointers: true, FuncPtrs: true, Extern: true}
				j, err := testgenJob(r, fmt.Sprintf("gen%d-%d", funcs, k), opts, inlinec.DefaultParams(), 1, 1)
				if err != nil {
					return nil, err
				}
				w.jobs = append(w.jobs, j)
			}
		}
	case "guarded-minimal":
		// Region splits and devirtualization guards, weighted by
		// minimal-instrumentation profiles that flow conservation completes.
		w.weights, w.runsInPass, w.mode = measured, true, interp.ProfileMinimal
		w.jobs = append(w.jobs, suiteJob(seed, "funcptrs", guardedParams()))
		shapes := []testgen.Options{
			{Funcs: 6, HotColdBodies: true, DominantFuncPtr: true},
			{Funcs: 5, HotColdBodies: true},
			{Funcs: 7, DominantFuncPtr: true, MaxStmts: 8},
			{Funcs: 8, HotColdBodies: true, DominantFuncPtr: true, Extern: true},
		}
		r := rngFor(seed, "testgen/guarded")
		for k := 0; k < limit(16); k++ {
			j, err := testgenJob(r, fmt.Sprintf("guard%d", k), shapes[k%len(shapes)], partialDevirtParams(), 3, 1)
			if err != nil {
				return nil, err
			}
			w.jobs = append(w.jobs, j)
		}
	case "profdb-hybrid":
		// Build only: weights come from a profile store each build fills
		// with sampled producer snapshots and then reads back.
		w.weights = hybrid
		for _, n := range suite(bench.SuiteNames()) {
			j := suiteJob(seed, n, inlinec.DefaultParams())
			r := rngFor(seed, "snapshots/"+n)
			for k := 0; k < snapshotsPerJob; k++ {
				j.snapInput = append(j.snapInput, r.Intn(len(j.train)))
				j.snapGen = append(j.snapGen, r.Intn(snapshotGens))
			}
			w.jobs = append(w.jobs, j)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	return w, nil
}

// fingerprint hashes everything the seed generated: sources, parameters,
// inputs and the snapshot plan. Two result files measured different
// things exactly when their fingerprints differ.
func (w *workload) fingerprint() string {
	h := sha256.New()
	str := func(s string) {
		num(h, len(s))
		h.Write([]byte(s))
	}
	inputs := func(ins []inlinec.Input) {
		num(h, len(ins))
		for _, in := range ins {
			str(string(in.Stdin))
			num(h, in.StackSize)
			names := make([]string, 0, len(in.Files))
			for n := range in.Files {
				names = append(names, n)
			}
			sort.Strings(names)
			num(h, len(names))
			for _, n := range names {
				str(n)
				str(string(in.Files[n]))
			}
		}
	}
	str(w.name)
	str(w.mode)
	num(h, int(w.weights))
	for _, j := range w.jobs {
		str(j.name)
		str(j.src)
		pr := j.params
		pr.Obs = nil
		str(fmt.Sprintf("%+v", pr))
		inputs(j.train)
		inputs(j.eval)
		for k := range j.snapInput {
			num(h, j.snapInput[k])
			num(h, j.snapGen[k])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func num(h hash.Hash, n int) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(n))
	h.Write(b[:])
}

package main

import (
	"bytes"
	"fmt"
	"maps"

	"inlinec"
	"inlinec/internal/interp"
)

// outcome is everything observable about one run.
type outcome struct {
	stdout, stderr string
	exit           int64
	files          map[string][]byte
	err            string
	il, calls      int64
}

// same reports whether a run of the inlined module behaved exactly like
// the oracle's run of the original.
func (o *outcome) same(ref *outcome) bool {
	return o.err == ref.err && o.stdout == ref.stdout && o.stderr == ref.stderr &&
		o.exit == ref.exit && maps.EqualFunc(o.files, ref.files, bytes.Equal)
}

// newEnv builds a run's simulated environment exactly as Program.Run
// does, copying the input files so the run cannot alias them.
func newEnv(in inlinec.Input) *interp.Env {
	env := interp.NewEnv()
	for k, v := range in.Files {
		env.Files[k] = append([]byte(nil), v...)
	}
	env.Stdin = in.Stdin
	return env
}

func envOutcome(env *interp.Env, exit, il, calls int64) outcome {
	return outcome{stdout: env.Stdout.String(), stderr: env.Stderr.String(), exit: exit, files: env.Files, il: il, calls: calls}
}

// setup prepares a generated workload for timing: the oracle outcome of
// every evaluation input, from the un-inlined original module on the
// switch engine (the reference interpreter the bytecode engine is tested
// against), and the producer snapshots of a hybrid workload.
func setup(w *workload) error {
	for _, j := range w.jobs {
		if err := setupJob(w, j); err != nil {
			return fmt.Errorf("%s: setup %s: %w", w.name, j.name, err)
		}
	}
	return nil
}

func setupJob(w *workload, j *job) error {
	p, err := inlinec.Compile(j.name+".c", j.src)
	if err != nil {
		return err
	}
	j.oracle = make([]outcome, len(j.eval))
	// One machine serves every input with the same stack size: a Machine
	// restores its exact initial state on each Run.
	var m *interp.Machine
	stack := 0
	for k, in := range j.eval {
		env := newEnv(in)
		if m == nil || in.StackSize != stack {
			m, err = interp.NewMachine(p.Original, env, interp.Options{StackSize: in.StackSize, Engine: interp.EngineSwitch})
			if err != nil {
				return err
			}
			stack = in.StackSize
		}
		m.SetEnv(env)
		st, err := m.Run()
		if err != nil {
			// A workload must be one on which no operation fails.
			return fmt.Errorf("oracle run %d: %w", k, err)
		}
		j.oracle[k] = envOutcome(env, st.ExitCode, st.IL, st.Calls)
	}
	if w.weights != hybrid {
		return nil
	}
	p.ProfileMode = interp.ProfileSampled
	p.SampleRate = producerSampleRate
	profiles := make(map[int]*inlinec.Profile)
	for k, in := range j.snapInput {
		prof := profiles[in]
		if prof == nil {
			if prof, err = p.ProfileInputs(j.train[in]); err != nil {
				return fmt.Errorf("producer profile: %w", err)
			}
			profiles[in] = prof
		}
		rec, err := p.Snapshot(prof, j.snapGen[k])
		if err != nil {
			return err
		}
		j.snaps = append(j.snaps, rec)
	}
	return nil
}

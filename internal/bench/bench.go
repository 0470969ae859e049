// Package bench contains the reproduction's benchmark suite: twelve
// miniature analogs of the UNIX programs measured by the paper (cccp, cmp,
// compress, eqn, espresso, grep, lex, make, tar, tee, wc, yacc), written
// in MiniC, together with deterministic input generators mirroring the
// paper's "representative inputs" methodology and the experiment driver
// that regenerates Tables 1 through 4.
package bench

import (
	"embed"
	"fmt"
	"strings"

	"inlinec"
)

//go:embed progs/*.c
var progFS embed.FS

// Benchmark is one suite entry: a MiniC program plus its input set.
type Benchmark struct {
	// Name matches the paper's benchmark name.
	Name string
	// Source is the MiniC program text.
	Source string
	// InputDesc matches Table 1's "input description" column.
	InputDesc string
	// Inputs holds one entry per profiling run (Table 1's "runs" column is
	// len(Inputs)).
	Inputs []inlinec.Input
}

// CLines counts non-blank source lines, the paper's static size metric.
func (b *Benchmark) CLines() int {
	n := 0
	for _, line := range strings.Split(b.Source, "\n") {
		if strings.TrimSpace(line) != "" {
			n++
		}
	}
	return n
}

// Compile builds the benchmark program under the default options.
func (b *Benchmark) Compile() (*inlinec.Program, error) { return b.compileWith(inlinec.Options{}) }

// compileWith builds the benchmark program under o.
func (b *Benchmark) compileWith(o inlinec.Options) (*inlinec.Program, error) {
	p, err := inlinec.CompileWith(o, b.Name+".c", b.Source)
	if err != nil {
		return nil, fmt.Errorf("benchmark %s: %w", b.Name, err)
	}
	return p, nil
}

// loadSource reads an embedded benchmark program.
func loadSource(name string) string {
	data, err := progFS.ReadFile("progs/" + name + ".c")
	if err != nil {
		panic(fmt.Sprintf("bench: missing embedded program %s: %v", name, err))
	}
	return string(data)
}

// registry is populated by Suite on first use.
var registry map[string]*Benchmark

// Suite returns all twelve benchmarks in the paper's table order.
func Suite() []*Benchmark {
	if registry == nil {
		registry = make(map[string]*Benchmark)
		for _, b := range buildSuite() {
			registry[b.Name] = b
		}
	}
	names := SuiteNames()
	out := make([]*Benchmark, len(names))
	for i, n := range names {
		out[i] = registry[n]
	}
	return out
}

// SuiteNames lists the benchmark names in the paper's table order.
func SuiteNames() []string {
	return []string{
		"cccp", "cmp", "compress", "eqn", "espresso", "grep",
		"lex", "make", "tar", "tee", "wc", "yacc",
	}
}

// Get returns one benchmark by name, or nil.
func Get(name string) *Benchmark {
	Suite()
	return registry[name]
}

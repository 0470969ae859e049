package inlinec

import (
	"strings"
	"testing"

	"inlinec/internal/interp"
	"inlinec/internal/ir"
	"inlinec/internal/irgen"
	"inlinec/internal/parser"
	"inlinec/internal/predict"
	"inlinec/internal/profdb"
	"inlinec/internal/profile"
	"inlinec/internal/sema"
)

// FuzzCompileAndRun drives the whole pipeline on arbitrary source: any
// input that survives the front end must lower to verified IL, execute
// under a small instruction budget without panicking, and still behave
// identically after inline expansion. Runtime errors (faults, overflow,
// budget) are fine; panics and divergence are not.
func FuzzCompileAndRun(f *testing.F) {
	seeds := []string{
		"int main() { return 42; }",
		`extern int printf(char *f, ...);
int sq(int x) { return x * x; }
int main() { printf("%d\n", sq(7)); return 0; }`,
		`int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
int main() { return fib(10); }`,
		`int main() { int a[4]; int i; for (i=0;i<4;i++) a[i]=i; return a[3]; }`,
		`struct P { int x; char c; };
int main() { struct P p; p.x = 1; p.c = 'z'; return p.x + p.c; }`,
		`int h(int x) { return x ^ 0x5a; }
int g(int x) { return h(x) + h(x+1); }
int main() { int i; int s; s=0; for (i=0;i<9;i++) s+=g(i); return s & 0x7f; }`,
		`int main() { char *s; s = "abc"; return s[0] + s[1]; }`,
		`int main() { int x; x = 1 / 1; return x % 1; }`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	for _, c := range hostileSizeSrcs {
		f.Add(c.src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<14 {
			t.Skip()
		}
		file, err := parser.Parse("fuzz.c", src)
		if err != nil {
			return
		}
		prog, err := sema.Check(file)
		if err != nil {
			return
		}
		mod, err := irgen.Generate(prog)
		if err != nil {
			return
		}
		if err := mod.Verify(); err != nil {
			t.Fatalf("front end produced invalid IL: %v\nsource:\n%s", err, src)
		}
		if mod.Func("main") == nil {
			return
		}
		run := func(m *ir.Module) (string, bool) {
			mm, err := interp.NewMachine(m, interp.NewEnv(), interp.Options{
				MaxIL: 200000, StackSize: 1 << 20, HeapSize: 1 << 20,
			})
			if err != nil {
				return "", false
			}
			if _, err := mm.Run(); err != nil {
				return "", false
			}
			return mm.Env.Stdout.String(), true
		}
		before, okBefore := run(mod)
		if !okBefore {
			return // runtime error: acceptable, nothing to compare
		}
		p := &Program{Module: mod, Original: mod.Clone(), name: "fuzz.c"}
		prof, err := p.ProfileInputs(Input{})
		if err != nil {
			return
		}
		params := DefaultParams()
		params.WeightThreshold = 1
		params.SizeLimitFactor = 3.0
		if _, err := p.Inline(prof, params); err != nil {
			t.Fatalf("inline failed on valid program: %v\nsource:\n%s", err, src)
		}
		after, okAfter := run(p.Module)
		if !okAfter {
			t.Fatalf("program broke after inlining\nsource:\n%s", src)
		}
		if before != after {
			t.Fatalf("inlining changed output %q -> %q\nsource:\n%s", before, after, src)
		}
	})
}

// FuzzPartialInlineEquivalence drives the guarded expanders on arbitrary
// source with a deliberately tight per-callee limit, so region-based
// partial inlining and pointer-call devirtualization fire wherever they
// can. Any program that survives the front end must behave identically
// after guarded expansion — the guards are plain IL, so divergence means
// a broken region plan or guard, not an interpreter gap.
func FuzzPartialInlineEquivalence(f *testing.F) {
	seeds := []string{
		`int big(int x) {
	int i; int s;
	if (x < 8) return x * 3 + 1;
	s = 0;
	for (i = 0; i < x; i++) { s += i * x; s ^= s >> 2; s += big(i & 7); }
	return s;
}
int main() { int i; int s; s = 0; for (i = 0; i < 40; i++) s += big(i & 11); return s & 0x7f; }`,
		`int one(int x) { return x + 1; }
int two(int x) { return x + 2; }
int main() {
	int i; int s; int (*fp)(int);
	s = 0;
	for (i = 0; i < 32; i++) { if ((i & 7) != 3) fp = one; else fp = two; s += fp(i); }
	return s & 0xff;
}`,
		`extern int printf(char *f, ...);
int work(int x) {
	if (x & 1) return x ^ 21;
	printf("%d\n", x);
	return x + 3;
}
int main() { int i; int s; s = 0; for (i = 0; i < 12; i++) s += work(i); return s & 0x7f; }`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<14 {
			t.Skip()
		}
		file, err := parser.Parse("fuzz.c", src)
		if err != nil {
			return
		}
		prog, err := sema.Check(file)
		if err != nil {
			return
		}
		mod, err := irgen.Generate(prog)
		if err != nil {
			return
		}
		if mod.Verify() != nil || mod.Func("main") == nil {
			return
		}
		run := func(m *ir.Module) (string, bool) {
			mm, err := interp.NewMachine(m, interp.NewEnv(), interp.Options{
				MaxIL: 200000, StackSize: 1 << 20, HeapSize: 1 << 20,
			})
			if err != nil {
				return "", false
			}
			if _, err := mm.Run(); err != nil {
				return "", false
			}
			return mm.Env.Stdout.String(), true
		}
		before, okBefore := run(mod)
		if !okBefore {
			return
		}
		p := &Program{Module: mod, Original: mod.Clone(), name: "fuzz.c"}
		prof, err := p.ProfileInputs(Input{})
		if err != nil {
			return
		}
		params := DefaultParams()
		params.WeightThreshold = 1
		params.SizeLimitFactor = 3.0
		params.MaxCalleeSize = 20
		params.PartialInline = true
		params.DevirtThreshold = 0.5
		res, err := p.Inline(prof, params)
		if err != nil {
			t.Fatalf("guarded inline failed on valid program: %v\nsource:\n%s", err, src)
		}
		if err := p.Module.Verify(); err != nil {
			t.Fatalf("guarded expansion produced invalid IL: %v\nsource:\n%s", err, src)
		}
		after, okAfter := run(p.Module)
		if !okAfter {
			t.Fatalf("program broke after guarded expansion (expanded %v)\nsource:\n%s", res.Expanded, src)
		}
		if before != after {
			t.Fatalf("guarded expansion changed output %q -> %q\nsource:\n%s", before, after, src)
		}
	})
}

// FuzzReadProfile attacks the legacy ILPROF decoder. The corpus seeds the
// strict-mode rejections (duplicate directives, duplicate func/site
// entries, trailing garbage) alongside valid files; the invariant is that
// anything accepted must round-trip byte-identically through WriteTo.
func FuzzReadProfile(f *testing.F) {
	valid := "ILPROF 1\nruns 2\nil 100\ncontrol 20\ncalls 10\nreturns 10\nextern 1\nptr 0\nmaxstack 256\ntruncated 0\nfunc main 2\nfunc work 50\nsite 0 50\n"
	seeds := []string{
		valid,
		valid + "target 0 work 30\ntarget 0 other 20\n",
		valid + "target 0 work 30\ntarget 0 work 1\n", // duplicate target entry
		valid + "target 0 work\n",                     // wrong field count
		"ILPROF 1\nruns 1\n",
		strings.Replace(valid, "truncated 0\n", "", 1), // truncated is optional
		valid + "runs 3\n",                             // duplicate scalar directive
		valid + "func main 9\n",                        // duplicate func entry
		valid + "site 0 1\n",                           // duplicate site entry
		valid + "garbage trailing line\n",
		valid + "site 1\n", // wrong field count
		valid + "site x y\n",
		"ILPROF 2\nruns 1\n", // bad version
		"runs 1\n",           // missing magic
		"ILPROF 1\nruns -1\n",
		"ILPROF 1\n# comment\n\nruns 1\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data string) {
		if len(data) > 1<<16 {
			t.Skip()
		}
		prof, err := profile.ReadProfile(strings.NewReader(data))
		if err != nil {
			return
		}
		var first strings.Builder
		if _, err := prof.WriteTo(&first); err != nil {
			t.Fatalf("accepted profile does not serialize: %v", err)
		}
		back, err := profile.ReadProfile(strings.NewReader(first.String()))
		if err != nil {
			t.Fatalf("serialized profile does not re-parse: %v\n%s", err, first.String())
		}
		var second strings.Builder
		back.WriteTo(&second)
		if first.String() != second.String() {
			t.Fatalf("profile round trip not a fixed point:\n%s\nvs\n%s", first.String(), second.String())
		}
	})
}

// FuzzProfDBDecoder attacks the database and snapshot decoders with their
// stable-key site lines. Accepted input must round-trip byte-identically,
// and merging whatever was accepted must not panic.
func FuzzProfDBDecoder(f *testing.F) {
	validDB := "ILPROFDB 1\nprogram p.c\nrecord aaaa000011112222 0\nruns 2\nil 100\ncalls 10\nfunc main 2\nsite main work 0 00ff00ff 50\nend\nrecord aaaa000011112222 1\nruns 1\nil 60\nend\n"
	validSnap := "ILPROFSNAP 1\nprogram p.c\nfingerprint aaaa000011112222\ngen 3\nruns 2\nil 100\nfunc main 2\nsite main work 0 00ff00ff 50\n"
	seeds := []string{
		validDB,
		validSnap,
		strings.Replace(validDB, "end\nrecord", "target main work 0 00ff00ff work 30\nend\nrecord", 1),
		validSnap + "target main work 0 00ff00ff work 30\ntarget main work 0 00ff00ff other 20\n",
		validSnap + "target main work 0 00ff00ff work 30\ntarget main work 0 00ff00ff work 1\n", // duplicate target
		"ILPROFDB 1\nprogram p.c\n",                                                           // empty store
		strings.Replace(validDB, "end\nrecord", "record", 1),                                  // unterminated record
		strings.Replace(validDB, "record aaaa000011112222 1", "record aaaa000011112222 0", 1), // duplicate record
		validDB + "trailing\n",
		strings.Replace(validDB, "site main work 0 00ff00ff 50", "site main work 0 zz 50", 1), // bad poshash
		strings.Replace(validDB, "runs 2", "runs 0", 1),                                       // runs must be positive
		strings.Replace(validSnap, "fingerprint aaaa000011112222\n", "", 1),                   // fingerprint required
		validSnap + "gen 4\n",                                                                 // duplicate directive
		"ILPROFDB 2\n",
		"ILPROFSNAP 1\nprogram p.c\nfingerprint f\ngen 0\nruns 1\nsite a b 0 00000000 1\nsite a b 0 00000000 2\n", // duplicate site
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data string) {
		if len(data) > 1<<16 {
			t.Skip()
		}
		if db, err := profdb.ReadDB(strings.NewReader(data)); err == nil {
			var first strings.Builder
			if _, err := db.WriteTo(&first); err != nil {
				t.Fatalf("accepted database does not serialize: %v", err)
			}
			back, err := profdb.ReadDB(strings.NewReader(first.String()))
			if err != nil {
				t.Fatalf("serialized database does not re-parse: %v\n%s", err, first.String())
			}
			var second strings.Builder
			back.WriteTo(&second)
			if first.String() != second.String() {
				t.Fatalf("database round trip not a fixed point:\n%s\nvs\n%s", first.String(), second.String())
			}
			for k := range db.Records {
				db.Merge(k.Fingerprint, profdb.DefaultMergeParams())
				break // one representative fingerprint is enough
			}
		}
		if program, rec, err := profdb.ReadSnapshot(strings.NewReader(data)); err == nil {
			var first strings.Builder
			if _, err := profdb.WriteSnapshot(&first, program, rec); err != nil {
				t.Fatalf("accepted snapshot does not serialize: %v", err)
			}
			program2, rec2, err := profdb.ReadSnapshot(strings.NewReader(first.String()))
			if err != nil {
				t.Fatalf("serialized snapshot does not re-parse: %v\n%s", err, first.String())
			}
			var second strings.Builder
			profdb.WriteSnapshot(&second, program2, rec2)
			if first.String() != second.String() {
				t.Fatalf("snapshot round trip not a fixed point:\n%s\nvs\n%s", first.String(), second.String())
			}
		}
	})
}

// FuzzPredictModelDecoder attacks the strict ILPREDICT parser. Accepted
// models must be valid (finite coefficients, sane structural parameters)
// and serialize to a byte-identical fixed point — the property that lets
// the calibration pass check in its output and re-read it losslessly.
func FuzzPredictModelDecoder(f *testing.F) {
	var valid strings.Builder
	if _, err := predict.DefaultModel().WriteTo(&valid); err != nil {
		f.Fatal(err)
	}
	v := valid.String()
	seeds := []string{
		v,
		strings.Replace(v, "coef bias", "coef bogus", 1), // unknown feature
		strings.Replace(v, "param scale 64", "", 1),      // missing parameter
		v + "coef bias 0\n",                              // duplicate coefficient
		v + "param scale 64\n",                           // duplicate parameter
		strings.Replace(v, "ILPREDICT 1", "ILPREDICT 2", 1),
		strings.Replace(v, "param scale 64", "param scale NaN", 1),
		strings.Replace(v, "param scale 64", "param scale +Inf", 1),
		strings.Replace(v, "param domshare 0.9375", "param domshare 1.5", 1), // out of range
		strings.Replace(v, " 0.9375", " 0.93750", 1),                         // non-canonical spelling
		"ILPREDICT 1\n", // nothing else
		"coef bias 0\n", // missing magic
		v + "garbage\n",
		strings.Replace(v, "\n", "\r\n", 1),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data string) {
		if len(data) > 1<<16 {
			t.Skip()
		}
		m, err := predict.ReadModel(strings.NewReader(data))
		if err != nil {
			return
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("accepted model fails validation: %v", err)
		}
		var first strings.Builder
		if _, err := m.WriteTo(&first); err != nil {
			t.Fatalf("accepted model does not serialize: %v", err)
		}
		back, err := predict.ReadModel(strings.NewReader(first.String()))
		if err != nil {
			t.Fatalf("serialized model does not re-parse: %v\n%s", err, first.String())
		}
		var second strings.Builder
		back.WriteTo(&second)
		if first.String() != second.String() {
			t.Fatalf("model round trip not a fixed point:\n%s\nvs\n%s", first.String(), second.String())
		}
	})
}

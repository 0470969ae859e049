package inlinec

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestTypedefChainDiagnosed: a type built a million typedefs deep (each
// typedef adds a pointer level without any parser nesting) still gets a
// short, positioned diagnostic when it is misused, in about the time the
// declarations alone take. Rendering its name used to cost time
// quadratic in the depth and print one byte per level.
func TestTypedefChainDiagnosed(t *testing.T) {
	const n = 1000000
	var sb strings.Builder
	sb.WriteString("typedef int t0;\n")
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&sb, "typedef t%d *t%d;\n", i-1, i)
	}
	fmt.Fprintf(&sb, "struct S { int a; };\nint main() { struct S s; t%d x; s = x; return 0; }\n", n)
	start := time.Now()
	_, err := Compile("chain.c", sb.String())
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("compiled without error")
	}
	msg := err.Error()
	if !strings.Contains(msg, fmt.Sprintf("chain.c:%d:", n+3)) || len(msg) > 400 {
		t.Errorf("want a positioned diagnostic of at most 400 bytes, got %d bytes: %.600q", len(msg), msg)
	}
	if elapsed > 5*time.Second && !raceEnabled {
		t.Errorf("diagnosing took %v, want under 5s", elapsed)
	}
	t.Logf("%v: %s", elapsed, msg)
}

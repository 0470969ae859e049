package inlinec

import (
	"strings"
	"testing"
)

// TestDeepNestingDiagnosed: source nested a million levels deep — in
// every shape the front end recurses on — is rejected with a positioned
// "nesting too deep" diagnostic instead of overflowing the Go stack.
func TestDeepNestingDiagnosed(t *testing.T) {
	const n = 1000000
	rep := strings.Repeat
	cases := []struct{ name, src string }{
		{"parens", "int main() { return " + rep("(", n) + "1" + rep(")", n) + "; }"},
		{"not", "int main() { return " + rep("!", n) + "1; }"},
		{"casts", "int main() { return " + rep("(int)", n) + "1; }"},
		{"blocks", "int main() { " + rep("{", n) + rep("}", n) + " return 0; }"},
		{"else-if", "int main() { if (0) return 1; " + rep("else if (0) return 1; ", n) + "return 0; }"},
		{"plus-chain", "int main() { return 1" + rep("+1", n) + "; }"},
		{"assign-chain", "int main() { int a; a" + rep("=a", n) + "; return a; }"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Compile("deep.c", tc.src)
			if err == nil {
				t.Fatal("compiled without error")
			}
			if msg := err.Error(); !strings.Contains(msg, "deep.c:1:") || !strings.Contains(msg, "nesting too deep") {
				t.Errorf("want a positioned nesting diagnostic, got %q", msg)
			}
		})
	}
}

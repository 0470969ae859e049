package bench

import (
	"strings"
	"testing"
)

// TestAblationReport pins the whole ablation report, built on two
// inputs per program, to a golden file. Refresh with `go test
// ./internal/bench -run AblationReport -update`.
func TestAblationReport(t *testing.T) {
	if testing.Short() {
		t.Skip("runs many experiment configurations")
	}
	report, err := AblationReport(quickConfig())
	if err != nil {
		t.Fatalf("AblationReport: %v", err)
	}
	checkGolden(t, "ablation.golden", report)
}

func TestICacheReport(t *testing.T) {
	report, err := ICacheReport([]string{"tee"}, []int{256, 1024}, quickConfig())
	if err != nil {
		t.Fatalf("ICacheReport: %v", err)
	}
	if !strings.Contains(report, "tee") || !strings.Contains(report, "256B") {
		t.Errorf("report = %q", report)
	}
	if _, err := ICacheReport([]string{"bogus"}, []int{256}, quickConfig()); err == nil {
		t.Error("unknown benchmark must fail")
	}
}

package runtimebench

import (
	"testing"
	"time"
)

// TestRunExpirySmoke runs every scenario at a tiny window and checks
// shape: one cell per scenario, no errors, nonzero ops, and get
// throughput recorded.
func TestRunExpirySmoke(t *testing.T) {
	rep, err := RunExpiry(ExpiryOptions{
		Goroutines: []int{2},
		Duration:   10 * time.Millisecond,
		Capacity:   256,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 3 { // one per scenario, one goroutine count
		t.Fatalf("got %d cells, want 3", len(rep.Cells))
	}
	seen := map[string]bool{}
	for _, c := range rep.Cells {
		if c.Err != "" {
			t.Fatalf("cell %s/%s: %s", c.Backend, c.Structure, c.Err)
		}
		if c.Ops == 0 || c.Mops == 0 {
			t.Fatalf("cell %s/%s measured no ops", c.Backend, c.Structure)
		}
		if c.GetOps == 0 {
			t.Fatalf("cell %s/%s measured no reads", c.Backend, c.Structure)
		}
		seen[c.Backend+"/"+c.Structure] = true
	}
	for _, sc := range []string{ScenarioExpiryStorm, ScenarioHotKeySkew, ScenarioScanHeavy} {
		if !seen[ModeWheel+"/"+sc] {
			t.Fatalf("missing cell %s/%s", ModeWheel, sc)
		}
	}
}

func TestRunExpiryRejectsUnknown(t *testing.T) {
	if _, err := RunExpiry(ExpiryOptions{Scenarios: []string{"bogus"}}); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

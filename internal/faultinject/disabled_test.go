//go:build !faultinject

package faultinject

import "testing"

// TestDisabledIsInert pins the production contract: without the
// faultinject build tag every entry point is a no-op and Point never
// injects, no matter what configuration calls were made.
func TestDisabledIsInert(t *testing.T) {
	Enable(42, 1)
	EnableSite("persist.journal.append", ModePanic, 1)
	defer Disable()
	if Enabled() {
		t.Error("Enabled() true in a !faultinject build")
	}
	for i := 0; i < 100; i++ {
		if err := Point("persist.journal.append"); err != nil {
			t.Fatalf("Point injected in a !faultinject build: %v", err)
		}
	}
	if Stats() != nil {
		t.Error("Stats() non-nil in a !faultinject build")
	}
}

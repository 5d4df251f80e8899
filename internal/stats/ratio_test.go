package stats

import "testing"

func TestRatio(t *testing.T) {
	if got := Ratio(1, 4); got != 25 {
		t.Errorf("Ratio(1,4) = %g, want 25", got)
	}
	if got := Ratio(3, 0); got != 0 {
		t.Errorf("Ratio with zero denominator = %g, want 0", got)
	}
}

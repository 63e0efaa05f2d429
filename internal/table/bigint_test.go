package table

import "testing"

// TestCompareExactForBigInts pins the int/int exact-comparison fix: 2^53+1
// and 2^53 must not compare equal through float64 conversion.
func TestCompareExactForBigInts(t *testing.T) {
	a, b := Int(9007199254740993), Int(9007199254740992)
	if Compare(a, b) != 1 {
		t.Errorf("Compare(2^53+1, 2^53) = %d, want 1", Compare(a, b))
	}
	if Compare(a, b) == 0 {
		t.Error("2^53+1 must not equal 2^53")
	}
	// Int/float pairs still unify numerically.
	if Compare(Int(2), Float(2.0)) != 0 {
		t.Error("Int(2) should equal Float(2.0)")
	}
}

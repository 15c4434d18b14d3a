package runtime

import (
	"math"
	"math/big"
	"testing"
	"testing/quick"
)

// Property tests for the checked-arithmetic laws the compiled code relies
// on. Operands are drawn from int32 so the reference computations cannot
// themselves overflow.

// Division law: a == m*Quotient[a, m] + Mod[a, m], with Mod's sign following
// the modulus and |Mod| < |m|.
func TestModQuotDivisionLawQuick(t *testing.T) {
	f := func(a32, m32 int32) bool {
		if m32 == 0 {
			return true
		}
		a, m := int64(a32), int64(m32)
		q, r := QuotI64(a, m), ModI64(a, m)
		if m*q+r != a {
			return false
		}
		if r != 0 && ((r < 0) != (m < 0)) {
			return false
		}
		abs := func(x int64) int64 {
			if x < 0 {
				return -x
			}
			return x
		}
		return abs(r) < abs(m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// PowI64 agrees with arbitrary-precision exponentiation wherever the result
// fits in an int64, and throws ExcOverflow (the F2 soft-failure trigger)
// wherever it does not.
func TestPowMatchesBigIntQuick(t *testing.T) {
	f := func(b8 int8, e8 uint8) bool {
		base := int64(b8 % 10)
		exp := int64(e8 % 64)
		want := new(big.Int).Exp(big.NewInt(base), big.NewInt(exp), nil)
		var got int64
		exc := catch(func() { got = PowI64(base, exp) })
		if want.IsInt64() {
			return exc == nil && got == want.Int64()
		}
		return exc != nil && exc.Kind == ExcOverflow
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// String laws used by the compiled string pipeline: joining preserves rune
// counts, and taking the first (or last) part of a join recovers the piece.
func TestStringJoinTakeLawsQuick(t *testing.T) {
	f := func(a, b string) bool {
		joined := a + b
		if StringRuneLen(joined) != StringRuneLen(a)+StringRuneLen(b) {
			return false
		}
		if StringTakeN(joined, StringRuneLen(a)) != a {
			return false
		}
		return StringTakeN(joined, -StringRuneLen(b)) == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// Character-code round trip: FromCharCodes(ToCharCodes(s)) == s for any
// valid string.
func TestCharCodeRoundTripQuick(t *testing.T) {
	f := func(s string) bool {
		return FromCharCodes(ToCharCodes(s)) == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// Checked negation: NegI64 agrees with big-int negation or overflows only
// at INT64_MIN.
func TestNegI64Quick(t *testing.T) {
	f := func(a int64) bool {
		exc := catch(func() { _ = NegI64(a) })
		if a == -1<<63 {
			return exc != nil
		}
		return exc == nil && NegI64(a) == -a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// BitShiftLeft agrees with arbitrary-precision shifting wherever the result
// fits in an int64 and throws ExcOverflow wherever it does not; negative
// counts (left unevaluated by the interpreter) throw in both directions.
func TestShiftsMatchBigIntQuick(t *testing.T) {
	f := func(a int64, n8 int8) bool {
		n := int64(n8) // -128..127: negative, in-range and past-64 counts
		var got int64
		exc := catch(func() { got = ShlI64(a, n) })
		if n < 0 {
			rexc := catch(func() { ShrI64(a, n) })
			return exc != nil && exc.Kind == ExcOverflow && rexc != nil && rexc.Kind == ExcOverflow
		}
		want := new(big.Int).Lsh(big.NewInt(a), uint(n))
		if want.IsInt64() {
			if exc != nil || got != want.Int64() {
				return false
			}
		} else if exc == nil || exc.Kind != ExcOverflow {
			return false
		}
		return ShrI64(a, n) == new(big.Int).Rsh(big.NewInt(a), uint(n)).Int64()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// Edge cases the property tests' small operands never reach: each either
// returns the exact machine result or throws, and none runs long.
func TestCheckedArithmeticEdges(t *testing.T) {
	const minI, maxI = math.MinInt64, math.MaxInt64
	for _, c := range []struct {
		name string
		f    func() int64
		want int64
		exc  bool
	}{
		{"1<<64", func() int64 { return ShlI64(1, 64) }, 0, true},
		{"1<<63", func() int64 { return ShlI64(1, 63) }, 0, true},
		{"-1<<63", func() int64 { return ShlI64(-1, 63) }, minI, false},
		{"0<<MaxInt64", func() int64 { return ShlI64(0, maxI) }, 0, false},
		{"-8>>MaxInt64", func() int64 { return ShrI64(-8, maxI) }, -1, false},
		{"0^MaxInt64", func() int64 { return PowI64(0, maxI) }, 0, false},
		{"-1^MaxInt64", func() int64 { return PowI64(-1, maxI) }, -1, false},
		{"-2^63", func() int64 { return PowI64(-2, 63) }, minI, false},
		{"2^63", func() int64 { return PowI64(2, 63) }, 0, true},
		{"3^MaxInt64", func() int64 { return PowI64(3, maxI) }, 0, true},
		{"Quotient[MinInt64, -1]", func() int64 { return QuotI64(minI, -1) }, 0, true},
		{"Floor[1e308]", func() int64 { return RealToI64(1e308) }, 0, true},
		{"Floor[NaN]", func() int64 { return RealToI64(math.NaN()) }, 0, true},
		{"Floor[-2^63]", func() int64 { return RealToI64(-0x1p63) }, minI, false},
	} {
		var got int64
		exc := catch(func() { got = c.f() })
		if c.exc != (exc != nil) || (!c.exc && got != c.want) {
			t.Errorf("%s = %d (exception %v), want %d (exception %v)", c.name, got, exc, c.want, c.exc)
		}
	}
	if z := PowCInt(complex(0, 1), minI); z != 1 {
		t.Errorf("I^MinInt64 = %v, want 1", z)
	}
}

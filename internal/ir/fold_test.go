package ir

import (
	"math"
	"testing"
)

// TestBinOpFold pins the IR's arithmetic: every operator, the signed
// division and comparison edges, division by zero and shift counts past
// the word width.
func TestBinOpFold(t *testing.T) {
	const (
		minInt = uint32(1) << 31 // MinInt32 as a word
		neg1   = math.MaxUint32  // -1 as a word
	)
	cases := []struct {
		op   BinOp
		a, b uint32
		want uint32
	}{
		{Add, 2, 3, 5},
		{Add, neg1, 1, 0},
		{Sub, 3, 5, neg1 - 1},
		{Mul, 6, 7, 42},
		{Mul, 0x10000, 0x10000, 0},
		{Div, 7, 2, 3},
		{Div, 5, 0, 0},
		{Div, neg1 - 6, 2, neg1 - 2}, // -7 / 2 = -3: signed, truncating
		{Div, 7, neg1, neg1 - 6},     // 7 / -1 = -7
		{Div, minInt, neg1, minInt},  // MinInt32 / -1 wraps
		{And, 0xf0f0, 0xff00, 0xf000},
		{Or, 0xf0f0, 0x0f00, 0xfff0},
		{Xor, 0xff, 0x0f, 0xf0},
		{Shl, 1, 4, 16},
		{Shl, 1, 31, minInt},
		{Shl, 1, 32, 1}, // count mod 32
		{Shl, 1, 33, 2},
		{Shr, minInt, 31, 1}, // logical
		{Shr, neg1, 4, 0x0fffffff},
		{Shr, 16, 36, 1},
		{CmpEQ, 4, 4, 1},
		{CmpEQ, 4, 5, 0},
		{CmpNE, 4, 5, 1},
		{CmpNE, 4, 4, 0},
		{CmpLT, neg1, 1, 1}, // signed: -1 < 1
		{CmpLT, 1, neg1, 0},
		{CmpLT, 3, 3, 0},
		{CmpLT, minInt, math.MaxInt32, 1},
		{CmpGE, 3, 3, 1},
		{CmpGE, neg1, 0, 0},
		{CmpGE, math.MaxInt32, minInt, 1},
		{BinOp(99), 1, 2, 0},
	}
	seen := map[BinOp]bool{}
	for _, c := range cases {
		seen[c.op] = true
		if got := c.op.Fold(c.a, c.b); got != c.want {
			t.Errorf("%s.Fold(%#x, %#x) = %#x, want %#x", c.op, c.a, c.b, got, c.want)
		}
	}
	for op := Add; op <= CmpGE; op++ {
		if !seen[op] {
			t.Errorf("no case covers %s", op)
		}
	}
}

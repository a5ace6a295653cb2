package ir

import (
	"testing"

	"fits/internal/isa"
)

// chunkState is one lifter array's backing array: the address of its first
// slot (nil when there is none), its length and its capacity.
type chunkState struct {
	first    any
	len, cap int
}

func stateOf[T any](s []T) chunkState {
	st := chunkState{len: len(s), cap: cap(s)}
	if cap(s) > 0 {
		st.first = &s[:1][0]
	}
	return st
}

func lifterChunks(l *Lifter) map[string]chunkState {
	return map[string]chunkState{
		"stmts": stateOf(l.code.Stmts), "starts": stateOf(l.code.Starts),
	}
}

// liftReserved lifts ins at consecutive addresses from base after reserving
// for them, and fails unless the statement and start arrays finished
// exactly full in the arrays Reserve allocated.
func liftReserved(t *testing.T, what string, base uint32, ins []isa.Instr) {
	t.Helper()
	l := new(Lifter)
	l.Reserve(ins)
	reserved := lifterChunks(l)
	for i, in := range ins {
		if err := l.Lift(base+uint32(i*isa.Width), in); err != nil {
			t.Fatalf("%s: lift %v: %v", what, in, err)
		}
	}
	for name, got := range lifterChunks(l) {
		if got.first != reserved[name].first {
			t.Errorf("%s: %s outgrew its reservation of %d and was reallocated", what, name, reserved[name].cap)
		} else if got.len != got.cap {
			t.Errorf("%s: %s reserved %d, used %d", what, name, got.cap, got.len)
		}
	}
}

// everyOpcode returns each opcode with small, large and negative immediates,
// so constant operands both hit and miss the shared small-constant range,
// and once more with SP as destination and source (push sp and pop sp lift
// to their own shapes).
func everyOpcode() []isa.Instr {
	var ins []isa.Instr
	for op := isa.OpNop; op.Valid(); op++ {
		for _, imm := range []int32{4, 0x1234, -8} {
			ins = append(ins, isa.Instr{Op: op, Rd: isa.R1, Rs1: isa.R2, Rs2: isa.SP, Imm: imm})
		}
		ins = append(ins, isa.Instr{Op: op, Rd: isa.SP, Rs1: isa.SP, Rs2: isa.R2, Imm: 4})
	}
	return ins
}

// TestReserveIsExact keeps Reserve's count table in step with Lift's
// templates: after reserving for exactly the instructions lifted, the
// statement and start arrays end full, never reallocated.
func TestReserveIsExact(t *testing.T) {
	for _, in := range everyOpcode() {
		liftReserved(t, in.String(), 0x10000, []isa.Instr{in})
	}
	// One function using every opcode, through each architecture's encoding
	// and decoder, lifted at that architecture's text base.
	fn := everyOpcode()
	for _, arch := range []isa.Arch{isa.ArchARM, isa.ArchAARCH, isa.ArchMIPS} {
		liftReserved(t, arch.String(), arch.Base(), roundTrip(t, arch, fn))
	}
}

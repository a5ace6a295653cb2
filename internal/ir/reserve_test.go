package ir

import (
	"testing"

	"fits/internal/isa"
)

// chunkState is one lifter array's backing chunk: the address of its first
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
		"blocks": stateOf(l.blocks), "stmts": stateOf(l.stmts),
		"wrtmps": stateOf(l.wrtmps.chunk), "rdtmps": stateOf(l.rdtmps.chunk),
		"puts": stateOf(l.puts.chunk), "binops": stateOf(l.binops.chunk),
		"loads": stateOf(l.loads.chunk), "stores": stateOf(l.stores.chunk),
		"exits": stateOf(l.exits.chunk), "jumps": stateOf(l.jumps.chunk),
		"calls": stateOf(l.calls.chunk), "syss": stateOf(l.syss.chunk),
		"consts": stateOf(l.consts.chunk), "gets": stateOf(l.gets.chunk),
	}
}

// liftReserved lifts ins at consecutive addresses from base after reserving
// for them, and fails unless every array finished exactly full in the chunk
// Reserve allocated.
func liftReserved(t *testing.T, what string, base uint32, ins []isa.Instr) {
	t.Helper()
	l := NewLifter()
	l.Reserve(ins)
	reserved := lifterChunks(l)
	for i, in := range ins {
		if _, err := l.Lift(base+uint32(i*isa.Width), in); err != nil {
			t.Fatalf("%s: lift %v: %v", what, in, err)
		}
	}
	for name, got := range lifterChunks(l) {
		if got.first != reserved[name].first {
			t.Errorf("%s: %s outgrew its reservation of %d and started a second chunk", what, name, reserved[name].cap)
		} else if got.len != got.cap {
			t.Errorf("%s: %s reserved %d, used %d", what, name, got.cap, got.len)
		}
	}
}

// everyOpcode returns each opcode with small, large and negative immediates,
// so constant operands both hit and miss the shared small-constant range.
func everyOpcode() []isa.Instr {
	var ins []isa.Instr
	for op := isa.OpNop; op.Valid(); op++ {
		for _, imm := range []int32{4, 0x1234, -8} {
			ins = append(ins, isa.Instr{Op: op, Rd: isa.R1, Rs1: isa.R2, Rs2: isa.SP, Imm: imm})
		}
	}
	return ins
}

// TestReserveIsExact keeps Reserve's count table in step with Lift's
// templates: after reserving for exactly the instructions lifted, every
// arena, the statement array and the block array end full, in one chunk.
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

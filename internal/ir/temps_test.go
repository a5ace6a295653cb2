package ir

import (
	"testing"

	"fits/internal/isa"
)

// liftAll lifts a contiguous run of instructions starting at base into one
// Code, reserving for exactly them first.
func liftAll(l *Lifter, base uint32, ins []isa.Instr) (Code, error) {
	l.Reserve(ins)
	for i, in := range ins {
		if err := l.Lift(base+uint32(i*isa.Width), in); err != nil {
			return l.Code(), err
		}
	}
	return l.Code(), nil
}

// roundTrip encodes ins in arch's encoding and decodes it back.
func roundTrip(t *testing.T, arch isa.Arch, ins []isa.Instr) []isa.Instr {
	t.Helper()
	raw := arch.EncodeAll(ins)
	out := make([]isa.Instr, len(ins))
	for i := range out {
		in, err := arch.Decode(raw[i*isa.Width:])
		if err != nil {
			t.Fatalf("%s: %v", arch, err)
		}
		out[i] = in
	}
	return out
}

// checkBlockTemps fails unless one instruction's temporaries are its own:
// its statements write consecutive temps from t0, at most MaxBlockTemps of
// them and exactly as many as liftCounts says, and every temp operand reads
// a temp written earlier in it.
func checkBlockTemps(t *testing.T, what string, raw isa.Instr, stmts []Stmt) {
	t.Helper()
	written := 0
	for _, s := range stmts {
		for _, a := range []Arg{s.A, s.B} {
			if a.Kind == ArgTmp && int(a.Temp()) >= written {
				t.Errorf("%s: %s: %s reads %s before this instruction writes it", what, raw, s, a)
			}
		}
		if s.Writes() {
			if int(s.T()) != written {
				t.Errorf("%s: %s: %s writes %s, want t%d", what, raw, s, s.T(), written)
			}
			written++
		}
	}
	if written > MaxBlockTemps {
		t.Errorf("%s: %s writes %d temps, MaxBlockTemps is %d", what, raw, written, MaxBlockTemps)
	}
	if want := liftCounts[raw.Op].temps; written != want {
		t.Errorf("%s: %s writes %d temps, liftCounts says %d", what, raw, written, want)
	}
}

// TestTempsAreBlockLocal pins the lifter invariant behind the analyses'
// per-instruction temporary environment (dataflow.Temps): over every opcode
// and immediate shape, and through each architecture's encoding, every
// lifted instruction writes at most MaxBlockTemps consecutive temps from t0
// and reads only those. MaxBlockTemps must also be exactly the largest
// template count.
func TestTempsAreBlockLocal(t *testing.T) {
	most := 0
	for _, c := range liftCounts {
		most = max(most, c.temps)
	}
	if most != MaxBlockTemps {
		t.Fatalf("liftCounts writes at most %d temps per instruction, MaxBlockTemps is %d", most, MaxBlockTemps)
	}
	lift := func(what string, base uint32, ins []isa.Instr) {
		code, err := liftAll(new(Lifter), base, ins)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		for i, in := range ins {
			checkBlockTemps(t, what, in, code.Instr(i))
		}
	}
	fn := everyOpcode()
	lift("single lifter", 0x10000, fn)
	for _, arch := range []isa.Arch{isa.ArchARM, isa.ArchAARCH, isa.ArchMIPS} {
		lift(arch.String(), arch.Base(), roundTrip(t, arch, fn))
	}
}

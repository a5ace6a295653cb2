package ir

import (
	"testing"

	"fits/internal/isa"
)

// liftAll lifts a contiguous run of instructions starting at base, one
// block per instruction, reserving for exactly them first.
func liftAll(l *Lifter, base uint32, ins []isa.Instr) ([]*Block, error) {
	l.Reserve(ins)
	out := make([]*Block, 0, len(ins))
	for i, in := range ins {
		b, err := l.Lift(base+uint32(i*isa.Width), in)
		if err != nil {
			return out, err
		}
		out = append(out, b)
	}
	return out, nil
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

// checkBlockTemps fails unless b's temporaries are its own: its WrTmps use
// consecutive temps, at most MaxBlockTemps of them, and every RdTmp reads a
// temp written earlier in b.
func checkBlockTemps(t *testing.T, what string, b *Block) {
	t.Helper()
	var written []Temp
	isWritten := func(tmp Temp) bool {
		for _, w := range written {
			if w == tmp {
				return true
			}
		}
		return false
	}
	var reads func(e Expr)
	reads = func(e Expr) {
		switch e := e.(type) {
		case *RdTmp:
			if !isWritten(e.T) {
				t.Errorf("%s: %s reads %s before this block writes it", what, b.Raw, e.T)
			}
		case *Load:
			reads(e.Addr)
		case *Binop:
			reads(e.L)
			reads(e.R)
		}
	}
	for _, s := range b.Stmts {
		switch s := s.(type) {
		case *WrTmp:
			reads(s.E)
			if n := len(written); n > 0 && s.T != written[n-1]+1 {
				t.Errorf("%s: %s writes %s after %s", what, b.Raw, s.T, written[n-1])
			}
			written = append(written, s.T)
		case *Put:
			reads(s.E)
		case *Store:
			reads(s.Addr)
			reads(s.Val)
		case *Exit:
			reads(s.Cond)
		case *Jump:
			if s.Dyn != nil {
				reads(s.Dyn)
			}
		case *Call:
			if s.Dyn != nil {
				reads(s.Dyn)
			}
		}
	}
	if len(written) > MaxBlockTemps {
		t.Errorf("%s: %s writes %d temps, MaxBlockTemps is %d", what, b.Raw, len(written), MaxBlockTemps)
	}
}

// TestTempsAreBlockLocal pins the lifter invariant behind the analyses'
// per-instruction temporary environment (dataflow.Temps): over every opcode
// and immediate shape, and through each architecture's encoding, every
// lifted Block writes at most MaxBlockTemps consecutive temps and reads only
// those. MaxBlockTemps must also be exactly the largest template count.
func TestTempsAreBlockLocal(t *testing.T) {
	most := 0
	for _, c := range liftCounts {
		most = max(most, c.wrtmps)
	}
	if most != MaxBlockTemps {
		t.Fatalf("liftCounts writes at most %d temps per block, MaxBlockTemps is %d", most, MaxBlockTemps)
	}
	lift := func(what string, base uint32, ins []isa.Instr) {
		blocks, err := liftAll(NewLifter(), base, ins)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		for _, b := range blocks {
			checkBlockTemps(t, what, b)
		}
	}
	fn := everyOpcode()
	lift("single lifter", 0x10000, fn)
	for _, arch := range []isa.Arch{isa.ArchARM, isa.ArchAARCH, isa.ArchMIPS} {
		lift(arch.String(), arch.Base(), roundTrip(t, arch, fn))
	}
}

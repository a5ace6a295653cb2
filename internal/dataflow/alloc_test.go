package dataflow

import (
	"testing"

	"fits/internal/cfg"
	"fits/internal/ir"
	"fits/internal/isa"
)

// loopFunc builds a one-parameter, register-only function: an entry block
// running init, a loop of n blocks each incrementing r1 (the last one
// branching back while r1 < r0), and a returning exit block. Every block is
// a single instruction.
func loopFunc(t testing.TB, init isa.Instr, n int) *cfg.Function {
	t.Helper()
	addr := func(i int) uint32 { return 0x1000 + uint32(i*isa.Width) }
	ins := []isa.Instr{init}
	for i := 0; i < n-1; i++ {
		ins = append(ins, isa.Instr{Op: isa.OpAddi, Rd: isa.R1, Rs1: isa.R1, Imm: 1})
	}
	ins = append(ins,
		isa.Instr{Op: isa.OpBlt, Rs1: isa.R1, Rs2: isa.R0, Imm: int32(addr(1))},
		isa.Instr{Op: isa.OpRet})
	l := ir.NewLifter()
	l.Reserve(ins)
	lifted := make([]*ir.Block, len(ins))
	for i, in := range ins {
		b, err := l.Lift(addr(i), in)
		if err != nil {
			t.Fatal(err)
		}
		lifted[i] = b
	}
	fn := &cfg.Function{Entry: addr(0), Blocks: map[uint32]*cfg.BasicBlock{}, Params: 1}
	body := map[uint32]bool{}
	for i, in := range ins {
		blk := &cfg.BasicBlock{Start: addr(i), Instrs: []isa.Instr{in}, IR: lifted[i : i+1]}
		switch {
		case i == n:
			blk.Succs = []uint32{addr(1), addr(n + 1)}
		case i < n:
			blk.Succs = []uint32{addr(i + 1)}
		}
		if i >= 1 && i <= n {
			body[blk.Start] = true
		}
		fn.Blocks[blk.Start] = blk
		fn.Order = append(fn.Order, blk.Start)
	}
	fn.Loops = []cfg.Loop{{Head: addr(1), Body: body}}
	return fn
}

// TestAnalyzeAllocsIndependentOfVisits pins the allocation-free block visit:
// two register-only loops with the same CFG, one carrying a constant that a
// second sweep widens (about twice the visits) and one carrying the
// parameter (a single sweep), must cost the same allocations, and fewer
// than the loop has blocks. A state clone, join or transfer that touched
// the heap would grow with the visit count.
func TestAnalyzeAllocsIndependentOfVisits(t *testing.T) {
	const n = 32
	counting := loopFunc(t, isa.Instr{Op: isa.OpMovi, Rd: isa.R1, Imm: 0}, n)
	param := loopFunc(t, isa.Instr{Op: isa.OpMov, Rd: isa.R1, Rs1: isa.R0}, n)
	if f := Analyze(counting, nil); !f.ParamControlsLoop || f.Truncated {
		t.Fatalf("counting loop facts = %+v", f)
	}
	if f := Analyze(param, nil); !f.ParamControlsLoop || f.Truncated {
		t.Fatalf("parameter loop facts = %+v", f)
	}
	twoSweeps := testing.AllocsPerRun(20, func() { Analyze(counting, nil) })
	oneSweep := testing.AllocsPerRun(20, func() { Analyze(param, nil) })
	t.Logf("allocs per Analyze: %v (two sweeps), %v (one sweep)", twoSweeps, oneSweep)
	if twoSweeps != oneSweep {
		t.Errorf("allocations grow with block visits: %v over two sweeps, %v over one", twoSweeps, oneSweep)
	}
	if twoSweeps >= n {
		t.Errorf("%v allocations for a %d-block loop: block visits allocate", twoSweeps, n)
	}
}

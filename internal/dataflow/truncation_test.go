package dataflow

import (
	"testing"

	"fits/internal/cfg"
	"fits/internal/ir"
	"fits/internal/isa"
)

// loopFn builds a hand-assembled function whose fixpoint needs a second RPO
// pass: a loop A -> B -> C -> B where C moves the parameter's taint into r1,
// so B's input only gains the r1 taint when C's back edge is re-joined.
func loopFn() *cfg.Function {
	// Blocks B and C hold one instruction each, instructions 0 and 1 of
	// the function's IR; the entry block A holds none.
	blk := func(start uint32, first, n int, succs ...uint32) *cfg.BasicBlock {
		return &cfg.BasicBlock{
			Start:  start,
			First:  int32(first),
			Instrs: make([]isa.Instr, n),
			Succs:  succs,
		}
	}
	a := blk(0x0, 0, 0, 0x10)
	b := blk(0x10, 0, 1, 0x20)
	c := blk(0x20, 1, 1, 0x10)
	code := ir.Code{
		Stmts: []ir.Stmt{
			// B: r2 = r1, observable only once r1 carries taint (second pass).
			{Kind: ir.Get, Dst: 0, A: ir.Reg(isa.Reg(1))},
			{Kind: ir.Put, Dst: 2, A: ir.Tmp(0)},
			// C: r1 = r0 moves the parameter taint into r1 before looping
			// back; the branch on r2 makes the converged loop record
			// param-controls-branch.
			{Kind: ir.Get, Dst: 0, A: ir.Reg(isa.Reg(0))},
			{Kind: ir.Put, Dst: 1, A: ir.Tmp(0)},
			{Kind: ir.Get, Dst: 1, A: ir.Reg(isa.Reg(2))},
			{Kind: ir.Exit, A: ir.Tmp(1), B: ir.Const(0x10)},
		},
		Starts: []int32{0, 2, 6},
	}
	return &cfg.Function{
		Entry:  0x0,
		Name:   "loop",
		Blocks: map[uint32]*cfg.BasicBlock{0x0: a, 0x10: b, 0x20: c},
		Order:  []uint32{0x0, 0x10, 0x20},
		Loops:  []cfg.Loop{{Head: 0x10, Body: map[uint32]bool{0x10: true, 0x20: true}}},
		Params: 1,
		IR:     code,
	}
}

func TestFixpointConvergesWithinDefaultBudget(t *testing.T) {
	facts := Analyze(loopFn(), nil)
	if facts.Truncated {
		t.Fatal("small loop must converge within the default pass budget")
	}
	if !facts.ParamControlsBranch || !facts.ParamControlsLoop {
		t.Errorf("converged facts = %+v, want param-controlled loop branch", facts)
	}
}

func TestFixpointBudgetTruncationIsSurfaced(t *testing.T) {
	defer func(old int) { maxPasses = old }(maxPasses)
	maxPasses = 1
	facts := Analyze(loopFn(), nil)
	if !facts.Truncated {
		t.Fatal("exhausted pass budget must set FlowFacts.Truncated")
	}
}

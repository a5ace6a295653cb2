package dataflow_test

import (
	"testing"

	"fits/internal/binimg"
	"fits/internal/cfg"
	"fits/internal/dataflow"
	"fits/internal/isa"
	"fits/internal/minic"
	"fits/internal/taint"
	"fits/internal/ucse"
)

// loopSinkProgram: handler fetches a value from the ITS fetch, then runs a
// counting loop whose body passes the value to system. The counter's
// constant shape collapses only when the back edge is re-joined, so the
// taint fixpoint needs a second pass.
func loopSinkProgram() *minic.Program {
	return &minic.Program{
		Name:    "t",
		Globals: []*minic.Global{{Name: "store", Size: 64}},
		Funcs: []*minic.Func{
			{Name: "fetch", NParams: 2, Body: []minic.Stmt{
				minic.Return{E: minic.Add(minic.Var("p1"), minic.Int(4))},
			}},
			{Name: "handler", Body: []minic.Stmt{
				minic.Let{Name: "v", E: minic.Call{Name: "fetch", Args: []minic.Expr{
					minic.Str("cmd"), minic.GlobalRef("store")}}},
				minic.Let{Name: "i", E: minic.Int(0)},
				minic.While{Cond: minic.Cond{Op: minic.Lt, L: minic.Var("i"), R: minic.Int(4)},
					Body: []minic.Stmt{
						minic.ExprStmt{E: minic.Call{Name: "system", Args: []minic.Expr{minic.Var("v")}}},
						minic.Assign{Name: "i", E: minic.Add(minic.Var("i"), minic.Int(1))},
					}},
				minic.Return{E: minic.Int(0)},
			}},
			{Name: "main", Body: []minic.Stmt{
				minic.ExprStmt{E: minic.Call{Name: "handler"}},
				minic.Return{E: minic.Int(0)},
			}},
		},
	}
}

func loopSinkScan(t *testing.T) (*taint.Engine, []taint.Alert) {
	t.Helper()
	bin, err := minic.Link(loopSinkProgram(), isa.ArchARM, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := cfg.Build(bin, cfg.Options{Resolver: ucse.Resolver()})
	if err != nil {
		t.Fatal(err)
	}
	e := taint.New(bin, m, taint.Options{ITS: []uint32{entryNamed(t, bin, "fetch")}})
	alerts := e.Run()
	if len(alerts) != 1 || alerts[0].Sink != "system" {
		t.Fatalf("alerts = %+v, want the one system alert", alerts)
	}
	return e, alerts
}

func entryNamed(t *testing.T, bin *binimg.Binary, name string) uint32 {
	t.Helper()
	for _, f := range bin.Funcs {
		if f.Name == name {
			return f.Addr
		}
	}
	t.Fatalf("function %q not found", name)
	return 0
}

// TestTaintBudgetTripIsDegraded lowers the shared pass budget so the taint
// fixpoint over the looping handler cannot converge: the alert it still
// raises must come back Degraded and be counted, never silently truncated.
func TestTaintBudgetTripIsDegraded(t *testing.T) {
	if e, alerts := loopSinkScan(t); alerts[0].Degraded || e.DegradedCount() != 0 {
		t.Fatalf("converged scan: alert %+v, DegradedCount %d; want no degradation", alerts[0], e.DegradedCount())
	}
	dataflow.SetMaxPasses(t, 1)
	e, alerts := loopSinkScan(t)
	if !alerts[0].Degraded {
		t.Errorf("alert %+v not Degraded after the taint fixpoint ran out of passes", alerts[0])
	}
	if n := e.DegradedCount(); n != 1 {
		t.Errorf("DegradedCount = %d, want 1", n)
	}
}

package taint

import (
	"fmt"
	"testing"

	"fits/internal/know"
	"fits/internal/minic"
	"fits/internal/xchan"
)

// depthProgram: endpoint A's getter (in a_get, laid out first) reaches
// helper through seven wrappers, so helper runs at the depth limit and its
// callee is cut; endpoint B's getter calls helper directly, and helper's
// callee holds the only sink.
func depthProgram() *minic.Program {
	v := func(name string) minic.Expr { return minic.Var(name) }
	pass := func(name, callee string) *minic.Func {
		return &minic.Func{Name: name, NParams: 1, Body: []minic.Stmt{
			minic.ExprStmt{E: minic.Call{Name: callee, Args: []minic.Expr{v("p0")}}},
			minic.Return{E: minic.Int(0)},
		}}
	}
	getter := func(name, key, callee string) *minic.Func {
		return &minic.Func{Name: name, Body: []minic.Stmt{
			minic.Let{Name: "val", E: minic.Call{Name: "env_get", Args: []minic.Expr{minic.Str(key)}}},
			minic.ExprStmt{E: minic.Call{Name: callee, Args: []minic.Expr{v("val")}}},
			minic.Return{E: minic.Int(0)},
		}}
	}
	funcs := []*minic.Func{getter("a_get", "key_a", "wrap1")}
	for i := 1; i <= 7; i++ {
		next := fmt.Sprintf("wrap%d", i+1)
		if i == 7 {
			next = "helper"
		}
		funcs = append(funcs, pass(fmt.Sprintf("wrap%d", i), next))
	}
	funcs = append(funcs,
		getter("b_get", "key_b", "helper"),
		pass("helper", "run"),
		&minic.Func{Name: "run", NParams: 1, Body: []minic.Stmt{
			minic.ExprStmt{E: minic.Call{Name: "system", Args: []minic.Expr{v("p0")}}},
			minic.Return{E: minic.Int(0)},
		}},
		&minic.Func{Name: "main", Body: []minic.Stmt{
			minic.ExprStmt{E: minic.Call{Name: "a_get"}},
			minic.ExprStmt{E: minic.Call{Name: "b_get"}},
			minic.Return{E: minic.Int(0)},
		}},
	)
	return &minic.Program{Name: "t", Funcs: funcs}
}

// TestMemoKeySeparatesChannelEndpoints: the propagation memo keys a
// channel-seeded flow on its seeding endpoint. A's flow reaches helper at
// the depth limit first; B's shallower flow through the same helper with
// the same parameter taint must still run, or the sink behind it is lost.
func TestMemoKeySeparatesChannelEndpoints(t *testing.T) {
	bin, m := buildBin(t, depthProgram())
	a, b := xchan.ID(know.ChanEnv, "key_a"), xchan.ID(know.ChanEnv, "key_b")
	alerts := New(bin, m, Options{ChannelSeeds: map[string]bool{a: true, b: true}}).Run()
	if len(alerts) != 1 || alerts[0].Sink != "system" {
		t.Fatalf("alerts = %+v, want one system alert", alerts)
	}
	if got := alerts[0]; got.From != FromChannel || got.Key != b || got.Func != entryOf(t, bin, "run") {
		t.Errorf("alert = %+v, want From channel, Key %q, in run", got, b)
	}
}

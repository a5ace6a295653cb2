package xchan

import (
	"reflect"
	"testing"

	"fits/internal/binimg"
	"fits/internal/cfg"
	"fits/internal/isa"
	"fits/internal/know"
	"fits/internal/minic"
	"fits/internal/ucse"
)

func buildBin(t *testing.T, p *minic.Program) (*binimg.Binary, *cfg.Model) {
	t.Helper()
	bin, err := minic.Link(p, isa.ArchARM, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := cfg.Build(bin, cfg.Options{Resolver: ucse.Resolver()})
	if err != nil {
		t.Fatal(err)
	}
	return bin, m
}

// writerProgram stores through all three channel kinds.
func writerProgram() *minic.Program {
	return &minic.Program{
		Name:    "a",
		Globals: []*minic.Global{{Name: "buf", Size: 64}},
		Funcs: []*minic.Func{
			{Name: "main", Body: []minic.Stmt{
				minic.ExprStmt{E: minic.Call{Name: "nvram_set", Args: []minic.Expr{
					minic.Str("wl_key"), minic.GlobalRef("buf")}}},
				minic.ExprStmt{E: minic.Call{Name: "env_set", Args: []minic.Expr{
					minic.Str("TZ_OFF"), minic.GlobalRef("buf")}}},
				minic.ExprStmt{E: minic.Call{Name: "fw_spawn", Args: []minic.Expr{
					minic.Str("bin/helper"), minic.GlobalRef("buf")}}},
				minic.Return{E: minic.Int(0)},
			}},
		},
	}
}

// readerProgram loads two known keys and one nobody writes.
func readerProgram() *minic.Program {
	return &minic.Program{
		Name:    "b",
		Globals: []*minic.Global{{Name: "out", Size: 64}},
		Funcs: []*minic.Func{
			{Name: "main", Body: []minic.Stmt{
				minic.ExprStmt{E: minic.Call{Name: "nvram_get", Args: []minic.Expr{minic.Str("wl_key")}}},
				minic.ExprStmt{E: minic.Call{Name: "env_get", Args: []minic.Expr{minic.Str("TZ_OFF")}}},
				minic.ExprStmt{E: minic.Call{Name: "nvram_get", Args: []minic.Expr{minic.Str("unwritten")}}},
				minic.Return{E: minic.Int(0)},
			}},
		},
	}
}

// helperProgram reads its spawn argv: a keyless getter whose key is the
// binary's own image path.
func helperProgram() *minic.Program {
	return &minic.Program{
		Name: "h",
		Funcs: []*minic.Func{
			{Name: "main", Body: []minic.Stmt{
				minic.ExprStmt{E: minic.Call{Name: "fw_getarg", Args: []minic.Expr{minic.Int(1)}}},
				minic.Return{E: minic.Int(0)},
			}},
		},
	}
}

func corpusEndpoints(t *testing.T) []Endpoint {
	t.Helper()
	var all []Endpoint
	for _, bp := range []struct {
		path string
		prog *minic.Program
	}{
		{"bin/a", writerProgram()},
		{"bin/b", readerProgram()},
		{"bin/helper", helperProgram()},
	} {
		bin, m := buildBin(t, bp.prog)
		all = append(all, Endpoints(bp.path, bin, m)...)
	}
	return all
}

func TestEndpointsExtraction(t *testing.T) {
	eps := corpusEndpoints(t)
	type flat struct {
		Binary string
		Chan   know.ChanKind
		Key    string
		Setter bool
	}
	var got []flat
	for _, e := range eps {
		got = append(got, flat{e.Binary, e.Chan, e.Key, e.Setter})
		if e.Func == 0 || e.Site == 0 || e.Import == "" {
			t.Errorf("endpoint missing site info: %+v", e)
		}
		if e.ID() != e.Chan.String()+":"+e.Key {
			t.Errorf("ID() = %q for %+v", e.ID(), e)
		}
	}
	want := []flat{
		{"bin/a", know.ChanNVRAM, "wl_key", true},
		{"bin/a", know.ChanEnv, "TZ_OFF", true},
		{"bin/a", know.ChanSpawn, "bin/helper", true},
		{"bin/b", know.ChanNVRAM, "wl_key", false},
		{"bin/b", know.ChanEnv, "TZ_OFF", false},
		{"bin/b", know.ChanNVRAM, "unwritten", false},
		{"bin/helper", know.ChanSpawn, "bin/helper", false},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("endpoints = %+v, want %+v", got, want)
	}
}

func TestPairEndpointsJoin(t *testing.T) {
	// A setter's data is observable at every getter of the same (channel,
	// key) ID, anywhere in the corpus.
	eps := corpusEndpoints(t)
	sortEndpoints(eps)
	type edge struct{ id, from, to string }
	var got []edge
	for _, s := range eps {
		for _, g := range eps {
			if s.Setter && !g.Setter && s.ID() == g.ID() {
				got = append(got, edge{s.ID(), s.Binary, g.Binary})
			}
		}
	}
	// Setter call-site order within bin/a: nvram_set, env_set, fw_spawn.
	want := []edge{
		{"nvram:wl_key", "bin/a", "bin/b"},
		{"env:TZ_OFF", "bin/a", "bin/b"},
		{"spawn:bin/helper", "bin/a", "bin/helper"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("pairs = %+v, want %+v", got, want)
	}
}

func TestPairEndpointsDeterministic(t *testing.T) {
	eps := corpusEndpoints(t)
	rev := make([]Endpoint, len(eps))
	for i, e := range eps {
		rev[len(eps)-1-i] = e
	}
	a := append([]Endpoint(nil), eps...)
	sortEndpoints(a)
	sortEndpoints(rev)
	if !reflect.DeepEqual(a, rev) {
		t.Fatalf("endpoint order depends on input order:\n%+v\n%+v", a, rev)
	}
}

func TestGetterKeys(t *testing.T) {
	keys := GetterKeys(corpusEndpoints(t))
	want := map[know.ChanKind]map[string]bool{
		know.ChanNVRAM: {"wl_key": true, "unwritten": true},
		know.ChanEnv:   {"TZ_OFF": true},
		know.ChanSpawn: {"bin/helper": true},
	}
	if !reflect.DeepEqual(keys, want) {
		t.Fatalf("GetterKeys = %+v, want %+v", keys, want)
	}
}

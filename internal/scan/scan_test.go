package scan

import (
	"context"
	"reflect"
	"testing"

	"fits/internal/cfg"
	"fits/internal/infer"
	"fits/internal/isa"
	"fits/internal/loader"
	"fits/internal/minic"
	"fits/internal/modelcache"
	"fits/internal/stagetime"
	"fits/internal/synth"
	"fits/internal/taint"
	"fits/internal/ucse"
)

// outputNeutral lists the taint.Options fields that cannot change the alert
// list and so stay out of the memo key. Every other field must be in it.
var outputNeutral = map[string]bool{
	"Precision": true,
	"Probe":     true,
}

// nonZero builds a value of type t that differs from the zero value in a
// way the engine could observe: containers get one non-zero element, not
// merely a non-nil empty body.
func nonZero(t reflect.Type) reflect.Value {
	v := reflect.New(t).Elem()
	switch t.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(1)
	case reflect.String:
		v.SetString("x")
	case reflect.Slice:
		v.Set(reflect.Append(v, nonZero(t.Elem())))
	case reflect.Map:
		v.Set(reflect.MakeMap(t))
		v.SetMapIndex(nonZero(t.Key()), nonZero(t.Elem()))
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if v.Field(i).CanSet() {
				v.Field(i).Set(nonZero(t.Field(i).Type))
			}
		}
	case reflect.Pointer:
		v.Set(reflect.New(t.Elem()))
	case reflect.Interface:
		// The stage probe is the only interface-typed option.
		v.Set(reflect.ValueOf(new(stagetime.Timer)))
	case reflect.Func:
		v.Set(reflect.MakeFunc(t, func([]reflect.Value) []reflect.Value {
			out := make([]reflect.Value, t.NumOut())
			for i := range out {
				out[i] = reflect.Zero(t.Out(i))
			}
			return out
		}))
	default:
		panic("nonZero: unhandled kind " + t.Kind().String())
	}
	return v
}

// TestKeyCoversEveryOutputField: setting any taint.Options field except the
// output-neutral ones changes the scan key, so a field added later can never
// silently alias cache entries computed without it.
func TestKeyCoversEveryOutputField(t *testing.T) {
	target := &loader.Target{Hash: modelcache.HashBytes([]byte("bin"))}
	base := key(target, Static, taint.Options{})
	typ := reflect.TypeOf(taint.Options{})
	for name := range outputNeutral {
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("outputNeutral names %s, which taint.Options no longer has", name)
		}
	}
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		var o taint.Options
		reflect.ValueOf(&o).Elem().Field(i).Set(nonZero(f.Type))
		changed := key(target, Static, o) != base
		if outputNeutral[f.Name] && changed {
			t.Errorf("output-neutral field %s changes the key: identical scans would miss", f.Name)
		}
		if !outputNeutral[f.Name] && !changed {
			t.Errorf("field %s does not change the key: scans differing only in it alias one entry", f.Name)
		}
	}
	for _, other := range []string{
		key(target, Symbolic, taint.Options{}),
		key(&loader.Target{Hash: modelcache.HashBytes([]byte("other"))}, Static, taint.Options{}),
	} {
		if other == base {
			t.Errorf("engine and content hash must each change the key")
		}
	}
	// ITS is a set to both engines: seed order must not split entries.
	if key(target, Static, taint.Options{ITS: []uint32{2, 1}}) != key(target, Static, taint.Options{ITS: []uint32{1, 2}}) {
		t.Error("ITS order changes the key")
	}
}

// regionTarget models a program whose recv-filled buffer reaches strcpy:
// one classical-source alert.
func regionTarget(t *testing.T) *loader.Target {
	t.Helper()
	p := &minic.Program{
		Name:    "t",
		Globals: []*minic.Global{{Name: "buf", Size: 64}, {Name: "out", Size: 64}},
		Funcs: []*minic.Func{
			{Name: "main", Body: []minic.Stmt{
				minic.ExprStmt{E: minic.Call{Name: "recv", Args: []minic.Expr{
					minic.Int(0), minic.GlobalRef("buf"), minic.Int(64), minic.Int(0)}}},
				minic.ExprStmt{E: minic.Call{Name: "strcpy", Args: []minic.Expr{
					minic.GlobalRef("out"), minic.GlobalRef("buf")}}},
				minic.Return{E: minic.Int(0)},
			}},
		},
	}
	bin, err := minic.Link(p, isa.ArchARM, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := cfg.Build(bin, cfg.Options{Resolver: ucse.Resolver()})
	if err != nil {
		t.Fatal(err)
	}
	return &loader.Target{Path: "bin/t", Bin: bin, Model: m, Hash: modelcache.HashBytes([]byte("t"))}
}

// TestRunMemoisesAndTimesMissesOnly: the first scan computes and lands in
// the Taint stage, a repeat is a cache hit that adds no engine time, and a
// cancelled context fails before the engine without caching anything.
func TestRunMemoisesAndTimesMissesOnly(t *testing.T) {
	target := regionTarget(t)
	opts := taint.Options{UseCTS: true}
	want := taint.New(target.Bin, target.Model, opts).RunAll()
	if len(want) == 0 {
		t.Fatal("fixture produces no alert")
	}

	cache := modelcache.New(0, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, target, Static, opts, cache, nil); err != context.Canceled {
		t.Fatalf("cancelled scan: err = %v", err)
	}
	if cache.Stats().Entries != 0 {
		t.Fatal("a scan that never ran was cached")
	}

	var st stagetime.Timer
	var afterMiss int64
	for round := 0; round < 2; round++ {
		got, err := Run(context.Background(), target, Static, opts, cache, &st)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: alerts = %+v, want %+v", round, got, want)
		}
		if round == 0 {
			afterMiss = st.WallNanos(stagetime.Taint)
		}
	}
	if afterMiss == 0 {
		t.Error("cache miss recorded no Taint time")
	}
	if got := st.WallNanos(stagetime.Taint); got != afterMiss {
		t.Errorf("cache hit added %d ns of Taint time", got-afterMiss)
	}
	if s := cache.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Errorf("cache stats = %+v, want 1 miss then 1 hit", s)
	}

	// Without a cache every call runs the engine.
	got, err := Run(context.Background(), target, Static, opts, nil, nil)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("uncached scan: %+v, %v", got, err)
	}
}

// TestRunMemoisesSuppressedAlerts: on a dataset target whose scan both
// string-filters and refutes alerts, Run returns the engine's full list,
// suppressed alerts included, a cache hit returns the same list, and its
// Reported subset is exactly the engine's Run.
func TestRunMemoisesSuppressedAlerts(t *testing.T) {
	spec := synth.Dataset()[0]
	spec.ExtraHandlers = map[synth.HandlerCategory]int{synth.SafeInfeasible: 2}
	s, err := synth.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	res, err := loader.LoadContext(ctx, s.Packed, loader.Options{})
	if err != nil {
		t.Fatal(err)
	}
	target := res.Targets[0]
	// The inferred top 3 include a system-data fetcher (filtered alerts);
	// the planted infeasible guards give refuted ones.
	ranking, err := infer.InferTargetContext(ctx, target, infer.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	opts := taint.Options{UseCTS: true, StringFilter: true}
	for _, c := range ranking.Top(3) {
		opts.ITS = append(opts.ITS, c.Entry)
	}
	for _, its := range s.Manifest.ITSIn(target.Bin.Name) {
		opts.ITS = append(opts.ITS, its.Entry)
	}
	e := taint.New(target.Bin, target.Model, opts)
	reported := e.Run()
	all := e.AllAlerts()

	cache := modelcache.New(0, 0)
	miss, err := Run(ctx, target, Static, opts, cache, nil)
	if err != nil {
		t.Fatal(err)
	}
	hit, err := Run(ctx, target, Static, opts, cache, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("cache stats = %+v, want 1 miss then 1 hit", st)
	}
	if !reflect.DeepEqual(miss, all) || !reflect.DeepEqual(hit, all) {
		t.Fatalf("Run does not return the engine's full alert list:\nmiss %+v\nhit  %+v\nwant %+v", miss, hit, all)
	}
	var filtered, refuted int
	var kept []taint.Alert
	for _, a := range hit {
		if a.Filtered {
			filtered++
		}
		if a.Refuted != "" {
			refuted++
		}
		if a.Reported() {
			kept = append(kept, a)
		}
	}
	if filtered == 0 || refuted == 0 {
		t.Fatalf("fixture has %d filtered and %d refuted alerts; want both > 0", filtered, refuted)
	}
	if !reflect.DeepEqual(kept, reported) {
		t.Errorf("Reported subset of the memoised list differs from the engine's Run:\n%+v\n%+v", kept, reported)
	}
}

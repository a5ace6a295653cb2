package infer

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"fits/internal/bfv"
	"fits/internal/cluster"
	"fits/internal/loader"
	"fits/internal/modelcache"
	"fits/internal/score"
	"fits/internal/stagetime"
	"fits/internal/synth"
)

func loadSample(t *testing.T, idx int) (*synth.Sample, *loader.Target) {
	t.Helper()
	s, err := synth.Generate(synth.Dataset()[idx])
	if err != nil {
		t.Fatal(err)
	}
	res, err := loader.LoadContext(context.Background(), s.Packed, loader.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s, res.Targets[0]
}

func mustInfer(t *testing.T, target *loader.Target, cfgn Config) *Ranking {
	t.Helper()
	r, err := InferTargetContext(context.Background(), target, cfgn)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func itsRankIn(s *synth.Sample, r *Ranking) int {
	for i, e := range r.Ranked {
		if s.Manifest.IsITS(r.Binary, e.Entry) {
			return i + 1
		}
	}
	return 0
}

func TestDefaultPipelineRanksITS(t *testing.T) {
	s, target := loadSample(t, 0)
	r := mustInfer(t, target, DefaultConfig())
	if r.NumFuncs < 100 || r.NumAnchors < 8 {
		t.Fatalf("funcs=%d anchors=%d", r.NumFuncs, r.NumAnchors)
	}
	if r.NumCandidates == 0 || r.NumCandidates >= r.NumFuncs {
		t.Errorf("clustering kept %d of %d candidates", r.NumCandidates, r.NumFuncs)
	}
	rank := itsRankIn(s, r)
	if rank == 0 || rank > 3 {
		t.Errorf("ITS rank = %d, want 1..3", rank)
	}
	// Scores must be descending.
	for i := 1; i < len(r.Ranked); i++ {
		if r.Ranked[i].Score > r.Ranked[i-1].Score {
			t.Fatal("ranking not descending")
		}
	}
}

func TestDeterministicInference(t *testing.T) {
	_, target := loadSample(t, 5)
	a := mustInfer(t, target, DefaultConfig())
	b := mustInfer(t, target, DefaultConfig())
	if len(a.Ranked) != len(b.Ranked) {
		t.Fatal("ranking lengths differ")
	}
	for i := range a.Ranked {
		if a.Ranked[i] != b.Ranked[i] {
			t.Fatal("inference not deterministic")
		}
	}
}

func TestStrategyNoneScoresAllFunctions(t *testing.T) {
	_, target := loadSample(t, 0)
	cfg := DefaultConfig()
	cfg.Strategy = StrategyNone
	r := mustInfer(t, target, cfg)
	if r.NumCandidates != r.NumFuncs {
		t.Errorf("none strategy: candidates = %d, funcs = %d", r.NumCandidates, r.NumFuncs)
	}
}

func TestPreprocessingStrategiesRun(t *testing.T) {
	s, target := loadSample(t, 0)
	for _, st := range []Strategy{StrategyPCA, StrategyStandardize, StrategyNormalize} {
		cfg := DefaultConfig()
		cfg.Strategy = st
		r := mustInfer(t, target, cfg)
		if len(r.Ranked) == 0 {
			t.Errorf("%v: empty ranking", st)
		}
		_ = itsRankIn(s, r) // must not panic; precision checked corpus-wide
	}
}

func TestDropFeatureChangesRanking(t *testing.T) {
	_, target := loadSample(t, 0)
	base := mustInfer(t, target, DefaultConfig())
	cfg := DefaultConfig()
	cfg.DropFeature = bfv.FCallers
	dropped := mustInfer(t, target, cfg)
	same := len(base.Ranked) == len(dropped.Ranked)
	if same {
		for i := range base.Ranked {
			if base.Ranked[i].Entry != dropped.Ranked[i].Entry ||
				base.Ranked[i].Score != dropped.Ranked[i].Score {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("dropping the caller feature changed nothing")
	}
}

func TestAlternativeRepresentationsRun(t *testing.T) {
	_, target := loadSample(t, 0)
	for _, rep := range []Representation{RepAugmentedCFG, RepAttributedCFG} {
		cfg := DefaultConfig()
		cfg.Representation = rep
		r := mustInfer(t, target, cfg)
		if r.NumAnchors == 0 {
			t.Errorf("%v: no anchor vectors", rep)
		}
	}
}

func TestMetricsProduceDifferentScores(t *testing.T) {
	_, target := loadSample(t, 0)
	cos := mustInfer(t, target, DefaultConfig())
	cfg := DefaultConfig()
	cfg.Metric = score.Euclidean
	euc := mustInfer(t, target, cfg)
	if len(cos.Ranked) > 0 && len(euc.Ranked) > 0 &&
		cos.Ranked[0].Score == euc.Ranked[0].Score {
		t.Error("cosine and euclidean top scores identical")
	}
}

func TestTopClamps(t *testing.T) {
	_, target := loadSample(t, 0)
	r := mustInfer(t, target, DefaultConfig())
	if got := len(r.Top(3)); got > 3 {
		t.Errorf("Top(3) = %d entries", got)
	}
	if got := len(r.Top(10_000)); got != len(r.Ranked) {
		t.Errorf("Top(huge) = %d, want %d", got, len(r.Ranked))
	}
	if got := len(r.Top(-1)); got != 0 {
		t.Errorf("Top(-1) = %d entries, want 0", got)
	}
}

func TestStringers(t *testing.T) {
	for _, r := range []Representation{RepBFV, RepAugmentedCFG, RepAttributedCFG, Representation(9)} {
		if r.String() == "" {
			t.Errorf("empty name for rep %d", r)
		}
	}
	for _, s := range []Strategy{StrategyCluster, StrategyNone, StrategyPCA, StrategyStandardize, StrategyNormalize, Strategy(9)} {
		if s.String() == "" {
			t.Errorf("empty name for strategy %d", s)
		}
	}
}

func TestInferAllCoversTargets(t *testing.T) {
	s, err := synth.Generate(synth.Dataset()[0])
	if err != nil {
		t.Fatal(err)
	}
	res, err := loader.LoadContext(context.Background(), s.Packed, loader.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rankings, err := InferAllContext(context.Background(), res, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rankings) != len(res.Targets) {
		t.Errorf("rankings = %d, targets = %d", len(rankings), len(res.Targets))
	}
}

// outputNeutral lists the Config fields that cannot change a ranking and so
// stay out of its memo key. Every other field must be in it.
var outputNeutral = map[string]bool{
	"Parallelism": true,
	"Sched":       true,
	"Intern":      true,
	"Probe":       true,
	"Cache":       true,
}

// nonZero builds a value of type t that differs from its zero value.
func nonZero(t reflect.Type) reflect.Value {
	v := reflect.New(t).Elem()
	switch t.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(1)
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			v.Field(i).Set(nonZero(t.Field(i).Type))
		}
	case reflect.Pointer:
		v.Set(reflect.New(t.Elem()))
	case reflect.Interface:
		// The stage probe is the only interface-typed field.
		v.Set(reflect.ValueOf(new(stagetime.Timer)))
	default:
		panic("nonZero: unhandled kind " + t.Kind().String())
	}
	return v
}

// TestRankingKeyCoversEveryConfigField: setting any Config field, or any
// DBSCAN parameter, except the output-neutral ones changes the ranking key,
// so a field added later can never silently alias cached rankings.
func TestRankingKeyCoversEveryConfigField(t *testing.T) {
	target := &loader.Target{
		Hash:      modelcache.HashBytes([]byte("bin")),
		LibHashes: map[string]modelcache.Hash{"libc.so": modelcache.HashBytes([]byte("libc"))},
	}
	base := rankingKey(target, Config{})
	typ := reflect.TypeOf(Config{})
	for name := range outputNeutral {
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("outputNeutral names %s, which Config no longer has", name)
		}
	}
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		var c Config
		reflect.ValueOf(&c).Elem().Field(i).Set(nonZero(f.Type))
		changed := rankingKey(target, c) != base
		if outputNeutral[f.Name] && changed {
			t.Errorf("output-neutral field %s changes the key: identical inferences would miss", f.Name)
		}
		if !outputNeutral[f.Name] && !changed {
			t.Errorf("field %s does not change the key: inferences differing only in it alias one entry", f.Name)
		}
	}
	params := reflect.TypeOf(cluster.Params{})
	for j := 0; j < params.NumField(); j++ {
		var c Config
		reflect.ValueOf(&c.DBSCAN).Elem().Field(j).Set(nonZero(params.Field(j).Type))
		if rankingKey(target, c) == base {
			t.Errorf("cluster.Params.%s does not change the key", params.Field(j).Name)
		}
	}
	for _, other := range []*loader.Target{
		{Hash: modelcache.HashBytes([]byte("other")), LibHashes: target.LibHashes},
		{Hash: target.Hash, LibHashes: map[string]modelcache.Hash{"libc.so": target.Hash}},
	} {
		if rankingKey(other, Config{}) == base {
			t.Errorf("target hash and library hashes must each change the key")
		}
	}
}

// TestAnchorsSharedAcrossTargets: a library's anchor vectors are memoized
// under that library's hash alone. NETGEAR images carry two network binaries
// linking the same libraries; inferring the second reuses the first's
// anchor entries instead of adding its own, and the cached entries hold the
// library-only vectors, without either target's terms.
func TestAnchorsSharedAcrossTargets(t *testing.T) {
	s, err := synth.Generate(synth.Dataset()[0])
	if err != nil {
		t.Fatal(err)
	}
	cache := modelcache.New(0, 0)
	res, err := loader.LoadContext(context.Background(), s.Packed, loader.Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Targets) != 2 {
		t.Fatalf("targets = %d, want 2", len(res.Targets))
	}
	first, second := res.Targets[0], res.Targets[1]
	cfgn := DefaultConfig()
	cfgn.Cache = cache

	before := cache.Stats().Entries
	mustInfer(t, first, cfgn)
	grewFirst := cache.Stats().Entries - before
	for lib, h := range first.LibHashes {
		miss := func() (any, int64, error) { return nil, 0, errors.New("not resident") }
		v, ok, _ := cache.GetOrCompute(modelcache.Key("anchors", vectorSig(cfgn), h), miss)
		if !ok {
			t.Fatalf("%s: no library-keyed anchors entry after inferring %s", lib, first.Path)
		}
		bin, m := first.Libs[lib], first.LibModels[lib]
		ex := bfv.New(bin, m)
		for i, r := range anchorRows(bin, m) {
			if got, want := v.([]bfv.Vector)[i], ex.FuncVector(r.f); got != want {
				t.Errorf("%s %s: cached %v, want library-only %v", lib, r.name, got, want)
			}
		}
	}

	shared := 0
	for lib, h := range second.LibHashes {
		if first.LibHashes[lib] == h {
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("targets share no library")
	}
	before = cache.Stats().Entries
	mustInfer(t, second, cfgn)
	if grewSecond := cache.Stats().Entries - before; grewSecond != grewFirst-shared {
		t.Errorf("second target added %d entries, want %d: its %d shared libraries' anchors must be reused",
			grewSecond, grewFirst-shared, shared)
	}
}

// TestAnchorTargetTerms: under BFV an anchor's caller count is the library's
// callers plus the target's call sites of that import, while the baseline
// representations take the library vectors unchanged.
func TestAnchorTargetTerms(t *testing.T) {
	_, target := loadSample(t, 0)
	importSites := map[string]int{}
	for _, f := range target.Model.FuncsInOrder() {
		for _, cs := range f.Calls {
			if cs.ImportName != "" {
				importSites[cs.ImportName]++
			}
		}
	}
	libc, m := target.Libs["libc.so"], target.LibModels["libc.so"]
	rows := anchorRows(libc, m)
	if len(target.Libs) != 1 || len(rows) == 0 {
		t.Fatalf("want a target linking libc.so alone, with anchors: libs=%d rows=%d", len(target.Libs), len(rows))
	}

	bfvs := AnchorVectorsForTest(target)
	boosted := 0
	for i, r := range rows {
		want := float64(len(m.Callers[r.f.Entry]) + importSites[r.name])
		if got := bfvs[i][bfv.FCallers]; got != want {
			t.Errorf("%s: callers = %g, want %g", r.name, got, want)
		}
		if importSites[r.name] > 0 {
			boosted++
		}
	}
	if boosted == 0 {
		t.Error("the target calls none of its anchors; the test checks nothing")
	}

	for _, rep := range []Representation{RepAugmentedCFG, RepAttributedCFG} {
		cfgn := scheduled(DefaultConfig())
		cfgn.Representation = rep
		got, err := anchorVectors(context.Background(), target, cfgn)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range rows {
			if want := vectorFor(rep, nil, libc, m, r.f); got[i] != want {
				t.Errorf("%v %s: %v, want the library vector %v", rep, r.name, got[i], want)
			}
		}
	}
}

// TestRankingWithoutLibraryModelsFails: a target loaded with TargetsOnly
// has no library models to build anchors from; ranking it is an error
// naming the library, not a nil dereference.
func TestRankingWithoutLibraryModelsFails(t *testing.T) {
	s, err := synth.Generate(synth.Dataset()[0])
	if err != nil {
		t.Fatal(err)
	}
	res, err := loader.LoadContext(context.Background(), s.Packed, loader.Options{TargetsOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	_, err = InferTargetContext(context.Background(), res.Targets[0], DefaultConfig())
	if err == nil || !strings.Contains(err.Error(), "libc.so") {
		t.Fatalf("err = %v, want one naming libc.so", err)
	}
}

package infer

import (
	"reflect"
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
	res, err := loader.Load(s.Packed, loader.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s, res.Targets[0]
}

func itsRankIn(s *synth.Sample, r *Ranking) int {
	truth := map[uint32]bool{}
	for _, its := range s.Manifest.ITS {
		truth[its.Entry] = true
	}
	for i, e := range r.Ranked {
		if truth[e.Entry] {
			return i + 1
		}
	}
	return 0
}

func TestDefaultPipelineRanksITS(t *testing.T) {
	s, target := loadSample(t, 0)
	r := InferTarget(target, DefaultConfig())
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
	a := InferTarget(target, DefaultConfig())
	b := InferTarget(target, DefaultConfig())
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
	r := InferTarget(target, cfg)
	if r.NumCandidates != r.NumFuncs {
		t.Errorf("none strategy: candidates = %d, funcs = %d", r.NumCandidates, r.NumFuncs)
	}
}

func TestPreprocessingStrategiesRun(t *testing.T) {
	s, target := loadSample(t, 0)
	for _, st := range []Strategy{StrategyPCA, StrategyStandardize, StrategyNormalize} {
		cfg := DefaultConfig()
		cfg.Strategy = st
		r := InferTarget(target, cfg)
		if len(r.Ranked) == 0 {
			t.Errorf("%v: empty ranking", st)
		}
		_ = itsRankIn(s, r) // must not panic; precision checked corpus-wide
	}
}

func TestDropFeatureChangesRanking(t *testing.T) {
	_, target := loadSample(t, 0)
	base := InferTarget(target, DefaultConfig())
	cfg := DefaultConfig()
	cfg.DropFeature = bfv.FCallers
	dropped := InferTarget(target, cfg)
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
		r := InferTarget(target, cfg)
		if r.NumAnchors == 0 {
			t.Errorf("%v: no anchor vectors", rep)
		}
	}
}

func TestMetricsProduceDifferentScores(t *testing.T) {
	_, target := loadSample(t, 0)
	cos := InferTarget(target, DefaultConfig())
	cfg := DefaultConfig()
	cfg.Metric = score.Euclidean
	euc := InferTarget(target, cfg)
	if len(cos.Ranked) > 0 && len(euc.Ranked) > 0 &&
		cos.Ranked[0].Score == euc.Ranked[0].Score {
		t.Error("cosine and euclidean top scores identical")
	}
}

func TestTopClamps(t *testing.T) {
	_, target := loadSample(t, 0)
	r := InferTarget(target, DefaultConfig())
	if got := len(r.Top(3)); got > 3 {
		t.Errorf("Top(3) = %d entries", got)
	}
	if got := len(r.Top(10_000)); got != len(r.Ranked) {
		t.Errorf("Top(huge) = %d, want %d", got, len(r.Ranked))
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
	res, err := loader.Load(s.Packed, loader.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rankings := InferAll(res, DefaultConfig())
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
		ModelConfig: "ucse=1",
		Hash:        modelcache.HashBytes([]byte("bin")),
		LibHashes:   map[string]modelcache.Hash{"libc.so": modelcache.HashBytes([]byte("libc"))},
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
		{ModelConfig: "ucse=0", Hash: target.Hash, LibHashes: target.LibHashes},
		{ModelConfig: target.ModelConfig, Hash: modelcache.HashBytes([]byte("other")), LibHashes: target.LibHashes},
		{ModelConfig: target.ModelConfig, Hash: target.Hash, LibHashes: map[string]modelcache.Hash{"libc.so": target.Hash}},
	} {
		if rankingKey(other, Config{}) == base {
			t.Errorf("model configuration, target hash and library hashes must each change the key")
		}
	}
}

package eval

import (
	"fits/internal/infer"
	"fits/internal/loader"
	"fits/internal/modelcache"
	"fits/internal/pool"
)

// sharedCache backs every corpus experiment: the RQ sweeps and ablations
// reload the same samples dozens of times under different pipeline variants
// (representations, strategies, metrics, dropped features), so each model
// and base-vector set is derived once and every variant after the first is
// a re-ranking of cached artifacts. Figure4 deliberately bypasses it — that
// experiment measures analysis time against binary size, and cache hits
// would decouple the two.
var sharedCache = modelcache.New(0, 0)

// CacheStats exposes the shared cache's counters (benchmark reporting).
func CacheStats() modelcache.Stats { return sharedCache.Stats() }

// loadCached loads one packed sample through the shared cache. A non-nil
// sched draws the model-building fan-out from the corpus-level worker budget
// (batched sweeps); nil gives the load a private Scheduler.
func loadCached(packed []byte, sched *pool.Scheduler) (*loader.Result, error) {
	return loader.Load(packed, loader.Options{Cache: sharedCache, Sched: sched})
}

// cached attaches the shared cache to an inference configuration.
func cached(cfg infer.Config) infer.Config {
	cfg.Cache = sharedCache
	return cfg
}

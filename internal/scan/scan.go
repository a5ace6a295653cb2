// Package scan is the one memoised entry point to the taint engines. The
// single-image scan (fits.TargetResult.ScanContext), every round of the
// corpus channel fixpoint (corpustaint) and the evaluation harness's bug and
// precision tables (eval) run a binary's taint analysis through Run, which
// owns the alert cache key, the one alert cache kind and the Taint span
// around the engines.
package scan

import (
	"cmp"
	"context"
	"slices"
	"strconv"

	"fits/internal/karonte"
	"fits/internal/loader"
	"fits/internal/modelcache"
	"fits/internal/stagetime"
	"fits/internal/taint"
)

// Engine selects a taint engine.
type Engine uint8

// Engines: the static reachability engine (STA) and the budgeted
// symbolic-execution engine (Karonte-style). Any other value runs the
// static engine.
const (
	Static Engine = iota
	Symbolic
)

// Run runs eng over t under opts and returns every alert it raised, in its
// deterministic order (the static engine's RunAll); callers report those
// whose Reported is true. The symbolic engine suppresses nothing, always
// seeds classical sources and reads only ITS and ITSOut.
//
// The alert list is memoised in cache under key (a nil cache keeps
// nothing), so re-scanning an unchanged binary — a diff's unchanged targets,
// a repeated corpus run on one cache — is a lookup; the returned
// slice may be shared with the cache and must not be modified. The context
// is checked before and after the engine but never inside the memoised
// computation, so a scan that finished is always cached. Stage costs land in
// st (nil disables), the Taint span on cache misses only.
func Run(ctx context.Context, t *loader.Target, eng Engine, opts taint.Options, cache *modelcache.Cache, st *stagetime.Timer) ([]taint.Alert, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	opts.Probe = st
	// The compute never fails, so neither does the lookup.
	v, _, _ := cache.GetOrCompute(key(t, eng, opts), func() (any, int64, error) {
		defer st.Span(stagetime.Taint)()
		var a []taint.Alert
		if eng == Symbolic {
			a = karonte.New(t.Bin, t.Model, karonte.Options{ITS: opts.ITS, ITSOut: opts.ITSOut}).Run()
		} else {
			a = taint.New(t.Bin, t.Model, opts).RunAll()
		}
		return a, int64(len(a))*112 + 64, nil
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return v.([]taint.Alert), nil
}

// key is the memo key of one scan: the engine, the target's content hash,
// and every taint.Options field that can change the alert list. Precision
// and Probe never change output and are left out, and the symbolic engine
// reads only ITS and ITSOut.
// The engines treat ITS as a set, so its entries are sorted; map-valued
// fields are written in sorted key order, and free-form strings quoted so
// no two option sets share a key. Built with strconv rather than fmt: a
// corpus fixpoint builds one key per binary per round.
func key(t *loader.Target, eng Engine, o taint.Options) string {
	if eng == Symbolic {
		o = taint.Options{ITS: o.ITS, ITSOut: o.ITSOut}
	}
	b := make([]byte, 0, 256)
	b = strconv.AppendUint(append(b, "engine="...), uint64(eng), 10)
	b = strconv.AppendBool(append(b, "|cts="...), o.UseCTS)
	b = strconv.AppendBool(append(b, "|sf="...), o.StringFilter)
	b = strconv.AppendBool(append(b, "|chanwrites="...), o.ChannelWrites)
	b = strconv.AppendBool(append(b, "|noalias="...), o.NoAlias)
	b = strconv.AppendBool(append(b, "|nopathcheck="...), o.NoPathcheck)
	b = strconv.AppendQuote(append(b, "|self="...), o.SelfPath)
	b = append(b, "|its="...)
	its := slices.Clone(o.ITS)
	slices.Sort(its)
	for _, e := range its {
		b = append(strconv.AppendUint(b, uint64(e), 16), ',')
	}
	b = append(b, "|itsout="...)
	for _, e := range sortedKeys(o.ITSOut) {
		b = append(strconv.AppendUint(b, uint64(e), 16), ':')
		for _, p := range o.ITSOut[e] {
			b = append(strconv.AppendInt(b, int64(p), 10), ' ')
		}
		b = append(b, ',')
	}
	b = append(b, "|seeds="...)
	for _, id := range sortedKeys(o.ChannelSeeds) {
		b = append(strconv.AppendQuote(b, id), '=')
		b = append(strconv.AppendBool(b, o.ChannelSeeds[id]), ',')
	}
	return modelcache.Key("alerts", string(b), t.Hash)
}

func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

package bench

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"fits"
	"fits/internal/evolve"
	"fits/internal/synth"
)

// diffChain is version-evolution traffic: one op is DiffContext(v_k,
// v_k+1) along a seeded chain whose five steps are the five step kinds in
// seeded order. Each chain has a fresh cache, so op k starts with v_k
// cached by op k-1 and one op in five has a cold old side.
type diffChain struct {
	sz     sizes
	chains []*synth.Chain
	want   [][][32]byte // per chain, per step
	q      quality

	chain, step int
	cache       *fits.Cache
}

// diffOutput is everything a diff reports except wall-clock and cache
// diagnostics.
type diffOutput struct {
	Old, New imageOutput
	Report   *evolve.DiffReport
}

func newDiffOutput(d *fits.DiffResult) diffOutput {
	return diffOutput{Old: newImageOutput(d.Old, d.OldAlerts), New: newImageOutput(d.New, d.NewAlerts), Report: d.Report}
}

func diffOptions(cache *fits.Cache, par int) fits.DiffOptions {
	opts := fits.DefaultDiffOptions()
	opts.Parallelism = par
	opts.Cache = cache
	opts.StringFilter = true
	return opts
}

// seededChain generates a chain whose five steps are the five step kinds
// in seeded order.
func seededChain(r *rand.Rand) (*synth.Chain, error) {
	kinds := []synth.ChainStepKind{synth.StepTuneConst, synth.StepPatchBug,
		synth.StepRefactorITS, synth.StepAddFeature, synth.StepRenameExport}
	spec := synth.ChainSpec{Seed: r.Int63()}
	for _, k := range r.Perm(len(kinds)) {
		spec.Steps = append(spec.Steps, kinds[k])
	}
	c, err := synth.GenerateChain(spec)
	if err != nil {
		return nil, fmt.Errorf("chain seed %d: %w", spec.Seed, err)
	}
	return c, nil
}

func (w *diffChain) prepare(ctx context.Context, seed int64) error {
	r := rand.New(rand.NewSource(seed))
	for len(w.chains) < w.sz.inputs {
		c, err := seededChain(r)
		if err != nil {
			return err
		}
		w.chains = append(w.chains, c)
	}
	w.want = make([][][32]byte, len(w.chains))
	qs := make([]quality, len(w.chains))
	err := forEachInput(len(w.chains), func(ci int) error {
		c := w.chains[ci]
		cache := fits.NewCache(0, 0)
		for k := range c.Steps {
			d, err := fits.DiffContext(ctx, c.Versions[k].Packed, c.Versions[k+1].Packed, diffOptions(cache, 1))
			if err != nil {
				return err
			}
			sum, err := digest(newDiffOutput(d))
			if err != nil {
				return err
			}
			w.want[ci] = append(w.want[ci], sum)
			q := scoreChurn(c.Steps[k], &c.Versions[k].Manifest, &c.Versions[k+1].Manifest,
				churned(d.Report, func(t *evolve.TargetDiff) []evolve.Alert { return t.Appeared }),
				churned(d.Report, func(t *evolve.TargetDiff) []evolve.Alert { return t.Fixed }))
			its := scoreImage(&c.Versions[k+1].Manifest, resultViews(d.New, d.NewAlerts))
			q.itsHit, q.itsPlanted = its.itsHit, its.itsPlanted
			qs[ci].add(q)
		}
		return nil
	})
	for _, q := range qs {
		w.q.add(q)
	}
	w.q.detail = map[string]float64{"churn_match_pct": pct(w.q.found, w.q.planted)}
	return err
}

func churned(r *evolve.DiffReport, pick func(*evolve.TargetDiff) []evolve.Alert) []churnKey {
	var out []churnKey
	for i := range r.Targets {
		for _, a := range pick(&r.Targets[i]) {
			out = append(out, churnKey{a.Binary, a.Func, a.Sink})
		}
	}
	return out
}

func (w *diffChain) inputs() [][]byte {
	var out [][]byte
	for _, c := range w.chains {
		for _, v := range c.Versions {
			out = append(out, v.Packed)
		}
	}
	return out
}

// setup warms up on throwaway caches, then rewinds to the first chain.
func (w *diffChain) setup(ctx context.Context) error {
	w.chain, w.step = 0, 0
	for i := 0; i < w.sz.warmup; i++ {
		if _, err := w.op(ctx, 0); err != nil {
			return err
		}
	}
	w.chain, w.step = 0, 0
	return nil
}

func (w *diffChain) clients() int { return 1 }

func (w *diffChain) op(ctx context.Context, _ int) (time.Duration, error) {
	if w.step == 0 {
		w.cache = fits.NewCache(0, 0)
	}
	lat, _, err := w.run(ctx, w.chain, w.step, w.cache, Parallelism)
	if w.step++; w.step == len(w.chains[w.chain].Steps) {
		w.step = 0
		w.chain = (w.chain + 1) % len(w.chains)
	}
	return lat, err
}

func (w *diffChain) run(ctx context.Context, ci, k int, cache *fits.Cache, par int) (time.Duration, *fits.DiffResult, error) {
	v := w.chains[ci].Versions
	start := time.Now()
	d, err := fits.DiffContext(ctx, v[k].Packed, v[k+1].Packed, diffOptions(cache, par))
	lat := time.Since(start)
	if err != nil {
		return lat, nil, err
	}
	return lat, d, check(newDiffOutput(d), w.want[ci][k])
}

func (w *diffChain) quality() quality { return w.q }

// trace walks chains step by step on two caches in lockstep, so each
// traced op and its untraced partner start from the same cache state. The
// stage spans are the op's own DiffResult.Timings.
func (w *diffChain) trace(ctx context.Context, tr *tracer) (map[string]float64, error) {
	var reuse float64
	var funcs int
	var hits, lookups uint64
	stages := []string{"diff.analyze_old", "diff.scan_old", "diff.analyze_new", "diff.scan_new", "evolve.align"}
	op := 0
	for ci := 0; op < w.sz.traced; ci = (ci + 1) % len(w.chains) {
		plain, traced := fits.NewCache(0, 0), fits.NewCache(0, 0)
		for k := 0; k < len(w.chains[ci].Steps) && op < w.sz.traced; k++ {
			untraced, _, err := w.run(ctx, ci, k, plain, 1)
			if err != nil {
				return nil, fmt.Errorf("untraced op: %w", err)
			}
			span := tr.begin(op, -1, opSpan)
			_, d, err := w.run(ctx, ci, k, traced, 1)
			tr.end(span)
			if err != nil {
				return nil, fmt.Errorf("traced op: %w", err)
			}
			tr.pair(untraced)
			t := d.Timings
			tr.addSeq(op, span, tr.epoch.Add(time.Duration(tr.spans[span].Start)), stages,
				[]time.Duration{t.AnalyzeOld, t.ScanOld, t.AnalyzeNew, t.ScanNew, t.Align})
			if err := tr.unitCosts(w.chains[ci].Versions[k+1].Image.Files); err != nil {
				return nil, err
			}
			reuse += d.Report.ReuseRatio
			funcs += d.Report.TotalFuncs
			op++
		}
		st := traced.Stats()
		hits += st.Hits
		lookups += st.Hits + st.Misses
	}
	n := float64(max(op, 1))
	return map[string]float64{
		"evolve.reuse_ratio": reuse / n,
		"loader.funcs":       float64(funcs) / n,
		"modelcache.hit_pct": 100 * float64(hits) / float64(max(lookups, 1)),
	}, nil
}

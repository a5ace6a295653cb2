package bench

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"fits"
	"fits/internal/bfv"
	"fits/internal/cluster"
	"fits/internal/firmware"
	"fits/internal/infer"
	"fits/internal/loader"
	"fits/internal/score"
	"fits/internal/synth"
	"fits/internal/taint"
)

// coldImage is the fits/fwscan analyst flow on never-cached images: one op
// is AnalyzeContext then ScanContext on every target, static engine, top-3
// ITS seeded, string filter on, no cache.
type coldImage struct {
	sz      sizes
	samples []*synth.Sample
	want    [][32]byte
	q       quality
	next    int
}

// imageOutput is everything an analysis op reports for one image except
// wall-clock and cache diagnostics; its digest is the op's reference.
type imageOutput struct {
	Vendor, Product, Version string
	Targets                  []targetOutput
}

type targetOutput struct {
	Path, Binary string
	NumFuncs     int
	Candidates   []fits.Candidate
	Alerts       []fits.Alert
}

func newImageOutput(res *fits.Result, alerts [][]fits.Alert) imageOutput {
	out := imageOutput{Vendor: res.Vendor, Product: res.Product, Version: res.Version}
	for i, t := range res.Targets {
		out.Targets = append(out.Targets, targetOutput{
			Path: t.Path, Binary: t.Binary, NumFuncs: t.NumFuncs,
			Candidates: t.Candidates, Alerts: alerts[i],
		})
	}
	return out
}

// datasetSpecs returns the first canonical specs of synth.Dataset() as
// the paper's corpus has them, followed by seeded specs: every spec in a
// seeded order, repeated as needed, each with a fresh generation seed.
// Engineered failures are left out; they end in ErrNoTargets by design.
// Drawing every spec equally often keeps the vendor mix, and with it the
// run's cost, the same from seed to seed.
func datasetSpecs(r *rand.Rand, canonical, seeded int) []synth.SampleSpec {
	var base []synth.SampleSpec
	for _, s := range synth.Dataset() {
		if s.FailureMode == "" {
			base = append(base, s)
		}
	}
	out := append([]synth.SampleSpec(nil), base[:canonical]...)
	for len(out) < canonical+seeded {
		for _, i := range r.Perm(len(base)) {
			if len(out) == canonical+seeded {
				break
			}
			s := base[i]
			s.Seed = r.Int63()
			out = append(out, s)
		}
	}
	return out
}

func generateImages(specs []synth.SampleSpec) ([]*synth.Sample, error) {
	out := make([]*synth.Sample, len(specs))
	for i, s := range specs {
		sm, err := synth.Generate(s)
		if err != nil {
			return nil, fmt.Errorf("%s %s: %w", s.Vendor, s.Product, err)
		}
		out[i] = sm
	}
	return out, nil
}

// prepare scores quality on the canonical images only, so the quality
// metrics are the same for every seed; timing runs over all of them.
func (w *coldImage) prepare(ctx context.Context, seed int64) error {
	var err error
	specs := datasetSpecs(rand.New(rand.NewSource(seed)), w.sz.canonical, w.sz.inputs-w.sz.canonical)
	w.samples, err = generateImages(specs)
	if err != nil {
		return err
	}
	w.want = make([][32]byte, len(w.samples))
	qs := make([]quality, len(w.samples))
	err = forEachInput(len(w.samples), func(i int) error {
		res, alerts, err := analyzeImage(ctx, w.samples[i].Packed, 1)
		if err != nil {
			return err
		}
		qs[i] = scoreImage(&w.samples[i].Manifest, resultViews(res, alerts))
		w.want[i], err = digest(newImageOutput(res, alerts))
		return err
	})
	for _, q := range qs[:w.sz.canonical] {
		w.q.add(q)
	}
	w.q.detail = map[string]float64{
		"bug_recall_pct":      pct(w.q.found, w.q.planted),
		"alert_precision_pct": pct(w.q.good, w.q.alerts),
		"its_top3_pct":        pct(w.q.itsHit, w.q.itsPlanted),
	}
	return err
}

// analyzeImage is one op: inference, then a static scan of every target
// seeded with its top-3 candidates.
func analyzeImage(ctx context.Context, raw []byte, par int) (*fits.Result, [][]fits.Alert, error) {
	opts := fits.DefaultOptions()
	opts.Parallelism = par
	res, err := fits.AnalyzeContext(ctx, raw, opts)
	if err != nil {
		return nil, nil, err
	}
	alerts := make([][]fits.Alert, len(res.Targets))
	for i, t := range res.Targets {
		var its []uint32
		for _, c := range t.TopCandidates(3) {
			its = append(its, c.Entry)
		}
		alerts[i], err = t.ScanContext(ctx, fits.ScanOptions{Engine: fits.EngineStatic, ITS: its, StringFilter: true})
		if err != nil {
			return nil, nil, err
		}
	}
	return res, alerts, nil
}

func (w *coldImage) inputs() [][]byte {
	out := make([][]byte, len(w.samples))
	for i, s := range w.samples {
		out[i] = s.Packed
	}
	return out
}

// setup has nothing to build (no cache): it runs the warm-up ops.
func (w *coldImage) setup(ctx context.Context) error {
	w.next = 0
	for i := 0; i < w.sz.warmup; i++ {
		if _, err := w.op(ctx, 0); err != nil {
			return err
		}
	}
	w.next = 0
	return nil
}

func (w *coldImage) clients() int { return 1 }

func (w *coldImage) op(ctx context.Context, _ int) (time.Duration, error) {
	i := w.next % len(w.samples)
	w.next++
	return w.run(ctx, i, Parallelism)
}

// run analyzes input i and checks the output against its reference.
func (w *coldImage) run(ctx context.Context, i, par int) (time.Duration, error) {
	start := time.Now()
	res, alerts, err := analyzeImage(ctx, w.samples[i].Packed, par)
	lat := time.Since(start)
	if err != nil {
		return lat, err
	}
	return lat, check(newImageOutput(res, alerts), w.want[i])
}

// check compares an output's digest with its reference.
func check(out any, want [32]byte) error {
	got, err := digest(out)
	if err != nil {
		return err
	}
	if got != want {
		return errMismatch
	}
	return nil
}

func (w *coldImage) quality() quality { return w.q }

// trace pairs an untraced op at Parallelism 1 with the walk on the same
// image. The walk composes the pipeline from the layers' exported calls —
// firmware.Unpack, loader.LoadImageContext, infer.TargetVectors,
// infer.AnchorVectorsForTest, cluster.Candidates, score.Rank and
// taint.New(...).Run — and must reproduce the op's output exactly.
func (w *coldImage) trace(ctx context.Context, tr *tracer) (map[string]float64, error) {
	var funcs, customs, cands, raw, refuted, alerts, degraded int
	for op := 0; op < w.sz.traced; op++ {
		i := op % len(w.samples)
		untraced, err := w.run(ctx, i, 1)
		if err != nil {
			return nil, fmt.Errorf("untraced op: %w", err)
		}
		span := tr.begin(op, -1, opSpan)
		out, st, err := walkImage(ctx, tr, op, span, w.samples[i].Packed)
		tr.end(span)
		if err != nil {
			return nil, fmt.Errorf("walk: %w", err)
		}
		tr.pair(untraced)
		if err := check(out, w.want[i]); err != nil {
			return nil, fmt.Errorf("walk of input %d: %w", i, err)
		}
		if err := tr.unitCosts(st.files); err != nil {
			return nil, err
		}
		funcs += st.funcs
		customs += st.customs
		cands += st.cands
		raw += st.raw
		refuted += st.refuted
		alerts += st.alerts
		degraded += st.degraded
	}
	return map[string]float64{
		"loader.funcs":          float64(funcs) / float64(max(w.sz.traced, 1)),
		"cluster.candidate_pct": pct(cands, customs),
		"taint.refuted_pct":     pct(refuted, raw),
		"taint.degraded_pct":    pct(degraded, alerts),
	}, nil
}

// modeledFuncs counts the functions a load modeled: every target's and
// each dependency library's once.
func modeledFuncs(targets []*loader.Target) int {
	n := 0
	libs := map[string]bool{}
	for _, t := range targets {
		n += len(t.Model.FuncsInOrder())
		for name, m := range t.LibModels {
			if !libs[name] {
				libs[name] = true
				n += len(m.FuncsInOrder())
			}
		}
	}
	return n
}

// walkStats counts the work one walk did.
type walkStats struct {
	files                 []firmware.File
	funcs, customs, cands int
	raw, refuted          int // every taint alert, and those path-refuted
	alerts, degraded      int // reported alerts, and those degraded
}

// walkImage runs one op as consecutive layer spans under span.
func walkImage(ctx context.Context, tr *tracer, op, span int, raw []byte) (imageOutput, walkStats, error) {
	var st walkStats
	var out imageOutput
	s := tr.begin(op, span, "firmware.unpack")
	img, err := firmware.Unpack(raw)
	tr.end(s)
	if err != nil {
		return out, st, err
	}
	st.files = img.Files
	s = tr.begin(op, span, "loader.load")
	res, err := loader.LoadImageContext(ctx, img, loader.Options{Parallelism: 1})
	tr.end(s)
	if err != nil {
		return out, st, err
	}
	out = imageOutput{Vendor: img.Vendor, Product: img.Product, Version: img.Version}
	st.funcs = modeledFuncs(res.Targets)
	cfgn := infer.DefaultConfig()
	cfgn.Parallelism = 1
	for _, t := range res.Targets {
		s = tr.begin(op, span, "infer.bfv")
		fns, vecs, err := infer.TargetVectors(ctx, t, cfgn)
		tr.end(s)
		if err != nil {
			return out, st, err
		}
		s = tr.begin(op, span, "infer.anchors")
		anchors := infer.AnchorVectorsForTest(t)
		tr.end(s)

		s = tr.begin(op, span, "cluster.dbscan")
		points := make([]cluster.Point, len(fns))
		for i, f := range fns {
			points[i] = cluster.Point{Entry: f.Entry, Vec: vecs[i]}
		}
		candidates := cluster.Candidates(points, cfgn.DBSCAN)
		tr.end(s)
		st.customs += len(fns)
		st.cands += len(candidates)

		s = tr.begin(op, span, "score.rank")
		byEntry := make(map[uint32]bfv.Vector, len(points))
		for _, p := range points {
			byEntry[p.Entry] = p.Vec
		}
		candVecs := make(map[uint32]bfv.Vector, len(candidates))
		for _, e := range candidates {
			candVecs[e] = byEntry[e]
		}
		ranked := score.Rank(cfgn.Metric, candVecs, anchors)
		tr.end(s)

		to := targetOutput{Path: t.Path, Binary: t.Bin.Name, NumFuncs: len(fns), Alerts: []fits.Alert{}}
		var its []uint32
		for k, r := range ranked {
			to.Candidates = append(to.Candidates, fits.Candidate{Entry: r.Entry, Score: r.Score})
			if k < 3 {
				its = append(its, r.Entry)
			}
		}

		s = tr.begin(op, span, "taint.run")
		e := taint.New(t.Bin, t.Model, taint.Options{
			UseCTS: true, ITS: its, StringFilter: true, Precision: new(taint.PrecisionCache),
		})
		found := e.Run()
		tr.end(s)
		for _, a := range e.AllAlerts() {
			st.raw++
			if a.Refuted != "" {
				st.refuted++
			}
		}
		for _, a := range found {
			st.alerts++
			if a.Degraded {
				st.degraded++
			}
			to.Alerts = append(to.Alerts, fits.Alert{
				Binary: a.Binary, Site: a.Site, Func: a.Func, Sink: a.Sink,
				Kind: a.Kind.String(), Source: a.From.String(), Degraded: a.Degraded,
			})
		}
		out.Targets = append(out.Targets, to)
	}
	return out, st, nil
}

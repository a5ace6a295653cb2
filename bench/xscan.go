package bench

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"fits"
	"fits/internal/firmware"
	"fits/internal/frontend"
	"fits/internal/intern"
	"fits/internal/loader"
	"fits/internal/synth"
	"fits/internal/xchan"
)

// xscanCorpus is the cross-binary corpus scan: one op is XScanContext in
// cross mode with no cache. Cross mode runs no inference, so this is the
// workload that bypasses infer, cluster and score.
type xscanCorpus struct {
	sz      sizes
	corpora []*synth.XCorpus
	files   [][]fits.CorpusFile
	want    [][32]byte
	q       quality
	next    int
}

func (w *xscanCorpus) prepare(ctx context.Context, seed int64) error {
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < w.sz.inputs; i++ {
		x, err := synth.GenerateXCorpus(r.Int63())
		if err != nil {
			return err
		}
		files := make([]fits.CorpusFile, len(x.Files))
		for k, f := range x.Files {
			files[k] = fits.CorpusFile{Path: f.Path, Data: f.Data}
		}
		w.corpora = append(w.corpora, x)
		w.files = append(w.files, files)
	}
	w.want = make([][32]byte, len(w.corpora))
	type scored struct {
		q                        quality
		crossFound, crossPlanted int
	}
	qs := make([]scored, len(w.corpora))
	err := forEachInput(len(w.corpora), func(i int) error {
		rep, err := xscan(ctx, w.files[i], 1)
		if err != nil {
			return err
		}
		s := &qs[i]
		s.q, s.crossFound, s.crossPlanted = scoreCorpus(&w.corpora[i].Manifest, rep.Alerts)
		w.want[i], err = digest(rep)
		return err
	})
	var crossFound, crossPlanted int
	for _, s := range qs {
		w.q.add(s.q)
		crossFound += s.crossFound
		crossPlanted += s.crossPlanted
	}
	w.q.detail = map[string]float64{"cross_recall_pct": pct(crossFound, crossPlanted)}
	return err
}

func xscan(ctx context.Context, files []fits.CorpusFile, par int) (*fits.CorpusReport, error) {
	return fits.XScanContext(ctx, files, fits.XScanOptions{Mode: "cross", StringFilter: true, Parallelism: par})
}

func (w *xscanCorpus) inputs() [][]byte {
	var out [][]byte
	for _, files := range w.files {
		for _, f := range files {
			out = append(out, []byte(f.Path), f.Data)
		}
	}
	return out
}

func (w *xscanCorpus) setup(ctx context.Context) error {
	w.next = 0
	for i := 0; i < w.sz.warmup; i++ {
		if _, err := w.op(ctx, 0); err != nil {
			return err
		}
	}
	w.next = 0
	return nil
}

func (w *xscanCorpus) clients() int { return 1 }

func (w *xscanCorpus) op(ctx context.Context, _ int) (time.Duration, error) {
	i := w.next % len(w.files)
	w.next++
	return w.run(ctx, i, Parallelism)
}

func (w *xscanCorpus) run(ctx context.Context, i, par int) (time.Duration, error) {
	start := time.Now()
	rep, err := xscan(ctx, w.files[i], par)
	lat := time.Since(start)
	if err != nil {
		return lat, err
	}
	return lat, check(rep, w.want[i])
}

func (w *xscanCorpus) quality() quality { return w.q }

// trace times the corpus scan's children — the front-end sweep, loading
// every executable, and channel endpoint discovery — by calling their
// exported entry points on the op's input, then times the op itself. The
// channel fixpoint has no public entry point, so its span is the op's
// time minus the three children.
func (w *xscanCorpus) trace(ctx context.Context, tr *tracer) (map[string]float64, error) {
	var funcs, rounds, cross int
	for op := 0; op < w.sz.traced; op++ {
		i := op % len(w.files)
		untraced, err := w.run(ctx, i, 1)
		if err != nil {
			return nil, fmt.Errorf("untraced op: %w", err)
		}
		fw := make([]firmware.File, len(w.files[i]))
		for k, f := range w.files[i] {
			fw[k] = firmware.File{Path: f.Path, Data: f.Data}
		}

		t0 := time.Now()
		for _, f := range fw {
			frontend.Extract(f.Path, f.Data)
		}
		t1 := time.Now()
		res, err := loader.LoadImageContext(ctx, &firmware.Image{Files: fw},
			loader.Options{AllExecutables: true, Parallelism: 1, Intern: intern.NewTable()})
		if err != nil {
			return nil, err
		}
		t2 := time.Now()
		for _, t := range res.Targets {
			xchan.Endpoints(t.Path, t.Bin, t.Model)
		}
		t3 := time.Now()
		children := []time.Duration{t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)}

		span := tr.begin(op, -1, opSpan)
		rep, err := xscan(ctx, w.files[i], 1)
		tr.end(span)
		if err != nil {
			return nil, err
		}
		if err := check(rep, w.want[i]); err != nil {
			return nil, fmt.Errorf("traced op on input %d: %w", i, err)
		}
		tr.pair(untraced)
		s := tr.spans[span]
		start := tr.epoch.Add(time.Duration(s.Start))
		fixpoint := time.Duration(s.End-s.Start) - children[0] - children[1] - children[2]
		tr.addSeq(op, span, start,
			[]string{"frontend.extract", "loader.load", "xchan.endpoints", "corpustaint.fixpoint"},
			append(children, max(fixpoint, 0)))

		if err := tr.unitCosts(fw); err != nil {
			return nil, err
		}
		funcs += modeledFuncs(res.Targets)
		rounds += rep.Rounds
		cross += rep.CrossHit
	}
	n := float64(max(w.sz.traced, 1))
	return map[string]float64{
		"loader.funcs":             float64(funcs) / n,
		"corpustaint.rounds":       float64(rounds) / n,
		"corpustaint.cross_alerts": float64(cross) / n,
	}, nil
}

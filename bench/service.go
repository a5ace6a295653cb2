package bench

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"fits"
	"fits/client"
	"fits/internal/firmware"
	"fits/internal/optbuild"
	"fits/internal/server"
	"fits/internal/synth"
)

// serviceMix drives an in-process fitsd the way `fitsctl submit -wait`
// does: submit, client.Wait with a 2 ms poll, client.Result. Two
// closed-loop clients share one server with two workers, one model cache
// and a data directory. The traffic mix is an assumption — no production
// traces exist: 60% /v1/jobs (scan, ITS seeded), 25% /v1/diffs, 15%
// /v1/corpora; and 15% never-seen bytes, 25% seen bytes with a new option
// value, 60% exact repeats. Quality is scored on the canonical inputs,
// which setup submits before the warm-up ops.
type serviceMix struct {
	sz      sizes
	workDir string

	all         []*svcInput
	pools       [Parallelism][numKinds][]*svcInput
	clientSeeds [Parallelism]int64
	// canon counts each kind's canonical inputs, at the head of its pool.
	canon [numKinds]int

	dir       string
	srv       *server.Server
	ts        *httptest.Server
	hc        *http.Client
	api       *client.Client
	cl        [Parallelism]*svcClient
	q         quality
	bootShare float64 // reboot time over the whole setup
}

// Submission kinds.
const (
	kindJob = iota
	kindDiff
	kindCorpus
	numKinds
)

var kindNames = [numKinds]string{"job", "diff", "corpus"}

// svcInput is one generated submission input with its ground truth.
type svcInput struct {
	kind      int
	raw, raw2 []byte
	files     []firmware.File // the binaries' container, for unit costs

	image          *synth.Manifest // job
	step           synth.ChainStep // diff
	oldMan, newMan *synth.Manifest // diff
	corpus         *synth.XManifest
}

// submission is one input under one option variant.
type submission struct {
	in      *svcInput
	variant int
}

// numVariants option values exist per input; variant 0 is the default.
const numVariants = 6

var topKs = [numVariants]int{3, 2, 4, 1, 5, 6}

// spec is the submission's options: jobs scan with their top-K seeded,
// corpora vary the seeding mode first.
func (s submission) spec() optbuild.Spec {
	switch s.in.kind {
	case kindJob:
		return optbuild.Spec{Scan: true, SeedITS: true, TopK: topKs[s.variant]}
	case kindDiff:
		return optbuild.Spec{TopK: topKs[s.variant]}
	}
	modes := [3]string{"cross", "its", "cts"}
	return optbuild.Spec{XMode: modes[s.variant%3], TopK: topKs[s.variant/3]}
}

// svcClient is one closed-loop client. Its draws come from its own seeded
// generator and its own pool of never-seen inputs, so its op sequence
// depends on the seed alone.
type svcClient struct {
	r        *rand.Rand
	mix      deck
	pool     [numKinds][]*svcInput
	used     [numKinds]int
	seen     [numKinds][]*svcInput
	variants map[*svcInput]int // option variants submitted so far
	history  [numKinds][]submission
	first    map[submission][]byte
	ops      int
	fresh    int
}

// deck deals a fixed block of cards in seeded order: every block of draws
// has the mix's exact proportions, so the share of fresh inputs, and with
// it the cost of a run, does not wander with the seed.
type deck struct {
	block, cards []draw
}

// draw is one dealt card: a submission kind and its novelty.
type draw struct{ kind, novelty int }

func (d *deck) deal(r *rand.Rand) draw {
	if len(d.cards) == 0 {
		d.cards = append(d.cards, d.block...)
		r.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
	}
	c := d.cards[0]
	d.cards = d.cards[1:]
	return c
}

const (
	novelFresh = iota
	novelOption
	novelRepeat
)

// mixBlock is the mix as a block of 400 draws: kinds 60/25/15 (jobs,
// diffs, corpora) crossed with novelty 15/25/60 (never-seen, new option
// value, exact repeat).
func mixBlock() []draw {
	var out []draw
	for kind, kp := range [numKinds]int{60, 25, 15} {
		for novelty, np := range []int{15, 25, 60} {
			for i := 0; i < kp*np/25; i++ {
				out = append(out, draw{kind, novelty})
			}
		}
	}
	return out
}

func newClient(seed int64, pool [numKinds][]*svcInput) *svcClient {
	return &svcClient{
		r:        rand.New(rand.NewSource(seed)),
		mix:      deck{block: mixBlock()},
		pool:     pool,
		variants: map[*svcInput]int{},
		first:    map[submission][]byte{},
	}
}

// next draws the client's next submission and whether its bytes are
// never-seen. A draw that needs history the client does not have yet
// takes a never-seen input instead.
func (c *svcClient) next() (submission, bool) {
	d, pick := c.mix.deal(c.r), c.r.Int()
	kind, novelty := d.kind, d.novelty
	if h := c.history[kind]; novelty == novelRepeat && len(h) > 0 {
		return h[pick%len(h)], false
	}
	if s := c.seen[kind]; novelty != novelFresh && len(s) > 0 {
		in := s[pick%len(s)]
		v := c.variants[in]
		if v == numVariants {
			return submission{in, pick % numVariants}, false
		}
		c.variants[in]++
		sub := submission{in, v}
		c.history[kind] = append(c.history[kind], sub)
		return sub, false
	}
	if c.used[kind] == len(c.pool[kind]) {
		// The pool is sized well past what a run submits; if it still runs
		// dry, repeat rather than invent bytes. server.fresh_pct shows it.
		h := c.history[kind]
		return h[pick%len(h)], false
	}
	return c.take(kind), true
}

// take submits the next never-seen input of a kind under default options.
func (c *svcClient) take(kind int) submission {
	in := c.pool[kind][c.used[kind]]
	c.used[kind]++
	c.seen[kind] = append(c.seen[kind], in)
	c.variants[in] = 1
	sub := submission{in, 0}
	c.history[kind] = append(c.history[kind], sub)
	return sub
}

// prepare generates each kind's inputs: canonical ones first — the
// synth.Dataset() images, the synth.ChainDataset() version pairs and one
// corpus per client — then seeded ones. Inputs alternate between the two
// clients' pools.
func (w *serviceMix) prepare(ctx context.Context, seed int64) error {
	r := rand.New(rand.NewSource(seed))
	nJob, nDiff := w.sz.inputs*60/100, w.sz.inputs*25/100
	nCorpus := w.sz.inputs - nJob - nDiff
	var ins [numKinds][]*svcInput

	images, err := generateImages(datasetSpecs(r, w.sz.canonical, nJob-w.sz.canonical))
	if err != nil {
		return err
	}
	for _, s := range images {
		// Keep only the packed bytes and the manifest, not the sample.
		m := s.Manifest
		ins[kindJob] = append(ins[kindJob], &svcInput{kind: kindJob, raw: bytes.Clone(s.Packed), image: &m})
	}
	w.canon[kindJob] = w.sz.canonical

	addChain := func(c *synth.Chain) {
		packed := make([][]byte, len(c.Versions))
		mans := make([]synth.Manifest, len(c.Versions))
		for i, v := range c.Versions {
			packed[i], mans[i] = bytes.Clone(v.Packed), v.Manifest
		}
		for k, st := range c.Steps {
			ins[kindDiff] = append(ins[kindDiff], &svcInput{kind: kindDiff, raw: packed[k], raw2: packed[k+1],
				step: st, oldMan: &mans[k], newMan: &mans[k+1]})
		}
	}
	for _, spec := range synth.ChainDataset() {
		c, err := synth.GenerateChain(spec)
		if err != nil {
			return err
		}
		addChain(c)
	}
	w.canon[kindDiff] = min(len(ins[kindDiff]), w.sz.canonical)
	ins[kindDiff] = ins[kindDiff][:w.canon[kindDiff]]
	for len(ins[kindDiff]) < nDiff {
		c, err := seededChain(r)
		if err != nil {
			return err
		}
		addChain(c)
	}

	w.canon[kindCorpus] = Parallelism
	for i := 0; len(ins[kindCorpus]) < nCorpus; i++ {
		xseed := int64(i + 1)
		if i >= w.canon[kindCorpus] {
			xseed = r.Int63()
		}
		x, err := synth.GenerateXCorpus(xseed)
		if err != nil {
			return err
		}
		files := make([]fits.CorpusFile, len(x.Files))
		for k, f := range x.Files {
			files[k] = fits.CorpusFile{Path: f.Path, Data: f.Data}
		}
		m := x.Manifest
		ins[kindCorpus] = append(ins[kindCorpus], &svcInput{kind: kindCorpus, raw: bytes.Clone(fits.PackCorpus(files)), corpus: &m})
	}

	for k := range ins {
		for i, in := range ins[k] {
			w.pools[i%Parallelism][k] = append(w.pools[i%Parallelism][k], in)
			w.all = append(w.all, in)
		}
	}
	for c := range w.clientSeeds {
		w.clientSeeds[c] = r.Int63()
	}
	return nil
}

func (w *serviceMix) inputs() [][]byte {
	var out [][]byte
	for _, in := range w.all {
		out = append(out, in.raw, in.raw2)
	}
	return out
}

// setup boots fitsd on a fresh data directory, runs the warm-up split
// across the two clients, shuts the server down and reboots it on the same
// directory, which replays the journal.
func (w *serviceMix) setup(ctx context.Context) error {
	start := time.Now()
	if err := w.close(); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(w.workDir, "fitsd-")
	if err != nil {
		return err
	}
	w.dir = dir
	for c := range w.cl {
		w.cl[c] = newClient(w.clientSeeds[c], w.pools[c])
	}
	if err := w.boot(); err != nil {
		return err
	}
	errs := make([]error, Parallelism)
	scored := make([]quality, Parallelism)
	var wg sync.WaitGroup
	for c := range w.cl {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[c] = w.warmup(ctx, c, &scored[c])
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	w.q = quality{}
	for c, cl := range w.cl {
		w.q.add(scored[c])
		cl.ops, cl.fresh = 0, 0
	}
	if err := w.shutdown(); err != nil {
		return err
	}
	bootStart := time.Now()
	if err := w.boot(); err != nil {
		return err
	}
	w.bootShare = time.Since(bootStart).Seconds() / time.Since(start).Seconds()
	return nil
}

// warmup submits client c's canonical inputs, scoring each result against
// its manifest — the same set for every seed — then runs its share of the
// warm-up ops.
func (w *serviceMix) warmup(ctx context.Context, c int, q *quality) error {
	for kind := range w.canon {
		for i := c; i < w.canon[kind]; i += Parallelism {
			sub := w.cl[c].take(kind)
			_, body, err := w.do(ctx, c, sub, true)
			if err != nil {
				return fmt.Errorf("canonical %s: %w", kindNames[kind], err)
			}
			sq, err := scoreResult(sub.in, body)
			if err != nil {
				return err
			}
			q.add(sq)
		}
	}
	for i := c; i < w.sz.warmup; i += Parallelism {
		if _, err := w.op(ctx, c); err != nil {
			return fmt.Errorf("warm-up op: %w", err)
		}
	}
	return nil
}

// cacheBytes is fitsd's model cache budget (its -cache-size). The cache
// weighs a model at ten times its text section, about an eighth of the
// heap a model really holds, so the 1 GiB default lets this traffic grow
// the process by gigabytes; 16 MiB keeps it near 150 MB of models.
const cacheBytes = 16 << 20

// boot starts fitsd on w.dir behind a loopback listener, with a fresh
// model cache as a restarted process would have.
func (w *serviceMix) boot() error {
	srv, err := server.New(server.Config{Workers: Parallelism, Cache: fits.NewCache(0, cacheBytes), DataDir: w.dir})
	if err != nil {
		return err
	}
	w.srv = srv
	w.ts = httptest.NewServer(srv)
	w.hc = &http.Client{Transport: &http.Transport{MaxConnsPerHost: Parallelism, MaxIdleConnsPerHost: Parallelism}}
	w.api = client.New(w.ts.URL, w.hc)
	return nil
}

// shutdown drains fitsd and closes its listener and the client's
// connections.
func (w *serviceMix) shutdown() error {
	if w.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := w.srv.Shutdown(ctx)
	w.ts.Close()
	w.hc.CloseIdleConnections()
	w.srv, w.ts = nil, nil
	return err
}

func (w *serviceMix) close() error {
	err := w.shutdown()
	if w.dir != "" {
		err = errors.Join(err, os.RemoveAll(w.dir))
		w.dir = ""
	}
	return err
}

func (w *serviceMix) clients() int { return Parallelism }

// svcTimes are the client-side timestamps of one submission, with the
// input submitted and the final job status.
type svcTimes struct {
	in                             *svcInput
	start, submitted, waited, done time.Time
	status                         *server.JobStatus
}

func (w *serviceMix) op(ctx context.Context, c int) (time.Duration, error) {
	sub, fresh := w.cl[c].next()
	t, _, err := w.do(ctx, c, sub, fresh)
	return t.done.Sub(t.start), err
}

// do runs one of client c's submissions and checks its result. A repeat
// must return bytes identical to the first result for the same input and
// options.
func (w *serviceMix) do(ctx context.Context, c int, sub submission, fresh bool) (svcTimes, []byte, error) {
	cl := w.cl[c]
	t, body, err := w.submit(ctx, sub)
	cl.ops++
	if fresh {
		cl.fresh++
	}
	if err != nil {
		return t, nil, err
	}
	if first, ok := cl.first[sub]; ok {
		if !bytes.Equal(first, body) {
			return t, nil, fmt.Errorf("%s repeat: %w", kindNames[sub.in.kind], errMismatch)
		}
		return t, body, nil
	}
	cl.first[sub] = body
	return t, body, nil
}

// submit is one `fitsctl submit -wait`: submit, poll every 2 ms until
// terminal, fetch the result bytes.
func (w *serviceMix) submit(ctx context.Context, sub submission) (t svcTimes, body []byte, err error) {
	t.in, t.start = sub.in, time.Now()
	defer func() { t.done = time.Now() }()
	in, spec := sub.in, sub.spec()
	var resp *server.SubmitResponse
	switch in.kind {
	case kindJob:
		resp, err = w.api.Submit(ctx, in.raw, spec)
	case kindDiff:
		resp, err = w.api.SubmitDiff(ctx, in.raw, in.raw2, spec)
	default:
		resp, err = w.api.SubmitCorpus(ctx, in.raw, spec)
	}
	t.submitted = time.Now()
	if err != nil {
		return t, nil, err
	}
	t.status, err = w.api.Wait(ctx, resp.ID, 2*time.Millisecond)
	t.waited = time.Now()
	if err != nil {
		return t, nil, err
	}
	if t.status.State != server.StateDone {
		return t, nil, fmt.Errorf("job %s ended %s: %s", resp.ID, t.status.State, t.status.Error)
	}
	body, err = w.api.Result(ctx, resp.ID)
	return t, body, err
}

// scoreResult scores a fresh result against its input's manifest.
func scoreResult(in *svcInput, body []byte) (quality, error) {
	switch in.kind {
	case kindJob:
		var jr server.JobResult
		if err := json.Unmarshal(body, &jr); err != nil {
			return quality{}, err
		}
		views := make([]targetView, len(jr.Targets))
		for i, t := range jr.Targets {
			views[i].binary = t.Binary
			for k, c := range t.Candidates {
				if k < 3 {
					views[i].top3 = append(views[i].top3, c.Entry)
				}
			}
			for _, a := range t.Alerts {
				views[i].alerts = append(views[i].alerts, a.Func)
			}
		}
		return scoreImage(in.image, views), nil
	case kindDiff:
		var dr server.DiffJobResult
		if err := json.Unmarshal(body, &dr); err != nil {
			return quality{}, err
		}
		var appeared, fixed []churnKey
		for _, t := range dr.Targets {
			for _, a := range t.Appeared {
				appeared = append(appeared, churnKey{a.Binary, a.Func, a.Sink})
			}
			for _, a := range t.Fixed {
				fixed = append(fixed, churnKey{a.Binary, a.Func, a.Sink})
			}
		}
		return scoreChurn(in.step, in.oldMan, in.newMan, appeared, fixed), nil
	}
	var rep fits.CorpusReport
	if err := json.Unmarshal(body, &rep); err != nil {
		return quality{}, err
	}
	q, _, _ := scoreCorpus(in.corpus, rep.Alerts)
	return q, nil
}

func (w *serviceMix) quality() quality { return w.q }

// trace runs one client, alternating an untraced op with a traced one.
// Both are drawn from the mix, so the pair shares the traffic, not the
// input: a second submission of the same bytes would be a disk hit. The
// traced op is partitioned by its own timestamps and the JobStatus ones:
// submit, queue wait, run, poll overshoot, result fetch.
func (w *serviceMix) trace(ctx context.Context, tr *tracer) (map[string]float64, error) {
	for op := 0; op < w.sz.traced; op++ {
		sub, fresh := w.cl[0].next()
		u, _, err := w.do(ctx, 0, sub, fresh)
		if err != nil {
			return nil, fmt.Errorf("untraced op: %w", err)
		}
		sub, fresh = w.cl[0].next()
		t, _, err := w.do(ctx, 0, sub, fresh)
		if err != nil {
			return nil, fmt.Errorf("traced op: %w", err)
		}
		span := tr.add(op, -1, opSpan, t.start, t.done)
		tr.pair(u.done.Sub(u.start))
		runStart, runEnd := t.submitted, t.submitted
		if s := t.status.StartedAt; s != nil && s.After(runStart) {
			runStart = *s
		}
		if f := t.status.FinishedAt; f != nil && f.After(runStart) {
			runEnd = *f
		}
		kind := t.status.Kind
		if kind == "" {
			kind = "job"
		}
		tr.add(op, span, "client.submit", t.start, t.submitted)
		tr.add(op, span, "server.queue", t.submitted, runStart)
		tr.add(op, span, "server.run_"+kind, runStart, runEnd)
		tr.add(op, span, "client.poll_overshoot", runEnd, t.waited)
		tr.add(op, span, "client.result", t.waited, t.done)
		// The unit costs run on the binaries the op analyzed: the image, a
		// diff's new version, or the corpus tree.
		raw := t.in.raw
		if t.in.kind == kindDiff {
			raw = t.in.raw2
		}
		img, err := firmware.Unpack(raw)
		if err != nil {
			return nil, err
		}
		if err := tr.unitCosts(img.Files); err != nil {
			return nil, err
		}
	}
	text, err := w.api.Metrics(ctx)
	if err != nil {
		return nil, err
	}
	prom := parseProm(text)
	var ops, fresh int
	for _, c := range w.cl {
		ops += c.ops
		fresh += c.fresh
	}
	hits, accepted := prom["fitsd_disk_hits_total"], prom["fitsd_jobs_accepted_total"]
	return map[string]float64{
		"server.disk_hit_pct": 100 * hits / max(hits+accepted, 1),
		"modelcache.hit_pct":  100 * prom["fitsd_model_cache_hit_ratio"],
		"server.fresh_pct":    pct(fresh, ops),
		"server.boot_pct":     100 * w.bootShare,
	}, nil
}

// parseProm reads the unlabeled samples of a Prometheus text exposition.
func parseProm(text string) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.ContainsRune(name, '{') {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out
}

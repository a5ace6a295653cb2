// Package corpustaint analyzes an unpacked firmware image *set* as one
// system: it connects the front-end artifacts (HTML forms, JavaScript,
// config defaults) to the border binaries that parse the named request
// parameters, and propagates taint across the binaries through shared
// configuration-store, environment and spawned-helper channels until a
// fixpoint. The result is a deterministic corpus report whose alerts carry
// full provenance: the front-end file naming the parameter, the keyword, the
// chain of cross-binary channel hops, and the sink.
//
// Three seeding modes make the paper's comparison mechanical: ModeCTS seeds
// classical interface sources only, ModeITS additionally seeds each binary's
// top-ranked inferred intermediate sources, and ModeCross seeds front-end
// keyword matches and runs the cross-binary channel fixpoint. Back-end
// readers have neither network imports nor classical sources, so the first
// two modes provably cannot alert inside them.
package corpustaint

import (
	"context"
	"fmt"
	"sort"

	"fits/internal/dataflow"
	"fits/internal/firmware"
	"fits/internal/frontend"
	"fits/internal/infer"
	"fits/internal/intern"
	"fits/internal/isa"
	"fits/internal/know"
	"fits/internal/loader"
	"fits/internal/modelcache"
	"fits/internal/pool"
	"fits/internal/scan"
	"fits/internal/stagetime"
	"fits/internal/taint"
	"fits/internal/xchan"
)

// Mode selects how per-binary taint analysis is seeded. It is a plain
// string so option literals and request specs assign to it directly.
type Mode = string

// Seeding modes.
const (
	// ModeCTS: classical interface sources only.
	ModeCTS Mode = "cts"
	// ModeITS: classical sources plus each binary's top-ranked inferred
	// intermediate sources.
	ModeITS Mode = "its"
	// ModeCross: classical sources, front-end-keyword-seeded intermediate
	// sources, and the cross-binary channel fixpoint.
	ModeCross Mode = "cross"
)

// DefaultMaxRounds bounds the channel fixpoint. The tainted-endpoint set is
// finite and grows monotonically, so the fixpoint terminates on its own
// after at most (distinct endpoints + 1) rounds; the cap only guards
// against pathological corpora.
const DefaultMaxRounds = 8

// DefaultTopK is the inferred-ITS budget per binary for ModeITS.
const DefaultTopK = 3

// Options configures a corpus analysis.
type Options struct {
	// Mode is ModeCTS, ModeITS or ModeCross; empty means ModeCross.
	Mode Mode
	// TopK bounds the inferred intermediate sources seeded per binary in
	// ModeITS (0 selects DefaultTopK).
	TopK int
	// StringFilter drops alerts keyed on system-data fields.
	StringFilter bool
	// Cache memoizes models, rankings and per-round scan results; reports
	// are byte-identical with and without one.
	Cache *modelcache.Cache
	// Parallelism sizes the run's private Scheduler when none is given
	// (0 = runtime.GOMAXPROCS(0)).
	Parallelism int
	// Scheduler, when non-nil, draws every fan-out of the run from a shared
	// budget. Reports are byte-identical at every worker count.
	Scheduler *pool.Scheduler
	// Stages accumulates per-stage costs; nil disables.
	Stages *stagetime.Timer
	// NoAlias disables the bounded points-to pass; NoPathcheck disables
	// the path-feasibility pass (both on by default).
	NoAlias     bool
	NoPathcheck bool
	// Progress, when non-nil, receives coarse progress lines (per phase and
	// per fixpoint round); long-running services surface them per job.
	Progress func(string)
}

// Hop is one cross-binary step of a flow's provenance: Binary published
// tainted data on (Chan, Key) at the channel-setter call Site.
type Hop struct {
	Binary string `json:"binary"`
	Chan   string `json:"chan"`
	Key    string `json:"key"`
	Site   uint32 `json:"site"`
}

// Provenance traces an alert back to its origin: the front-end artifact
// naming the request parameter (when one does) and the ordered chain of
// channel hops the taint crossed to reach the sink's binary.
type Provenance struct {
	FrontFile string `json:"front_file,omitempty"`
	FrontLine int    `json:"front_line,omitempty"`
	FrontKey  string `json:"front_key,omitempty"`
	Hops      []Hop  `json:"hops,omitempty"`
}

// Alert is one corpus finding. Its Binary is the image path of the binary
// containing the sink, where taint.Alert.Binary is the binary's name.
type Alert struct {
	taint.Finding
	// Key is the request field that seeded the flow or, on a cross-binary
	// alert, the channel key; Via is that alert's seeding endpoint.
	Key string `json:"key,omitempty"`
	Via string `json:"via,omitempty"`
	// Provenance is present on flows traceable to a front-end parameter or
	// crossing at least one channel.
	Provenance *Provenance `json:"provenance,omitempty"`
}

// Endpoint is one tainted channel endpoint discovered by the fixpoint.
type Endpoint struct {
	Chan string `json:"chan"`
	Key  string `json:"key"`
	// Binary/Site locate the first channel write that tainted the endpoint;
	// Round is the fixpoint round (0-based) that discovered it.
	Binary string `json:"binary"`
	Site   uint32 `json:"site"`
	Round  int    `json:"round"`
}

// BinaryInfo summarizes one analyzed executable.
type BinaryInfo struct {
	Path   string `json:"path"`
	Funcs  int    `json:"funcs"`
	Alerts int    `json:"alerts"`
}

// Report is the deterministic outcome of one corpus analysis.
type Report struct {
	Mode       Mode         `json:"mode"`
	Binaries   []BinaryInfo `json:"binaries"`
	FrontFiles []string     `json:"front_files,omitempty"`
	Keywords   []string     `json:"keywords,omitempty"`
	// Rounds is the number of fixpoint rounds run (1 when no channel taint
	// was discovered; always 1 for ModeCTS/ModeITS).
	Rounds   int        `json:"rounds"`
	Tainted  []Endpoint `json:"tainted,omitempty"`
	Alerts   []Alert    `json:"alerts"`
	CrossHit int        `json:"cross_alerts"`
}

// origin records how a channel endpoint became tainted: the write alert and
// the publishing binary, for provenance reconstruction.
type origin struct {
	binary string
	alert  taint.Alert
	round  int
}

// binState is the per-binary analysis context threaded through rounds.
type binState struct {
	target *loader.Target
	// seeds are the keyword-matched (ModeCross) or inferred (ModeITS)
	// intermediate source entries, sorted.
	seeds []uint32
	// alerts from the most recent scan round, suppressed ones included.
	alerts []taint.Alert
	// prec memoizes the precision passes' pure per-function results across
	// the fixpoint rounds that rescan this binary.
	prec *taint.PrecisionCache
}

// Run analyzes a corpus given as a flat file set (an unpacked firmware
// tree). The report is byte-identical across worker counts and cache
// temperature.
func Run(ctx context.Context, files []firmware.File, opts Options) (*Report, error) {
	switch opts.Mode {
	case "":
		opts.Mode = ModeCross
	case ModeCTS, ModeITS, ModeCross:
	default:
		return nil, fmt.Errorf("corpustaint: unknown mode %q (want cts, its or cross)", opts.Mode)
	}
	if opts.TopK <= 0 {
		opts.TopK = DefaultTopK
	}
	if opts.Scheduler == nil {
		opts.Scheduler = pool.NewScheduler(opts.Parallelism)
	}
	progress := opts.Progress
	if progress == nil {
		progress = func(string) {}
	}

	// Front-end sweep: collect parameter keywords with locations.
	kws := make([]frontend.Keyword, 0, 16)
	frontFiles := make([]string, 0, 4)
	for _, f := range files {
		got := frontend.Extract(f.Path, f.Data)
		if len(got) > 0 {
			kws = append(kws, got...)
			frontFiles = append(frontFiles, f.Path)
		}
	}
	sort.Strings(frontFiles)
	kwSet := map[string]bool{}
	kwLoc := map[string]frontend.Keyword{}
	for _, k := range kws {
		kwSet[k.Name] = true
		// First location in (file, line, col) order wins.
		if prev, ok := kwLoc[k.Name]; !ok || less(k, prev) {
			kwLoc[k.Name] = k
		}
	}
	progress(fmt.Sprintf("front-end: %d keywords from %d artifacts", len(kwSet), len(frontFiles)))

	// Load every executable — not only network binaries: back-end readers
	// import no interface functions at all. Library models feed only the
	// ITS ranking, so the other modes never build them.
	img := &firmware.Image{Files: files}
	res, err := loader.LoadImageContext(ctx, img, loader.Options{
		AllExecutables: true,
		Cache:          opts.Cache,
		Sched:          opts.Scheduler,
		Intern:         intern.NewTable(),
		Stages:         opts.Stages,
		TargetsOnly:    opts.Mode != ModeITS,
	})
	if err != nil {
		return nil, fmt.Errorf("corpustaint: %w", err)
	}
	progress(fmt.Sprintf("loaded %d binaries", len(res.Targets)))

	// Channel topology: every setter/getter endpoint across the corpus, and
	// the endpoints some reader consumes (only those are worth propagating).
	var eps []xchan.Endpoint
	for _, t := range res.Targets {
		eps = append(eps, xchan.Endpoints(t.Path, t.Bin, t.Model)...)
	}
	readable := xchan.GetterIDs(eps)

	// Per-binary seeding.
	states := make([]*binState, len(res.Targets))
	seedJob := func(i int) error {
		t := res.Targets[i]
		st := &binState{target: t, prec: new(taint.PrecisionCache)}
		switch opts.Mode {
		case ModeITS:
			cfgn := infer.DefaultConfig()
			cfgn.Cache = opts.Cache
			cfgn.Sched = opts.Scheduler
			cfgn.Probe = opts.Stages
			r, err := infer.InferTargetContext(ctx, t, cfgn)
			if err != nil {
				return err
			}
			for k, c := range r.Ranked {
				if k >= opts.TopK {
					break
				}
				st.seeds = append(st.seeds, c.Entry)
			}
		case ModeCross:
			st.seeds = keywordSeeds(t, kwSet)
		}
		sort.Slice(st.seeds, func(a, b int) bool { return st.seeds[a] < st.seeds[b] })
		states[i] = st
		return nil
	}
	if err := opts.Scheduler.ForEach(ctx, len(res.Targets), seedJob); err != nil {
		return nil, err
	}

	// Fixpoint over tainted channel endpoints. The set only grows and is
	// bounded by the corpus's endpoint vocabulary, so this terminates.
	// Round 1 scans every binary; later rounds rescan only the binaries
	// with a getter endpoint the previous round newly tainted. A scan seeds
	// only getters of tainted endpoints, so every other binary's alerts are
	// what a rescan under the cumulative seed set would return.
	tainted := map[string]bool{}   // xchan.IDs
	origins := map[string]origin{} // xchan.ID -> first tainting write
	rounds := 0
	dirty := states
	for rounds < DefaultMaxRounds {
		rounds++
		progress(fmt.Sprintf("round %d: scanning %d of %d binaries", rounds, len(dirty), len(states)))
		err := opts.Scheduler.ForEach(ctx, len(dirty), func(i int) error {
			st := dirty[i]
			topts := taint.Options{
				UseCTS:       true,
				ITS:          st.seeds,
				StringFilter: opts.StringFilter,
				SelfPath:     st.target.Path,
				NoAlias:      opts.NoAlias,
				NoPathcheck:  opts.NoPathcheck,
				Precision:    st.prec,
			}
			if opts.Mode == ModeCross {
				topts.ChannelWrites = true
				topts.ChannelSeeds = tainted
			}
			alerts, err := scan.Run(ctx, st.target, scan.Static, topts, opts.Cache, opts.Stages)
			st.alerts = alerts
			return err
		})
		if err != nil {
			return nil, err
		}
		if opts.Mode != ModeCross {
			break
		}
		// Join channel writes against reader keys, in deterministic binary
		// and alert order; first write wins as the endpoint's origin. Only
		// rescanned binaries can write an endpoint not yet tainted.
		fresh := map[string]bool{}
		for _, st := range dirty {
			for _, a := range st.alerts {
				if a.Kind == know.SinkChannelWrite && a.Reported() && readable[a.Via] && !tainted[a.Via] {
					tainted[a.Via] = true
					origins[a.Via] = origin{binary: st.target.Path, alert: a, round: rounds - 1}
					fresh[a.Via] = true
				}
			}
		}
		if len(fresh) == 0 {
			break
		}
		readers := map[string]bool{}
		for _, e := range eps {
			if !e.Setter && fresh[e.ID()] {
				readers[e.Binary] = true
			}
		}
		dirty = nil
		for _, st := range states {
			if readers[st.target.Path] {
				dirty = append(dirty, st)
			}
		}
	}

	// Assemble the report in binary-path order (targets are already
	// path-sorted by the loader).
	rep := &Report{
		Mode:       opts.Mode,
		Rounds:     rounds,
		FrontFiles: frontFiles,
		Alerts:     []Alert{},
	}
	for name := range kwSet {
		rep.Keywords = append(rep.Keywords, name)
	}
	sort.Strings(rep.Keywords)
	for _, st := range states {
		info := BinaryInfo{Path: st.target.Path, Funcs: len(st.target.Model.FuncsInOrder())}
		for _, a := range st.alerts {
			if !a.Reported() || a.Kind == know.SinkChannelWrite {
				continue // suppressed, or intermediate evidence reported as Tainted endpoints
			}
			out := Alert{Finding: a.Finding(), Key: a.Key,
				Provenance: provenance(a, kwSet, kwLoc, origins)}
			out.Binary = st.target.Path
			if a.From == taint.FromChannel {
				// Via names the seeding endpoint, Key its bare key.
				_, out.Key, _ = xchan.ParseID(a.Key)
				out.Via = a.Key
				rep.CrossHit++
			}
			info.Alerts++
			rep.Alerts = append(rep.Alerts, out)
		}
		rep.Binaries = append(rep.Binaries, info)
	}
	for via, o := range origins {
		ch, key, _ := xchan.ParseID(via)
		rep.Tainted = append(rep.Tainted, Endpoint{
			Chan: ch.String(), Key: key, Binary: o.binary, Site: o.alert.Site, Round: o.round,
		})
	}
	sort.Slice(rep.Tainted, func(i, j int) bool {
		a, b := rep.Tainted[i], rep.Tainted[j]
		if a.Chan != b.Chan {
			return a.Chan < b.Chan
		}
		return a.Key < b.Key
	})
	progress(fmt.Sprintf("done: %d alerts (%d cross-binary) after %d rounds",
		len(rep.Alerts), rep.CrossHit, rounds))
	return rep, nil
}

// keywordSeeds finds custom functions called with a front-end keyword as
// their first (string constant) argument — the SaTC-style border match: the
// binary fetches a field the web interface names, so the callee is treated
// as an intermediate source.
func keywordSeeds(t *loader.Target, kwSet map[string]bool) []uint32 {
	seen := map[uint32]bool{}
	var out []uint32
	for _, f := range t.Model.FuncsInOrder() {
		for _, cs := range f.Calls {
			if cs.Target == 0 || cs.ImportName != "" || seen[cs.Target] {
				continue
			}
			key, ok := dataflow.StringArg(t.Bin, f, cs.Addr, isa.R0)
			if !ok || !kwSet[key] {
				continue
			}
			seen[cs.Target] = true
			out = append(out, cs.Target)
		}
	}
	return out
}

// provenance reconstructs an alert's origin chain. FromITS alerts keyed on a
// front-end keyword get the artifact location; FromChannel alerts walk the
// endpoint origin graph back to the front end. Origins always point at
// endpoints tainted in strictly earlier rounds, so the walk terminates; the
// depth cap only guards against malformed origin maps.
func provenance(a taint.Alert, kwSet map[string]bool, kwLoc map[string]frontend.Keyword, origins map[string]origin) *Provenance {
	switch a.From {
	case taint.FromITS:
		if !kwSet[a.Key] {
			return nil
		}
		loc := kwLoc[a.Key]
		return &Provenance{FrontFile: loc.File, FrontLine: loc.Line, FrontKey: a.Key}
	case taint.FromChannel:
		// The alert's key is its seeding endpoint. That endpoint's origin is
		// a channel write, whose key in turn is the previous hop's endpoint
		// when the write was itself channel-seeded.
		p := &Provenance{}
		for ep, depth := a.Key, 0; depth < 16; depth++ {
			o, ok := origins[ep]
			if !ok {
				break
			}
			ch, key, _ := xchan.ParseID(ep)
			p.Hops = append([]Hop{{Binary: o.binary, Chan: ch.String(), Key: key, Site: o.alert.Site}}, p.Hops...)
			if o.alert.From != taint.FromChannel {
				if o.alert.From == taint.FromITS && kwSet[o.alert.Key] {
					loc := kwLoc[o.alert.Key]
					p.FrontFile, p.FrontLine, p.FrontKey = loc.File, loc.Line, o.alert.Key
				}
				break
			}
			ep = o.alert.Key
		}
		return p
	}
	return nil
}

func less(a, b frontend.Keyword) bool {
	if a.File != b.File {
		return a.File < b.File
	}
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	return a.Col < b.Col
}

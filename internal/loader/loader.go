// Package loader implements the pre-processing stage: it unpacks a firmware
// image, selects the binaries that export network services (by their
// interface-function imports, the PIE-style heuristic), resolves their
// dependency libraries, and builds whole-binary models with UCSE-backed
// indirect call resolution. Anchor functions are picked from the libraries'
// exports later, by inference.
//
// Model building fans out across a bounded goroutine pool (Options.
// Parallelism) and deduplicates work: each dependency library's model is
// built once and shared read-only by every target that needs it. Output is
// deterministic regardless of worker count — targets are assembled in
// ascending path order.
//
// A load sees one image and knows nothing of other firmware versions: both
// sides of a version diff are ordinary loads, and package evolve pairs their
// functions afterwards.
package loader

import (
	"context"
	"errors"
	"fmt"
	"path"
	"sort"
	"strings"
	"sync/atomic"

	"fits/internal/binimg"
	"fits/internal/cfg"
	"fits/internal/firmware"
	"fits/internal/intern"
	"fits/internal/know"
	"fits/internal/modelcache"
	"fits/internal/pool"
	"fits/internal/stagetime"
	"fits/internal/ucse"
)

// ErrNoTargets is returned when no binary in the image exports network
// services — the pre-processing failure mode behind four of the paper's six
// inference misses.
var ErrNoTargets = errors.New("loader: no network binaries found")

// Target is one selected network binary with its analysis context.
type Target struct {
	Path  string
	Bin   *binimg.Binary
	Model *cfg.Model
	// Libs maps needed library file names to their decoded binaries;
	// LibModels holds their whole-binary models (empty after a TargetsOnly
	// load). Library models are shared between targets needing the same
	// library and must be treated as read-only.
	Libs      map[string]*binimg.Binary
	LibModels map[string]*cfg.Model
	// Hash is the content hash of the target binary's bytes and LibHashes
	// the hashes of its resolved libraries, keyed by library name. Every
	// load sets both; downstream stages use them to address derived
	// artifacts (feature vectors, rankings, alerts) by content.
	Hash      modelcache.Hash
	LibHashes map[string]modelcache.Hash
}

// Result is the outcome of pre-processing one firmware image.
type Result struct {
	Image   *firmware.Image
	Scheme  firmware.Scheme
	Targets []*Target
	// Lifted counts whole-binary models built fresh during this load;
	// Reused counts models served from the cache. Without a cache every
	// model is lifted.
	Lifted int
	Reused int
}

// Options configures loading.
type Options struct {
	// AllExecutables selects every executable-location binary as a target
	// instead of only those importing network interfaces. Corpus-wide
	// cross-binary analysis needs this: back-end readers (nvram consumers,
	// spawned helpers) typically have no network imports at all.
	AllExecutables bool
	// Parallelism sizes the private Scheduler building binary models when
	// Sched is nil; 0 means runtime.GOMAXPROCS(0).
	Parallelism int
	// Cache memoizes decoded binaries and whole-binary models across loads,
	// addressed by the SHA-256 of the binary's bytes. Cached values are
	// shared read-only; concurrent loads of the same content deduplicate the
	// build. A nil Cache keeps nothing.
	Cache *modelcache.Cache
	// Sched, when non-nil, draws the model-building fan-out from a shared
	// worker budget: an analysis hands its own Scheduler down, and batched
	// corpus runs hand one to every load.
	Sched *pool.Scheduler
	// Intern canonicalizes strings materialized while decoding binaries
	// (symbol, import and library names repeated across binaries); nil
	// disables interning. With a cache, a binary decoded earlier keeps
	// whatever backing its first decode produced — contents are identical
	// either way.
	Intern *intern.Table
	// Stages, when non-nil, accumulates per-stage costs of this load: Decode
	// (unpack + container decode), and the Lift and CFG spans cfg.Build
	// opens on it as its probe.
	Stages *stagetime.Timer
	// TargetsOnly builds models for targets only. Libraries are still
	// decoded, resolved and hashed (Target.Libs, Target.LibHashes), but
	// Target.LibModels stays empty. Only inference reads library models,
	// so scans that never rank skip lifting them.
	TargetsOnly bool
}

// executableDirs are filesystem locations treated as holding executables.
var executableDirs = map[string]bool{
	"bin": true, "sbin": true, "usr/bin": true, "usr/sbin": true, "www/cgi-bin": true,
}

// isExecutablePath reports whether the path denotes an executable location
// (libraries live elsewhere and are only analyzed as dependencies).
func isExecutablePath(p string) bool {
	dir := path.Dir(p)
	return executableDirs[dir] && !strings.HasSuffix(p, ".so")
}

// LoadContext unpacks raw firmware bytes and prepares every network target.
// The context is checked between (and inside) per-binary model builds, so
// loading a large image can be aborted.
func LoadContext(ctx context.Context, raw []byte, opts Options) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	unpackDone := opts.Stages.Span(stagetime.Decode)
	img, err := firmware.Unpack(raw)
	unpackDone()
	if err != nil {
		return nil, fmt.Errorf("loader: unpack: %w", err)
	}
	res := &Result{Image: img, Scheme: firmware.DetectScheme(raw)}
	if err := res.load(ctx, opts); err != nil {
		return nil, err
	}
	return res, nil
}

// LoadImageContext prepares targets from an already unpacked image, with
// LoadContext's cancellation.
func LoadImageContext(ctx context.Context, img *firmware.Image, opts Options) (*Result, error) {
	res := &Result{Image: img, Scheme: firmware.SchemeNone}
	if err := res.load(ctx, opts); err != nil {
		return nil, err
	}
	return res, nil
}

func (res *Result) load(ctx context.Context, opts Options) error {
	img := res.Image
	// Decode every binary in the filesystem, memoized on the file's content
	// hash: decoded binaries are immutable downstream, so one decode serves
	// every image embedding the same file.
	bins := map[string]*binimg.Binary{}
	hashes := map[string]modelcache.Hash{}
	decodeDone := opts.Stages.Span(stagetime.Decode)
	for _, f := range img.Files {
		if !binimg.IsBinary(f.Data) {
			continue
		}
		h := modelcache.HashBytes(f.Data)
		data := f.Data
		v, _, err := opts.Cache.GetOrCompute(modelcache.Key("bin", "", h), func() (any, int64, error) {
			b, err := binimg.DecodeIntern(data, opts.Intern)
			if err != nil {
				return nil, 0, err
			}
			return b, int64(len(data)), nil
		})
		if err != nil {
			continue // corrupt binaries are skipped, as binwalk-style tools do
		}
		bins[f.Path] = v.(*binimg.Binary)
		hashes[f.Path] = h
	}
	decodeDone()

	paths := make([]string, 0, len(bins))
	for p := range bins {
		paths = append(paths, p)
	}
	sort.Strings(paths)

	// Index libraries by base name for dependency resolution. When several
	// libraries share a base name, the first in path order wins.
	libByName := map[string]*binimg.Binary{}
	libHashByName := map[string]modelcache.Hash{}
	for _, p := range paths {
		base := path.Base(p)
		if _, dup := libByName[base]; !dup && strings.HasSuffix(base, ".so") {
			libByName[base] = bins[p]
			libHashByName[base] = hashes[p]
		}
	}

	cfgOpts := cfg.Options{Resolver: ucse.Resolver(), JumpResolver: ucse.JumpResolver(), Probe: opts.Stages}

	// Select the network targets, in path order.
	var targetPaths []string
	for _, p := range paths {
		if isExecutablePath(p) && (opts.AllExecutables || importsNetwork(bins[p])) {
			targetPaths = append(targetPaths, p)
		}
	}
	if len(targetPaths) == 0 {
		return ErrNoTargets
	}

	// Collect the libraries any target needs, unless only targets are
	// modeled; each is modeled exactly once and shared read-only across
	// targets.
	var libNames []string
	libSeen := map[string]bool{}
	for _, p := range targetPaths {
		for _, need := range bins[p].Needed {
			if opts.TargetsOnly || libSeen[need] {
				continue
			}
			if _, ok := libByName[need]; !ok {
				continue // missing library; analysis proceeds without it
			}
			libSeen[need] = true
			libNames = append(libNames, need)
		}
	}
	sort.Strings(libNames)

	// Build every model in one fan-out: targets first, then libraries. Each
	// job writes only its own slot, so assembly below is order-independent.
	// Each build is memoized on the binary's content hash; the singleflight
	// layer ensures one build per distinct binary even when loads race.
	type job struct {
		name string // diagnostic label: path for targets, file name for libs
		bin  *binimg.Binary
		hash modelcache.Hash
	}
	jobs := make([]job, 0, len(targetPaths)+len(libNames))
	for _, p := range targetPaths {
		jobs = append(jobs, job{name: p, bin: bins[p], hash: hashes[p]})
	}
	for _, name := range libNames {
		jobs = append(jobs, job{name: name, bin: libByName[name], hash: libHashByName[name]})
	}
	models := make([]*cfg.Model, len(jobs))
	var reused atomic.Int64
	buildJob := func(i int) error {
		v, hit, err := opts.Cache.GetOrCompute(
			modelcache.Key("model", "", jobs[i].hash),
			func() (any, int64, error) {
				m, err := cfg.Build(jobs[i].bin, cfgOpts)
				if err != nil {
					return nil, 0, err
				}
				return m, modelCost(jobs[i].bin), nil
			})
		if err != nil {
			return fmt.Errorf("loader: %s: %w", jobs[i].name, err)
		}
		if hit {
			reused.Add(1)
		}
		models[i] = v.(*cfg.Model)
		return nil
	}
	sched := opts.Sched
	if sched == nil {
		sched = pool.NewScheduler(opts.Parallelism)
	}
	if err := sched.ForEach(ctx, len(jobs), buildJob); err != nil {
		return err
	}
	res.Reused = int(reused.Load())
	res.Lifted = len(jobs) - res.Reused

	libModels := map[string]*cfg.Model{}
	for i, name := range libNames {
		libModels[name] = models[len(targetPaths)+i]
	}
	for i, p := range targetPaths {
		b := bins[p]
		t := &Target{
			Path:      p,
			Bin:       b,
			Model:     models[i],
			Libs:      map[string]*binimg.Binary{},
			LibModels: map[string]*cfg.Model{},
			Hash:      hashes[p],
			LibHashes: map[string]modelcache.Hash{},
		}
		for _, need := range b.Needed {
			lib, ok := libByName[need]
			if !ok {
				continue
			}
			t.Libs[need] = lib
			t.LibHashes[need] = libHashByName[need]
			if m, ok := libModels[need]; ok {
				t.LibModels[need] = m
			}
		}
		res.Targets = append(res.Targets, t)
	}
	return nil
}

// modelCost estimates the resident size of a whole-binary model for the
// cache's byte budget: models hold lifted IR and CFG metadata for the text
// section, which in practice runs about an order of magnitude larger than
// the section itself.
func modelCost(b *binimg.Binary) int64 {
	return 1024 + 10*int64(len(b.Text.Data))
}

// importsNetwork reports whether the binary imports any interface function.
func importsNetwork(b *binimg.Binary) bool {
	for _, im := range b.Imports {
		if know.NetworkImports[im.Name] {
			return true
		}
	}
	return false
}

package corpustaint

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"fits/internal/firmware"
	"fits/internal/know"
	"fits/internal/loader"
	"fits/internal/modelcache"
	"fits/internal/pool"
	"fits/internal/scan"
	"fits/internal/synth"
	"fits/internal/taint"
	"fits/internal/xchan"
)

func xrun(t *testing.T, opts Options) *Report {
	t.Helper()
	x, err := synth.GenerateXCorpus(1)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), x.Files, opts)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// alertAt finds the report alert at (binary, func entry, sink).
func alertAt(rep *Report, binary string, entry uint32, sink string) (Alert, bool) {
	for _, a := range rep.Alerts {
		if a.Binary == binary && a.Func == entry && a.Sink == sink {
			return a, true
		}
	}
	return Alert{}, false
}

// crossFlows returns the planted flows whose sink binary differs from the
// border binary.
func crossFlows(m synth.XManifest) []synth.XFlowTruth {
	var out []synth.XFlowTruth
	for _, f := range m.Flows {
		if f.CrossBinary {
			out = append(out, f)
		}
	}
	return out
}

func TestModeCrossFindsPlantedFlows(t *testing.T) {
	x, err := synth.GenerateXCorpus(1)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), x.Files, Options{Mode: ModeCross, Scheduler: pool.NewScheduler(1)})
	if err != nil {
		t.Fatal(err)
	}
	m := x.Manifest

	if !reflect.DeepEqual(rep.Keywords, m.Keywords) {
		t.Errorf("keywords = %v, want %v", rep.Keywords, m.Keywords)
	}
	for _, f := range m.Flows {
		a, ok := alertAt(rep, f.SinkBinary, f.SinkEntry, f.Sink)
		if f.Vulnerable && !ok {
			t.Errorf("flow %s: no alert at %s %#x %s", f.Name, f.SinkBinary, f.SinkEntry, f.Sink)
			continue
		}
		if !f.Vulnerable {
			if ok {
				t.Errorf("flow %s: unexpected alert %+v", f.Name, a)
			}
			continue
		}
		if f.CrossBinary {
			if a.Source != "xchan" {
				t.Errorf("flow %s: source = %s, want xchan", f.Name, a.Source)
			}
			if a.Provenance == nil {
				t.Errorf("flow %s: no provenance", f.Name)
				continue
			}
			if a.Provenance.FrontKey != f.FrontKey || a.Provenance.FrontFile != f.FrontFile {
				t.Errorf("flow %s: front = %s@%s, want %s@%s", f.Name,
					a.Provenance.FrontKey, a.Provenance.FrontFile, f.FrontKey, f.FrontFile)
			}
			if len(a.Provenance.Hops) != len(f.Hops) {
				t.Errorf("flow %s: %d hops, want %d (%+v)", f.Name,
					len(a.Provenance.Hops), len(f.Hops), a.Provenance.Hops)
				continue
			}
			for i, h := range f.Hops {
				got := a.Provenance.Hops[i]
				if got.Binary != h.FromBinary || got.Chan != h.Chan.String() || got.Key != h.Key {
					t.Errorf("flow %s hop %d = %+v, want %+v", f.Name, i, got, h)
				}
			}
		}
	}
	if rep.CrossHit != len(crossFlows(m))-1 { // benign-board never alerts
		t.Errorf("cross alerts = %d, want %d", rep.CrossHit, len(crossFlows(m))-1)
	}
	if rep.Rounds < 3 {
		t.Errorf("rounds = %d, want >= 3 (two-hop flow needs a second discovery round)", rep.Rounds)
	}
	// The two-hop endpoint is discovered one round after the direct ones.
	roundOf := map[string]int{}
	for _, e := range rep.Tainted {
		roundOf[e.Chan+":"+e.Key] = e.Round
	}
	if roundOf["env:WL_STATE"] != roundOf["nvram:wl_key"]+1 {
		t.Errorf("tainted rounds = %v, want WL_STATE one after wl_key", roundOf)
	}
}

// TestSingleBinaryModesMissCrossFlows is the acceptance claim: back-end
// binaries have no network imports and no classical sources, so CTS and
// CTS+ITS seeding provably produce zero alerts in them, while ModeCross
// reaches every planted cross-binary sink.
func TestSingleBinaryModesMissCrossFlows(t *testing.T) {
	x, err := synth.GenerateXCorpus(1)
	if err != nil {
		t.Fatal(err)
	}
	m := x.Manifest
	for _, mode := range []Mode{ModeCTS, ModeITS} {
		rep, err := Run(context.Background(), x.Files, Options{Mode: mode, Scheduler: pool.NewScheduler(1)})
		if err != nil {
			t.Fatal(err)
		}
		if rep.CrossHit != 0 || len(rep.Tainted) != 0 || rep.Rounds != 1 {
			t.Errorf("%s: cross=%d tainted=%d rounds=%d, want 0/0/1",
				mode, rep.CrossHit, len(rep.Tainted), rep.Rounds)
		}
		for _, a := range rep.Alerts {
			if a.Binary != "bin/httpd" {
				t.Errorf("%s: alert outside border binary: %+v", mode, a)
			}
		}
		for _, f := range crossFlows(m) {
			if _, ok := alertAt(rep, f.SinkBinary, f.SinkEntry, f.Sink); ok {
				t.Errorf("%s: detected cross flow %s (should be impossible)", mode, f.Name)
			}
		}
	}

	// Mode separation on the border binary itself: CTS sees only the raw
	// flow; ITS adds the keyed local flow.
	cts := xrun(t, Options{Mode: ModeCTS, Scheduler: pool.NewScheduler(1)})
	if len(cts.Alerts) != 1 || cts.Alerts[0].Source != "cts-region" {
		t.Errorf("cts alerts = %+v, want the one raw flow", cts.Alerts)
	}
	its := xrun(t, Options{Mode: ModeITS, Scheduler: pool.NewScheduler(1)})
	var local, raw bool
	for _, f := range m.Flows {
		if a, ok := alertAt(its, f.SinkBinary, f.SinkEntry, f.Sink); ok {
			switch f.Name {
			case "local-vuln":
				local = a.Source == "its"
			case "raw-vuln":
				raw = true
			}
		}
	}
	if !local || !raw {
		t.Errorf("its mode: local=%v raw=%v, want both (alerts %+v)", local, raw, its.Alerts)
	}
}

func TestRunDeterministicAcrossWorkersAndCache(t *testing.T) {
	base := xrun(t, Options{Mode: ModeCross, Scheduler: pool.NewScheduler(1)})
	for _, par := range []int{2, 4, 8} {
		got := xrun(t, Options{Mode: ModeCross, Scheduler: pool.NewScheduler(par)})
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("parallelism %d diverges from 1", par)
		}
	}
	cache := modelcache.New(0, 0)
	cold := xrun(t, Options{Mode: ModeCross, Scheduler: pool.NewScheduler(4), Cache: cache})
	warm := xrun(t, Options{Mode: ModeCross, Scheduler: pool.NewScheduler(4), Cache: cache})
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("cold and warm cache reports differ")
	}
	if !reflect.DeepEqual(base, cold) {
		t.Fatal("cached report diverges from uncached")
	}
}

// TestScansDependOnlyOnReadEndpoints pins the invariant that lets later
// fixpoint rounds skip binaries: a binary's alerts under the final tainted
// set equal its alerts under that set restricted to the keys its own
// getters read.
func TestScansDependOnlyOnReadEndpoints(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 6; seed++ {
		x, err := synth.GenerateXCorpus(seed)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Run(ctx, x.Files, Options{Mode: ModeCross, Scheduler: pool.NewScheduler(1)})
		if err != nil {
			t.Fatal(err)
		}
		final := map[know.ChanKind]map[string]bool{}
		for _, e := range rep.Tainted {
			ch, key, _ := splitVia(e.Chan + ":" + e.Key)
			if final[ch] == nil {
				final[ch] = map[string]bool{}
			}
			final[ch][key] = true
		}
		kwSet := map[string]bool{}
		for _, k := range rep.Keywords {
			kwSet[k] = true
		}
		res, err := loader.LoadImageContext(ctx, &firmware.Image{Files: x.Files}, loader.Options{AllExecutables: true, TargetsOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		narrowed, channelAlerts := 0, 0
		for _, tg := range res.Targets {
			read, n := map[know.ChanKind]map[string]bool{}, 0
			for _, e := range xchan.Endpoints(tg.Path, tg.Bin, tg.Model) {
				if !e.Setter && final[e.Chan][e.Key] && !read[e.Chan][e.Key] {
					if read[e.Chan] == nil {
						read[e.Chan] = map[string]bool{}
					}
					read[e.Chan][e.Key] = true
					n++
				}
			}
			if n < len(rep.Tainted) {
				narrowed++
			}
			scanWith := func(seeds map[know.ChanKind]map[string]bool) []taint.Alert {
				a, err := scan.Run(ctx, tg, scan.Static, taint.Options{
					UseCTS: true, ITS: keywordSeeds(tg, kwSet), SelfPath: tg.Path,
					ChannelWrites: true, ChannelSeeds: seeds,
				}, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				return a
			}
			all, own := scanWith(final), scanWith(read)
			if !reflect.DeepEqual(all, own) {
				t.Errorf("seed %d, %s: alerts under the final tainted set differ from those under its own getter keys:\n%+v\n%+v",
					seed, tg.Path, all, own)
			}
			for _, a := range own {
				if a.Reported() && a.From == taint.FromChannel {
					channelAlerts++
				}
			}
		}
		if narrowed == 0 || channelAlerts == 0 {
			t.Errorf("seed %d: %d binaries read a strict subset of the tainted set, %d channel alerts; want both > 0",
				seed, narrowed, channelAlerts)
		}
	}
}

// TestLaterRoundsRescanOnlyReaders: round 1 scans every binary; a later
// round scans only those reading an endpoint tainted the round before.
func TestLaterRoundsRescanOnlyReaders(t *testing.T) {
	var lines []string
	rep := xrun(t, Options{Mode: ModeCross, Scheduler: pool.NewScheduler(1), Progress: func(s string) { lines = append(lines, s) }})
	partial := false
	for _, l := range lines {
		var r, k, n int
		if _, err := fmt.Sscanf(l, "round %d: scanning %d of %d binaries", &r, &k, &n); err != nil {
			continue
		}
		if r == 1 && (k != n || n != len(rep.Binaries)) {
			t.Errorf("round 1 scanned %d of %d binaries, want all %d", k, n, len(rep.Binaries))
		}
		if r >= 2 && k < n {
			partial = true
		}
	}
	if rep.Rounds < 2 || !partial {
		t.Errorf("%d rounds, progress %q: want a round >= 2 that scans fewer than all binaries", rep.Rounds, lines)
	}
}

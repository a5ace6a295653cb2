package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// Verdicts of Compare.
const (
	Better     = "better"
	Worse      = "worse"
	Within     = "within bound"
	Unresolved = "unresolved"
)

// minPairs is the fewest base/head pairs a "better" verdict rests on.
const minPairs = 10

// Verdict is Compare's finding for one (workload, end-to-end metric).
type Verdict struct {
	Workload, Metric string
	Base, Head       [3]float64 // first quartile, median, third quartile
	Wins, Pairs      int        // pairs (same seed) where head read better
	Verdict          string
}

// LoadResults reads every untraced result file in dir, keyed by workload
// and seed.
func LoadResults(dir string) (map[string]map[int64]*Result, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string]map[int64]*Result{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r Result
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if r.Trace {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[int64]*Result{}
		}
		out[r.Workload][r.Seed] = &r
	}
	return out, nil
}

// Compare judges head against base for every (workload, end-to-end metric)
// both sides measured:
//   - unresolved when either side's spread (IQR over median) exceeds the
//     bound, unless every head run reads better, or every one worse, than
//     every base run;
//   - better when head wins at least nine tenths of at least ten same-seed
//     pairs (ties count for neither) and the medians differ by more than
//     the base IQR;
//   - worse when the head median is worse than the base median by more
//     than the bound;
//   - within bound otherwise.
func Compare(spec *Spec, base, head map[string]map[int64]*Result) []Verdict {
	var workloads []string
	for name := range base {
		if head[name] != nil {
			workloads = append(workloads, name)
		}
	}
	sort.Strings(workloads)
	var out []Verdict
	for _, wl := range workloads {
		for _, m := range spec.EndToEnd {
			bv, hv, wins, pairs := sides(base[wl], head[wl], m)
			if len(bv) == 0 || len(hv) == 0 {
				continue
			}
			v := Verdict{Workload: wl, Metric: m.Name, Base: quartiles(bv), Head: quartiles(hv), Wins: wins, Pairs: pairs}
			v.Verdict = judge(m, bv, hv, v)
			out = append(out, v)
		}
	}
	return out
}

// sides collects each side's values of m and counts same-seed wins.
func sides(base, head map[int64]*Result, m MetricSpec) (bv, hv []float64, wins, pairs int) {
	for seed, b := range base {
		x, ok := b.Metrics[m.Name]
		if !ok {
			continue
		}
		bv = append(bv, x.Value)
		if h, ok := head[seed]; ok {
			if y, ok := h.Metrics[m.Name]; ok {
				pairs++
				if better(m, y.Value, x.Value) {
					wins++
				}
			}
		}
	}
	for _, h := range head {
		if y, ok := h.Metrics[m.Name]; ok {
			hv = append(hv, y.Value)
		}
	}
	sort.Float64s(bv)
	sort.Float64s(hv)
	return bv, hv, wins, pairs
}

func better(m MetricSpec, a, b float64) bool {
	if m.Better == "higher" {
		return a > b
	}
	return a < b
}

func judge(m MetricSpec, bv, hv []float64, v Verdict) string {
	spread := func(q [3]float64) float64 { return (q[2] - q[0]) / q[1] }
	allBetter := better(m, hv[0], bv[len(bv)-1]) && better(m, hv[len(hv)-1], bv[0])
	allWorse := better(m, bv[len(bv)-1], hv[0]) && better(m, bv[0], hv[len(hv)-1])
	if (spread(v.Base) > m.Bound || spread(v.Head) > m.Bound) && !allBetter && !allWorse {
		return Unresolved
	}
	diff := v.Head[1] - v.Base[1]
	if m.Better != "higher" {
		diff = -diff
	}
	if v.Pairs >= minPairs && 10*v.Wins >= 9*v.Pairs && diff > v.Base[2]-v.Base[0] {
		return Better
	}
	if -diff > m.Bound*v.Base[1] {
		return Worse
	}
	return Within
}

// quartiles returns the first quartile, median and third quartile of
// sorted values, computed as Python's statistics.quantiles(values, n=4)
// does (the exclusive method).
func quartiles(s []float64) [3]float64 {
	n := len(s)
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}

// WriteVerdicts prints the comparison table and each side's failed ops.
func WriteVerdicts(w io.Writer, vs []Verdict, base, head map[string]map[int64]*Result) {
	fmt.Fprintf(w, "%-13s %-16s %29s %29s %7s %6s  %s\n", "workload", "metric",
		"base q1 / median / q3", "head q1 / median / q3", "change", "wins", "verdict")
	for _, v := range vs {
		fmt.Fprintf(w, "%-13s %-16s %9.4g %9.4g %9.4g %9.4g %9.4g %9.4g %+6.1f%% %2d/%-3d  %s\n",
			v.Workload, v.Metric, v.Base[0], v.Base[1], v.Base[2], v.Head[0], v.Head[1], v.Head[2],
			100*(v.Head[1]-v.Base[1])/v.Base[1], v.Wins, v.Pairs, v.Verdict)
	}
	var names []string
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%s failed ops: base %d, head %d\n", name, failed(base[name]), failed(head[name]))
	}
}

func failed(rs map[int64]*Result) int {
	n := 0
	for _, r := range rs {
		n += r.Failed
	}
	return n
}

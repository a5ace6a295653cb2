package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"fits/internal/bfv"
)

func referenceDist(a, b [bfv.Dim]float64) float64 {
	s := 0.0
	for d := 0; d < bfv.Dim; d++ {
		diff := a[d] - b[d]
		s += diff * diff
	}
	return math.Sqrt(s)
}

// referenceNormalize max-normalizes every point's vector, copies included.
func referenceNormalize(points []Point) [][bfv.Dim]float64 {
	var maxes [bfv.Dim]float64
	for _, p := range points {
		for d := 0; d < bfv.Dim; d++ {
			if v := math.Abs(p.Vec[d]); v > maxes[d] {
				maxes[d] = v
			}
		}
	}
	out := make([][bfv.Dim]float64, len(points))
	for i, p := range points {
		for d := 0; d < bfv.Dim; d++ {
			if maxes[d] > 0 {
				out[i][d] = p.Vec[d] / maxes[d]
			}
		}
	}
	return out
}

// referenceDBSCAN is the classic queue formulation over every point and
// square-rooted distances: every core neighbour's whole neighbour list is
// appended to the expansion queue and points are skipped at dequeue.
// DBSCAN, which clusters each distinct vector once, must produce exactly
// its classes.
func referenceDBSCAN(points []Point, params Params) []Class {
	if params.MinPts <= 0 {
		params = DefaultParams
	}
	n := len(points)
	norm := referenceNormalize(points)
	neighbors := func(i int) []int {
		var out []int
		for j := 0; j < n; j++ {
			if referenceDist(norm[i], norm[j]) <= params.Eps {
				out = append(out, j)
			}
		}
		return out
	}
	labels := make([]int, n)
	next := 1
	for i := 0; i < n; i++ {
		if labels[i] != 0 {
			continue
		}
		nb := neighbors(i)
		if len(nb) < params.MinPts {
			labels[i] = -1
			continue
		}
		id := next
		next++
		labels[i] = id
		queue := nb
		for len(queue) > 0 {
			j := queue[0]
			queue = queue[1:]
			if labels[j] == -1 {
				labels[j] = id
				continue
			}
			if labels[j] != 0 {
				continue
			}
			labels[j] = id
			if jn := neighbors(j); len(jn) >= params.MinPts {
				queue = append(queue, jn...)
			}
		}
	}
	byID := map[int][]Point{}
	var noiseClasses []Class
	for i, p := range points {
		if labels[i] == -1 {
			noiseClasses = append(noiseClasses, Class{Members: []Point{p}, Noise: true})
			continue
		}
		byID[labels[i]] = append(byID[labels[i]], p)
	}
	ids := make([]int, 0, len(byID))
	for id := range byID {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]Class, 0, len(ids)+len(noiseClasses))
	for _, id := range ids {
		members := byID[id]
		sort.Slice(members, func(a, b int) bool { return members[a].Entry < members[b].Entry })
		out = append(out, Class{Members: members})
	}
	sort.Slice(noiseClasses, func(a, b int) bool {
		return noiseClasses[a].Members[0].Entry < noiseClasses[b].Members[0].Entry
	})
	return append(out, noiseClasses...)
}

// randomPoints draws n vectors around k random centres, each feature the
// centre's value in [0, 20) plus jitter in [0, spread). Entries are shuffled
// so that point order and entry order differ.
func randomPoints(r *rand.Rand, n, k, spread int) []Point {
	centres := make([]bfv.Vector, k)
	for c := range centres {
		for d := range centres[c] {
			centres[c][d] = float64(r.Intn(20))
		}
	}
	pts := make([]Point, n)
	for i, e := range r.Perm(n) {
		v := centres[r.Intn(k)]
		for d := range v {
			v[d] += float64(r.Intn(spread))
		}
		pts[i] = Point{Entry: uint32(0x1000 + 0x10*e), Vec: v}
	}
	return pts
}

// withCopies overwrites about half of the vectors with an earlier point's, so
// that most vectors occur several times and their copies lie apart in point
// order.
func withCopies(r *rand.Rand, pts []Point) []Point {
	for i := 1; i < len(pts); i++ {
		if r.Intn(2) == 0 {
			pts[i].Vec = pts[r.Intn(i)].Vec
		}
	}
	return pts
}

// isolatedCopies places copies of one vector, far from every other, between
// the points of a tight group, so that the copies lie apart in point order.
func isolatedCopies(copies int) []Point {
	pts := randomPoints(rand.New(rand.NewSource(3)), 12, 1, 2)
	var far bfv.Vector
	for d := range far {
		far[d] = 1000
	}
	for c := 0; c < copies; c++ {
		at := (c*len(pts))/copies + 1
		p := Point{Entry: uint32(0x9000 + 0x10*c), Vec: far}
		pts = append(pts[:at], append([]Point{p}, pts[at:]...)...)
	}
	return pts
}

// densePoints are n points within eps of each other: every point is a core
// point whose neighbourhood is the whole set.
func densePoints(n int) []Point {
	r := rand.New(rand.NewSource(7))
	pts := randomPoints(r, n, 1, 3)
	for i := range pts {
		for d := range pts[i].Vec {
			pts[i].Vec[d] += 100
		}
	}
	return pts
}

func TestDBSCANMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	params := []Params{DefaultParams, {Eps: 0.2, MinPts: 2}, {Eps: 0.6, MinPts: 5}}
	for trial := 0; trial < 200; trial++ {
		n := r.Intn(120)
		pts := randomPoints(r, n, 1+r.Intn(6), 1+r.Intn(4))
		p := params[trial%len(params)]
		if got, want := DBSCAN(pts, p), referenceDBSCAN(pts, p); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (n=%d, %+v): classes differ\n got %v\nwant %v", trial, n, p, got, want)
		}
	}
	for trial := 0; trial < 200; trial++ {
		n := r.Intn(120)
		pts := withCopies(r, randomPoints(r, n, 1+r.Intn(6), 1+r.Intn(4)))
		if trial%4 == 0 {
			// A dropped feature: one dimension is zero in every vector.
			d := r.Intn(bfv.Dim)
			for i := range pts {
				pts[i].Vec = pts[i].Vec.Drop(d)
			}
		}
		p := params[trial%len(params)]
		if got, want := DBSCAN(pts, p), referenceDBSCAN(pts, p); !reflect.DeepEqual(got, want) {
			t.Fatalf("duplicate trial %d (n=%d, %+v): classes differ\n got %v\nwant %v", trial, n, p, got, want)
		}
	}
	// A vector with no neighbour but its own copies is core exactly when it
	// occurs MinPts times: below that every copy is its own noise class.
	for _, copies := range []int{DefaultParams.MinPts - 1, DefaultParams.MinPts} {
		pts := isolatedCopies(copies)
		got, want := DBSCAN(pts, DefaultParams), referenceDBSCAN(pts, DefaultParams)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%d isolated copies: classes differ\n got %v\nwant %v", copies, got, want)
		}
		var noise, clustered int
		for _, c := range got {
			if c.Members[0].Vec[0] != 1000 {
				continue
			}
			if c.Noise {
				noise += len(c.Members)
			} else {
				clustered++
				if len(c.Members) != copies {
					t.Errorf("%d isolated copies: their class holds %d points", copies, len(c.Members))
				}
			}
		}
		if copies < DefaultParams.MinPts && noise != copies {
			t.Errorf("%d isolated copies: %d noise classes, want one per copy", copies, noise)
		}
		if copies == DefaultParams.MinPts && (clustered != 1 || noise != 0) {
			t.Errorf("%d isolated copies: %d classes and %d noise points, want one class", copies, clustered, noise)
		}
	}
	dense := densePoints(200)
	got, want := DBSCAN(dense, DefaultParams), referenceDBSCAN(dense, DefaultParams)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("dense set: classes differ from the reference")
	}
	if len(got) != 1 || len(got[0].Members) != len(dense) {
		t.Fatalf("dense set: %d classes, want one holding all %d points", len(got), len(dense))
	}
}

// TestDBSCANAllocsLinear bounds the bytes one DBSCAN call allocates on a set
// where every point is a core point: the classic queue holds n neighbour
// lists of n points there, O(n²), while each point now costs a fixed number
// of words (its normalized vector, its class slot, labels and queue).
func TestDBSCANAllocsLinear(t *testing.T) {
	const n = 300
	dense := densePoints(n)
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			DBSCAN(dense, DefaultParams)
		}
	})
	const wordsPerPoint = 48
	if got, limit := res.AllocedBytesPerOp(), int64(wordsPerPoint*8*n); got > limit {
		t.Errorf("DBSCAN on %d dense points allocated %d B/call, want <= %d (%d words a point)", n, got, limit, wordsPerPoint)
	}
}

// maxSquare must bound exactly the sums whose square root is within eps,
// and within must agree with the square-rooted distance, at the boundary
// most of all: some pairs are put on the eps sphere along one axis, then
// nudged one ulp in or out.
func TestWithinMatchesSqrt(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	epss := []float64{0, 0.1, DefaultParams.Eps, 1, 1e-300, 1e300, math.Inf(1), -1, math.NaN()}
	for i := 0; i < 1000; i++ {
		epss = append(epss, r.Float64(), r.ExpFloat64())
	}
	for _, eps := range epss {
		if !(eps >= 0) {
			continue
		}
		m := maxSquare(eps)
		if next := math.Nextafter(m, math.Inf(1)); math.Sqrt(m) > eps || (next != m && math.Sqrt(next) <= eps) {
			t.Fatalf("maxSquare(%v) = %v is not the largest sum within eps", eps, m)
		}
	}
	for trial := 0; trial < 20000; trial++ {
		eps := epss[trial%len(epss)]
		var a, b [bfv.Dim]float64
		for d := range a {
			a[d] = r.Float64()
			b[d] = r.Float64()
		}
		if k := trial % 4; k > 0 && eps >= 0 && !math.IsInf(eps, 0) {
			b = a
			d := r.Intn(bfv.Dim)
			b[d] = a[d] + eps
			switch k {
			case 2:
				b[d] = math.Nextafter(b[d], math.Inf(-1))
			case 3:
				b[d] = math.Nextafter(b[d], math.Inf(1))
			}
		}
		want := referenceDist(a, b) <= eps
		if got := within(&a, &b, maxSquare(eps)); got != want {
			t.Fatalf("eps %v, a %v, b %v: within = %v, sqrt says %v", eps, a, b, got, want)
		}
	}
}

// distinct numbers groups by first occurrence, puts -0 with +0 since they
// compare ==, and leaves every vector holding a NaN in a group of its own.
func TestDistinctGroups(t *testing.T) {
	var a, b, negZero, nan bfv.Vector
	a[0], b[0] = 1, 2
	negZero[4] = math.Copysign(0, -1)
	nan[0] = math.NaN()
	pts := []Point{{Vec: b}, {Vec: a}, {Vec: nan}, {}, {Vec: b}, {Vec: negZero}, {Vec: nan}, {Vec: a}}
	firsts, counts, group := distinct(pts)
	if want := []int32{0, 1, 2, 3, 0, 3, 4, 1}; !reflect.DeepEqual(group, want) {
		t.Errorf("group = %v, want %v", group, want)
	}
	if want := []int32{0, 1, 2, 3, 6}; !reflect.DeepEqual(firsts, want) {
		t.Errorf("firsts = %v, want %v", firsts, want)
	}
	if want := []int32{2, 2, 1, 2, 1}; !reflect.DeepEqual(counts, want) {
		t.Errorf("counts = %v, want %v", counts, want)
	}
	if hashVec(&negZero) != hashVec(&bfv.Vector{}) {
		t.Error("-0 and +0 hash apart")
	}
	for i := range pts {
		pts[i].Entry = uint32(0x1000 + 0x10*i)
	}
	// NaN != NaN, so the classes are compared in print.
	for _, p := range []Params{{Eps: 0, MinPts: 2}, {Eps: 2, MinPts: 4}} {
		if got, want := fmt.Sprint(DBSCAN(pts, p)), fmt.Sprint(referenceDBSCAN(pts, p)); got != want {
			t.Errorf("%+v: classes differ\n got %v\nwant %v", p, got, want)
		}
	}
}

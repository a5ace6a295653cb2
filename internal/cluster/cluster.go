// Package cluster implements the behavior-clustering stage of the inference
// pipeline: DBSCAN over behavioral feature vectors, class complexity
// calculation per the paper's equation (1), and candidate selection keeping
// only classes more complex than average. It also provides the
// dimensionality-reduction and preprocessing baselines that the paper
// compares against in RQ4.
package cluster

import (
	"math"
	"slices"
	"sort"

	"fits/internal/bfv"
)

// Point is one custom function with its feature vector.
type Point struct {
	Entry uint32
	Vec   bfv.Vector
}

// Params configures DBSCAN.
type Params struct {
	Eps    float64 // neighborhood radius over max-normalized vectors
	MinPts int     // core point density threshold
}

// DefaultParams are the parameters used throughout the evaluation.
var DefaultParams = Params{Eps: 0.35, MinPts: 3}

// Class is one cluster of functions.
type Class struct {
	Members []Point
	// Complexity is filled by Complexities (equation 1).
	Complexity float64
	// Noise marks singleton classes formed from DBSCAN noise points.
	Noise bool
}

// distinct groups the points whose vectors compare ==. It returns, for each
// group in order of first occurrence, the index of that occurrence and the
// group's size, and for each point the number of its group.
//
// The point indices are sorted by a 32-bit hash of the vector, ties by
// index: one slices.Sort of packed uint64 keys, where sorting by the vectors
// themselves cost several times the clustering it saves. A point joins the
// first earlier point of its hash run whose vector is ==, so a hash
// collision costs one extra comparison and never merges unequal vectors. A
// vector holding a NaN equals nothing, not even itself, and forms a group
// of its own.
func distinct(points []Point) (firsts, counts, group []int32) {
	n := len(points)
	keys := make([]uint64, n)
	for i := range points {
		keys[i] = uint64(hashVec(&points[i].Vec))<<32 | uint64(i)
	}
	slices.Sort(keys)
	// group first holds each point's leader, the first point of its group,
	// then, in one ascending pass, each group's number in first-occurrence
	// order: a leader precedes the rest of its group, so its number is
	// known when they are reached.
	group = make([]int32, n)
	m := 0
	for start := 0; start < n; {
		end := start + 1
		for end < n && keys[end]>>32 == keys[start]>>32 {
			end++
		}
		for k := start; k < end; k++ {
			i := int32(uint32(keys[k]))
			group[i] = i
			for _, key := range keys[start:k] {
				if j := int32(uint32(key)); group[j] == j && points[j].Vec == points[i].Vec {
					group[i] = j
					break
				}
			}
			if group[i] == i {
				m++
			}
		}
		start = end
	}
	firsts = make([]int32, 0, m)
	counts = make([]int32, m)
	for i := range group {
		if int(group[i]) == i {
			group[i] = int32(len(firsts))
			firsts = append(firsts, int32(i))
		} else {
			group[i] = group[group[i]]
		}
		counts[group[i]]++
	}
	return firsts, counts, group
}

// hashVec mixes the bits of a vector's features into 32 bits. Zero is
// hashed as +0, so the vectors that compare == hash alike.
func hashVec(v *bfv.Vector) uint32 {
	const k = 0x9e3779b97f4a7c15
	h := uint64(0)
	for _, x := range v {
		if x == 0 {
			x = 0
		}
		h = (h ^ math.Float64bits(x)) * k
		h ^= h >> 32
	}
	return uint32(h * k >> 32)
}

// maxNormalize scales every dimension of the vectors points[idx[k]] by its
// maximum over them, so that distance comparisons are not dominated by
// large-magnitude features. The maxima of a multiset are those of its set,
// so one index per distinct vector normalizes exactly as every point would.
func maxNormalize(points []Point, idx []int32) [][bfv.Dim]float64 {
	var maxes [bfv.Dim]float64
	for _, i := range idx {
		for d := 0; d < bfv.Dim; d++ {
			if v := math.Abs(points[i].Vec[d]); v > maxes[d] {
				maxes[d] = v
			}
		}
	}
	out := make([][bfv.Dim]float64, len(idx))
	for k, i := range idx {
		for d := 0; d < bfv.Dim; d++ {
			if maxes[d] > 0 {
				out[k][d] = points[i].Vec[d] / maxes[d]
			}
		}
	}
	return out
}

// maxSquare returns the largest float64 s with math.Sqrt(s) <= eps, so
// that for every sum of squares s, s <= maxSquare(eps) exactly when
// math.Sqrt(s) <= eps: the correctly rounded square root is monotonic, so
// the sums within eps form the interval [0, maxSquare(eps)]. A negative eps
// admits no sum and a NaN eps none either (every comparison is false).
func maxSquare(eps float64) float64 {
	if !(eps >= 0) {
		return eps
	}
	t := eps * eps
	for math.Sqrt(t) > eps {
		t = math.Nextafter(t, math.Inf(-1))
	}
	for {
		u := math.Nextafter(t, math.Inf(1))
		if u == t || math.Sqrt(u) > eps {
			return t
		}
		t = u
	}
}

// within reports whether the Euclidean distance between a and b is at most
// the eps whose maxSquare is maxSq. The partial sums of squares never
// decrease, so the sum stops as soon as it passes maxSq.
func within(a, b *[bfv.Dim]float64, maxSq float64) bool {
	s := 0.0
	for d := 0; d < bfv.Dim; d++ {
		diff := a[d] - b[d]
		s += diff * diff
		if s > maxSq {
			return false
		}
	}
	return s <= maxSq
}

// DBSCAN clusters points with the classic density-based algorithm. Noise
// points become singleton classes marked Noise so that the complexity filter
// still considers them.
//
// It clusters each distinct vector once, weighted by its multiplicity, and
// every point takes its vector's label. That is exact: equal vectors have
// equal normalized rows and so one neighbour set. A core copy's expansion
// enqueues every copy at once; non-core copies are either all noise or all
// claimed by the first cluster reaching them; and cluster ids follow first
// occurrences, which is the order groups are visited in.
func DBSCAN(points []Point, params Params) []Class {
	if params.MinPts <= 0 {
		params = DefaultParams
	}
	n := len(points)
	firsts, counts, group := distinct(points)
	m := len(firsts)
	norm := maxNormalize(points, firsts)

	// neighbors returns the groups within eps of group g and the number of
	// points they hold. It reuses one scratch buffer across queries: each
	// result is consumed before the next query, and a group has at most m
	// neighbours, so the append below never reallocates.
	scratch := make([]int32, 0, m)
	maxSq := maxSquare(params.Eps)
	neighbors := func(g int32) ([]int32, int) {
		out, weight := scratch[:0], 0
		for h := range norm {
			if within(&norm[g], &norm[h], maxSq) {
				out = append(out, int32(h))
				weight += int(counts[h])
			}
		}
		return out, weight
	}

	const (
		unvisited = 0
		noise     = -1
	)
	labels := make([]int, m) // per group: 0 unvisited, -1 noise, >0 cluster id
	// Each group is enqueued at most once over the whole run: it is marked
	// on enqueue, and an expansion skips groups already labelled (noise
	// excepted, which becomes a border group). Labels change only at
	// dequeue, so only a group's first dequeue could ever act, and the
	// labels equal those of the classic queue that appends every core
	// neighbour's whole neighbour list, in O(m) queue memory.
	queued := make([]bool, m)
	queue := make([]int32, 0, m)
	enqueue := func(nb []int32) {
		for _, h := range nb {
			if !queued[h] && labels[h] <= unvisited {
				queued[h] = true
				queue = append(queue, h)
			}
		}
	}
	next := 1
	for g := int32(0); int(g) < m; g++ {
		if labels[g] != unvisited {
			continue
		}
		nb, weight := neighbors(g)
		if weight < params.MinPts {
			labels[g] = noise
			continue
		}
		id := next
		next++
		labels[g] = id
		queue = queue[:0]
		enqueue(nb)
		for head := 0; head < len(queue); head++ {
			h := queue[head]
			if labels[h] == noise {
				labels[h] = id // border group
				continue
			}
			labels[h] = id
			if hn, hw := neighbors(h); hw >= params.MinPts {
				enqueue(hn)
			}
		}
	}

	// Members per cluster id, in point order, carved from one backing array.
	sizes := make([]int, next)
	nnoise := 0
	for _, g := range group {
		if l := labels[g]; l == noise {
			nnoise++
		} else {
			sizes[l]++
		}
	}
	backing := make([]Point, n-nnoise)
	members := make([][]Point, next)
	off := 0
	for id := 1; id < next; id++ {
		members[id] = backing[off : off : off+sizes[id]]
		off += sizes[id]
	}
	noiseClasses := make([]Class, 0, nnoise)
	for i, p := range points {
		l := labels[group[i]]
		if l == noise {
			noiseClasses = append(noiseClasses, Class{Members: []Point{p}, Noise: true})
			continue
		}
		members[l] = append(members[l], p)
	}
	out := make([]Class, 0, next-1+nnoise)
	for id := 1; id < next; id++ {
		ms := members[id]
		sort.Slice(ms, func(a, b int) bool { return ms[a].Entry < ms[b].Entry })
		out = append(out, Class{Members: ms})
	}
	sort.Slice(noiseClasses, func(a, b int) bool {
		return noiseClasses[a].Members[0].Entry < noiseClasses[b].Members[0].Entry
	})
	return append(out, noiseClasses...)
}

// Complexities fills each class's complexity per equation (1): the mean of
// normalized basic-block count, caller count, library-call count and
// anchor-call count over the class members, and returns the average over
// classes.
func Complexities(classes []Class, all []Point) float64 {
	dims := []int{bfv.FBasicBlocks, bfv.FCallers, bfv.FLibCalls, bfv.FAnchorCalls}
	var maxes [bfv.Dim]float64
	for _, p := range all {
		for _, d := range dims {
			if p.Vec[d] > maxes[d] {
				maxes[d] = p.Vec[d]
			}
		}
	}
	total := 0.0
	for i := range classes {
		c := &classes[i]
		sum := 0.0
		for _, p := range c.Members {
			for _, d := range dims {
				if maxes[d] > 0 {
					sum += p.Vec[d] / maxes[d]
				}
			}
		}
		if len(c.Members) > 0 {
			c.Complexity = sum / float64(len(c.Members))
		}
		total += c.Complexity
	}
	if len(classes) == 0 {
		return 0
	}
	return total / float64(len(classes))
}

// Candidates runs the full clustering stage: cluster, compute complexities,
// and keep the members of classes whose complexity exceeds the average.
// The returned entries are sorted.
func Candidates(points []Point, params Params) []uint32 {
	if len(points) == 0 {
		return nil
	}
	classes := DBSCAN(points, params)
	avg := Complexities(classes, points)
	var out []uint32
	for _, c := range classes {
		if c.Complexity > avg {
			for _, p := range c.Members {
				out = append(out, p.Entry)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Package score ranks candidate functions against the anchor matrix. The
// behavioral similarity of a candidate is its mean similarity to the anchor
// function vectors — equation (2) of the paper with cosine distance — and
// the package also provides the Euclidean, Manhattan and Pearson baselines
// used by RQ4.
package score

import (
	"fmt"
	"math"
	"sort"

	"fits/internal/bfv"
)

// Metric selects the similarity computation.
type Metric uint8

// Metrics. Cosine is the paper's choice; the rest are RQ4 baselines.
const (
	Cosine Metric = iota
	Euclidean
	Manhattan
	Pearson
)

func (m Metric) String() string {
	switch m {
	case Cosine:
		return "cosine"
	case Euclidean:
		return "euclidean"
	case Manhattan:
		return "manhattan"
	case Pearson:
		return "pearson"
	}
	return fmt.Sprintf("metric(%d)", uint8(m))
}

// Similarity computes the pairwise similarity of two vectors in [roughly]
// [0,1] for the distance-based metrics and [-1,1] for correlation ones.
func Similarity(m Metric, a, b bfv.Vector) float64 {
	switch m {
	case Cosine:
		return cosineSim(a, b)
	case Euclidean:
		d := 0.0
		for i := 0; i < bfv.Dim; i++ {
			diff := a[i] - b[i]
			d += diff * diff
		}
		return 1 / (1 + math.Sqrt(d))
	case Manhattan:
		d := 0.0
		for i := 0; i < bfv.Dim; i++ {
			d += math.Abs(a[i] - b[i])
		}
		return 1 / (1 + d)
	case Pearson:
		return pearson(a, b)
	}
	return 0
}

// cosineSim is 1 - cosine distance: the cosine of the angle between the
// vectors, prioritizing relative over absolute differences.
func cosineSim(a, b bfv.Vector) float64 {
	var dot, na, nb float64
	for i := 0; i < bfv.Dim; i++ {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

func pearson(a, b bfv.Vector) float64 {
	var ma, mb float64
	for i := 0; i < bfv.Dim; i++ {
		ma += a[i]
		mb += b[i]
	}
	ma /= bfv.Dim
	mb /= bfv.Dim
	var cov, va, vb float64
	for i := 0; i < bfv.Dim; i++ {
		da, db := a[i]-ma, b[i]-mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	if va == 0 || vb == 0 {
		return 0
	}
	return cov / (math.Sqrt(va) * math.Sqrt(vb))
}

// Score is equation (2): the mean similarity of v to the anchor matrix.
func Score(m Metric, v bfv.Vector, anchors []bfv.Vector) float64 {
	if len(anchors) == 0 {
		return 0
	}
	s := 0.0
	for _, a := range anchors {
		s += Similarity(m, v, a)
	}
	return s / float64(len(anchors))
}

// Ranked is one candidate with its behavioral similarity score.
type Ranked struct {
	Entry uint32  `json:"entry"`
	Score float64 `json:"score"`
}

// Rank scores every candidate against the anchors and returns them ordered
// by descending score; ties break on ascending entry address for
// determinism.
func Rank(m Metric, cands map[uint32]bfv.Vector, anchors []bfv.Vector) []Ranked {
	out := make([]Ranked, 0, len(cands))
	for entry, v := range cands {
		out = append(out, Ranked{Entry: entry, Score: Score(m, v, anchors)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Entry < out[j].Entry
	})
	return out
}

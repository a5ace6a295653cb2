package cluster

import (
	"reflect"
	"testing"
)

// fuzzPoints decodes data into DBSCAN parameters and at most 64 points.
// The first byte picks Eps in eighths from 0 to 1, the second MinPts in
// 1..6. Each point then starts with one byte: an odd byte copies an earlier
// point's vector, an even one is followed by bfv.Dim feature bytes, each
// reduced to 0..3 so that neighbourhoods and chance duplicates are common.
// Entries are unique and out of point order.
func fuzzPoints(data []byte) ([]Point, Params) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	params := Params{Eps: float64(next()%9) / 8, MinPts: 1 + int(next()%6)}
	var pts []Point
	for len(data) > 0 && len(pts) < 64 {
		p := Point{Entry: uint32(0x1000 + 0x10*(len(pts)*29%64))}
		if op := next(); op&1 == 1 && len(pts) > 0 {
			p.Vec = pts[int(op>>1)%len(pts)].Vec
		} else {
			for d := range p.Vec {
				p.Vec[d] = float64(next() % 4)
			}
		}
		pts = append(pts, p)
	}
	return pts, params
}

// FuzzDBSCAN checks the clustering of distinct vectors against the classic
// per-point reference on small, duplicate-heavy inputs.
func FuzzDBSCAN(f *testing.F) {
	f.Add([]byte{3, 2, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Add([]byte{0, 0, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 1, 3, 5, 0, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 7})
	f.Add([]byte{8, 5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 3, 1, 5})
	f.Add([]byte{2, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		pts, params := fuzzPoints(data)
		if got, want := DBSCAN(pts, params), referenceDBSCAN(pts, params); !reflect.DeepEqual(got, want) {
			t.Fatalf("%d points, %+v: classes differ\n got %v\nwant %v", len(pts), params, got, want)
		}
	})
}

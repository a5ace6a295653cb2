package dataflow

// Property tests for the sorted-slice copy-on-write abstract state: every
// observable behaviour (get after arbitrary set sequences, join results and
// change reporting, clone isolation) must match the map-based representation
// it replaced, on randomized states and operation sequences.

import (
	"math/rand"
	"testing"

	"fits/internal/isa"
)

// mapState is the reference implementation: the pre-overhaul map-based
// absState with its exact clone/join semantics.
type mapState map[loc]AVal

func (s mapState) clone() mapState {
	ns := make(mapState, len(s))
	for k, v := range s {
		ns[k] = v
	}
	return ns
}

func (s mapState) join(o mapState) bool {
	changed := false
	for k, v := range o {
		if cur, ok := s[k]; ok {
			nv := merge(cur, v)
			if nv != cur {
				s[k] = nv
				changed = true
			}
		} else {
			s[k] = v
			changed = true
		}
	}
	return changed
}

// randLoc draws from a deliberately small location universe so collisions
// (the interesting case for join/set) are frequent.
func randLoc(rng *rand.Rand) loc {
	switch rng.Intn(3) {
	case 0:
		return regLoc(isa.Reg(rng.Intn(8)))
	case 1:
		return slotLoc(int32(rng.Intn(8)*4 - 16)) // mix of negative and positive offsets
	default:
		return globLoc(uint32(0x1000 + rng.Intn(4)*4))
	}
}

func randAVal(rng *rand.Rand) AVal {
	return AVal{
		Kind:  ValKind(rng.Intn(3)),
		C:     int32(rng.Intn(5) - 2),
		Taint: ParamMask(rng.Intn(16)),
	}
}

// locUniverse enumerates every location the random generators can produce.
func locUniverse() []loc {
	var out []loc
	for r := 0; r < 8; r++ {
		out = append(out, regLoc(isa.Reg(r)))
	}
	for o := 0; o < 8; o++ {
		out = append(out, slotLoc(int32(o*4-16)))
	}
	for g := 0; g < 4; g++ {
		out = append(out, globLoc(uint32(0x1000+g*4)))
	}
	return out
}

func randPair(rng *rand.Rand, n int) (absState, mapState) {
	var s absState
	m := mapState{}
	for k := 0; k < n; k++ {
		l, v := randLoc(rng), randAVal(rng)
		s.set(l, v)
		m[l] = v
	}
	return s, m
}

// assertEqual checks s and m agree on every location in the universe,
// including ones neither has bound (both must read untainted Top).
func assertEqual(t *testing.T, ctx string, s *absState, m mapState) {
	t.Helper()
	for _, l := range locUniverse() {
		want, ok := m[l]
		if !ok {
			want = AVal{Kind: KTop}
		}
		if got := s.get(l); got != want {
			t.Fatalf("%s: loc %#x: slice=%+v map=%+v", ctx, uint64(l), got, want)
		}
	}
	bound := 0
	for _, l := range locUniverse() {
		if _, ok := m[l]; ok {
			bound++
		}
	}
	if len(s.entries) != bound {
		t.Fatalf("%s: %d entries, reference binds %d locations", ctx, len(s.entries), bound)
	}
}

func TestAbsStateSetGetMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		s, m := randPair(rng, rng.Intn(30))
		assertEqual(t, "set/get", &s, m)
	}
}

func TestAbsStateJoinMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 500; trial++ {
		s, ms := randPair(rng, rng.Intn(20))
		o, mo := randPair(rng, rng.Intn(20))
		gotChanged := s.Join(&o)
		wantChanged := ms.join(mo)
		if gotChanged != wantChanged {
			t.Fatalf("trial %d: join changed=%v, reference=%v", trial, gotChanged, wantChanged)
		}
		assertEqual(t, "join target", &s, ms)
		assertEqual(t, "join source untouched", &o, mo)
	}
}

func TestAbsStateJoinIdempotentAndMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		s, _ := randPair(rng, rng.Intn(20))
		o, _ := randPair(rng, rng.Intn(20))
		s.Join(&o)
		if s.Join(&o) {
			t.Fatal("second join with the same state must report no change")
		}
		snapshot := s.Clone()
		if s.Join(&snapshot) {
			t.Fatal("self-join must report no change")
		}
	}
}

// TestAbsStateCloneIsolation drives random interleaved mutations of a state
// and its clone; copy-on-write must keep them observationally independent.
func TestAbsStateCloneIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 300; trial++ {
		s, ms := randPair(rng, rng.Intn(20))
		c := s.Clone()
		mc := ms.clone()
		for op := 0; op < 20; op++ {
			l, v := randLoc(rng), randAVal(rng)
			if rng.Intn(2) == 0 {
				s.set(l, v)
				ms[l] = v
			} else {
				c.set(l, v)
				mc[l] = v
			}
		}
		assertEqual(t, "original after clone mutation", &s, ms)
		assertEqual(t, "clone after original mutation", &c, mc)
	}
}

// TestAbsStateFixpointMatchesMapReference replays the worklist fixpoint
// shape — clone, transfer-like mutation, join over simulated edges — with
// both representations and compares every block's final state.
func TestAbsStateFixpointMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		const blocks = 6
		// Random edge list over a small CFG.
		var edges [][2]int
		for i := 0; i < blocks; i++ {
			for n := rng.Intn(3); n > 0; n-- {
				edges = append(edges, [2]int{i, rng.Intn(blocks)})
			}
		}
		// Random per-block write effects.
		type write struct {
			l loc
			v AVal
		}
		effects := make([][]write, blocks)
		for i := range effects {
			for n := rng.Intn(4); n > 0; n-- {
				effects[i] = append(effects[i], write{randLoc(rng), randAVal(rng)})
			}
		}

		entryS, entryM := randPair(rng, 4)
		sIn := make([]absState, blocks)
		mIn := make([]mapState, blocks)
		sHave := make([]bool, blocks)
		sIn[0] = entryS
		sHave[0] = true
		mIn[0] = entryM

		// Run both to fixpoint with the same deterministic sweep order.
		for pass := 0; pass < 50; pass++ {
			changed := false
			for _, e := range edges {
				from, to := e[0], e[1]
				if !sHave[from] {
					continue
				}
				out := sIn[from].Clone()
				for _, w := range effects[from] {
					out.set(w.l, w.v)
				}
				mout := mIn[from].clone()
				for _, w := range effects[from] {
					mout[w.l] = w.v
				}
				var sc, mc bool
				if !sHave[to] {
					sIn[to] = out.Clone()
					sHave[to] = true
					sc = true
				} else {
					sc = sIn[to].Join(&out)
				}
				if mIn[to] == nil {
					mIn[to] = mout.clone()
					mc = true
				} else {
					mc = mIn[to].join(mout)
				}
				if sc != mc {
					t.Fatalf("trial %d: edge %v changed: slice=%v map=%v", trial, e, sc, mc)
				}
				changed = changed || sc
			}
			if !changed {
				break
			}
		}
		for b := 0; b < blocks; b++ {
			if !sHave[b] {
				if mIn[b] != nil {
					t.Fatalf("trial %d: block %d reached only in reference", trial, b)
				}
				continue
			}
			assertEqual(t, "fixpoint block", &sIn[b], mIn[b])
		}
	}
}

package dataflow

// Property tests for the abstract state (inline registers plus a sorted-slice
// copy-on-write memory): every observable behaviour (get after arbitrary set
// sequences, join results and change reporting, clone isolation) must match
// the map-based representation it replaced, on randomized states and
// operation sequences.

import (
	"math/rand"
	"testing"

	"fits/internal/isa"
)

// mapState is the reference implementation: the pre-overhaul map-based
// absState with its exact clone/join semantics.
type mapState map[Loc]AVal

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
func randLoc(rng *rand.Rand) Loc {
	switch rng.Intn(3) {
	case 0:
		return RegLoc(isa.Reg(rng.Intn(isa.NumRegs)))
	case 1:
		return SlotLoc(int32(rng.Intn(8)*4 - 16)) // mix of negative and positive offsets
	default:
		return GlobLoc(uint32(0x1000 + rng.Intn(4)*4))
	}
}

func randAVal(rng *rand.Rand) AVal {
	return AVal{
		Kind:  ValKind(rng.Intn(3)),
		C:     int32(rng.Intn(5) - 2),
		Taint: ParamMask(rng.Intn(16)),
	}
}

// locUniverse enumerates every location the random generators can produce,
// every register (SP and LR included) among them.
func locUniverse() []Loc {
	var out []Loc
	for r := 0; r < isa.NumRegs; r++ {
		out = append(out, RegLoc(isa.Reg(r)))
	}
	for o := 0; o < 8; o++ {
		out = append(out, SlotLoc(int32(o*4-16)))
	}
	for g := 0; g < 4; g++ {
		out = append(out, GlobLoc(uint32(0x1000+g*4)))
	}
	return out
}

func randPair(rng *rand.Rand, n int) (State, mapState) {
	var s State
	m := mapState{}
	for k := 0; k < n; k++ {
		l, v := randLoc(rng), randAVal(rng)
		s.Set(l, v)
		m[l] = v
	}
	return s, m
}

// assertEqual checks s and m agree on every location in the universe,
// including ones neither has bound (both must read untainted Top).
func assertEqual(t *testing.T, ctx string, s *State, m mapState) {
	t.Helper()
	for _, l := range locUniverse() {
		want, ok := m[l]
		if !ok {
			want = AVal{Kind: KTop}
		}
		if got := s.Get(l); got != want {
			t.Fatalf("%s: loc %#x: slice=%+v map=%+v", ctx, uint64(l), got, want)
		}
	}
	bound := 0
	for _, l := range locUniverse() {
		if _, ok := m[l]; ok {
			bound++
		}
	}
	if n := bindings(s); n != bound {
		t.Fatalf("%s: %d bindings, reference binds %d locations", ctx, n, bound)
	}
}

// bindings counts the locations s binds: bound registers plus memory entries.
func bindings(s *State) int {
	n := len(s.mem)
	for r := range s.regs {
		if s.bound&(1<<r) != 0 {
			n++
		}
	}
	return n
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
				s.Set(l, v)
				ms[l] = v
			} else {
				c.Set(l, v)
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
			l Loc
			v AVal
		}
		effects := make([][]write, blocks)
		for i := range effects {
			for n := rng.Intn(4); n > 0; n-- {
				effects[i] = append(effects[i], write{randLoc(rng), randAVal(rng)})
			}
		}

		entryS, entryM := randPair(rng, 4)
		sIn := make([]State, blocks)
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
					out.Set(w.l, w.v)
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

// FuzzAbsState replays a byte-coded sequence of set, clone and join steps on
// two states and their map references, comparing every location after each
// step: the fuzzer explores the copy-on-write and bound-register corners
// (a clone written on one side only, a join into a state sharing its memory)
// that the seeded random tests reach only by luck.
func FuzzAbsState(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{0x10, 0x20, 0x31, 0x42, 0x53, 0x64, 0x75, 0x86, 0x97, 0xa8, 0xb9, 0xca})
	f.Add([]byte{0xff, 0x00, 0xfe, 0x01, 0xfd, 0x02, 0xfc, 0x03})
	universe := locUniverse()
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		var st [2]State
		ms := [2]mapState{{}, {}}
		for len(data) > 0 {
			op := next()
			i := int(op>>7) & 1 // which state the step acts on
			switch op & 3 {
			case 0, 1:
				l := universe[int(next())%len(universe)]
				b := next()
				v := AVal{Kind: ValKind(b % 3), C: int32(b>>2&3) - 1, Taint: ParamMask(b >> 4)}
				st[i].Set(l, v)
				ms[i][l] = v
			case 2:
				st[1-i] = st[i].Clone()
				ms[1-i] = ms[i].clone()
			case 3:
				got, want := st[i].Join(&st[1-i]), ms[i].join(ms[1-i])
				if got != want {
					t.Fatalf("join changed=%v, reference=%v", got, want)
				}
			}
			assertEqual(t, "state 0", &st[0], ms[0])
			assertEqual(t, "state 1", &st[1], ms[1])
		}
	})
}

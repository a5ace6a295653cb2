package emu

import (
	"math"
	"strings"

	"fits/internal/know"
)

// InstallLibc binds every import of the machine's binary to a native libc
// routine, enough to run the corpus's fetch functions and request handlers
// standalone:
//
//   - strlen, strcmp, strncmp, memcpy, strcpy and strstr follow C;
//   - malloc bump-allocates 8-byte-aligned blocks from [heapBase,
//     heapLimit) and returns 0 once a block does not fit;
//   - every know.Sinks function first passes the C string at each of its
//     DangerousParams to sink (when non-nil), skipping unreadable ones;
//   - every other import, the sinks but strcpy included, returns 0.
//
// A routine that touches unmapped memory faults the machine, as C would.
func (m *Machine) InstallLibc(heapBase, heapLimit uint32, sink func(name, arg string)) {
	heap := heapBase
	routines := map[string]ImportFunc{
		"strlen": func(m *Machine) error {
			s, err := m.ReadCString(m.Regs[0], math.MaxInt)
			m.Regs[0] = uint32(len(s))
			return err
		},
		"strcmp":  func(m *Machine) error { return m.strncmp(math.MaxUint32) },
		"strncmp": func(m *Machine) error { return m.strncmp(m.Regs[2]) },
		"memcpy": func(m *Machine) error {
			for i := uint32(0); i < m.Regs[2]; i++ {
				b, err := m.LoadByte(m.Regs[1] + i)
				if err == nil {
					err = m.StoreByte(m.Regs[0]+i, b)
				}
				if err != nil {
					return err
				}
			}
			return nil
		},
		"strcpy": func(m *Machine) error {
			s, err := m.ReadCString(m.Regs[1], math.MaxInt)
			if err != nil {
				return err
			}
			return m.StoreBytes(m.Regs[0], append([]byte(s), 0))
		},
		"strstr": func(m *Machine) error {
			h, err := m.ReadCString(m.Regs[0], math.MaxInt)
			if err != nil {
				return err
			}
			n, err := m.ReadCString(m.Regs[1], math.MaxInt)
			if err != nil {
				return err
			}
			if i := strings.Index(h, n); i >= 0 {
				m.Regs[0] += uint32(i)
			} else {
				m.Regs[0] = 0
			}
			return nil
		},
		"malloc": func(m *Machine) error {
			n := (uint64(m.Regs[0]) + 7) &^ 7
			if n > uint64(heapLimit-heap) {
				m.Regs[0] = 0
				return nil
			}
			m.Regs[0], heap = heap, heap+uint32(n)
			return nil
		},
	}
	noop := func(m *Machine) error { m.Regs[0] = 0; return nil }
	for _, im := range m.Bin.Imports {
		fn, ok := routines[im.Name]
		if !ok {
			fn = noop
		}
		if spec, isSink := know.Sinks[im.Name]; isSink && sink != nil {
			name, inner := im.Name, fn
			fn = func(m *Machine) error {
				for _, p := range spec.DangerousParams {
					if s, err := m.ReadCString(m.Regs[p], math.MaxInt); err == nil {
						sink(name, s)
					}
				}
				return inner(m)
			}
		}
		m.Imports[im.Name] = fn
	}
}

// strncmp compares the C strings at r0 and r1 over at most n bytes and
// leaves the difference of the first unequal bytes, as unsigned chars, in
// r0.
func (m *Machine) strncmp(n uint32) error {
	for i := uint32(0); i < n; i++ {
		x, err := m.LoadByte(m.Regs[0] + i)
		if err != nil {
			return err
		}
		y, err := m.LoadByte(m.Regs[1] + i)
		if err != nil {
			return err
		}
		if x != y || x == 0 {
			m.Regs[0] = uint32(int32(x) - int32(y))
			return nil
		}
	}
	m.Regs[0] = 0
	return nil
}

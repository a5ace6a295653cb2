// Package lib is the testonly fixture; cmd/user, the nested module
// fixt/second and lib_test.go use its names.
package lib

import "fmt"

func TestOnlyFunc() {} // want `exported func TestOnlyFunc is referenced only by tests`

type TestOnlyType struct{} // want `exported type TestOnlyType is referenced only by tests`

var TestOnlyVar = 1 // want `exported var TestOnlyVar is referenced only by tests`

func Recursive(n int) int { // want `exported func Recursive is referenced only by tests`
	if n == 0 {
		return 0
	}
	return Recursive(n - 1) // a call inside its own declaration is no use
}

type T struct{}

func (T) TestOnlyMethod() {} // want `exported method TestOnlyMethod is referenced only by tests`

func (T) String() string { return "t" } // fmt.Stringer

func UsedByOtherPackage() string { return fmt.Sprint(T{}) }

func UsedBySecondModule() {}

type Lattice[S any] interface { // F-bounded, like dataflow.Lattice
	*S
	Join(o *S) bool
}

func Fix[S any, P Lattice[S]](s S) S {
	P(&s).Join(&s)
	return s
}

type State struct{}

func (s *State) Join(o *State) bool { return false } // called through Lattice[State]

type Kind int

const (
	KindZero Kind = iota // kept by KindOne
	KindOne
)

type Mode int

const (
	ModeA Mode = iota // want `exported const ModeA is referenced only by tests`
	ModeB             // want `exported const ModeB is referenced only by tests`
)

func Suppressed() {} //fitslint:ignore testonly fixture for the suppression directive

func helper() {}

package lib

import "testing"

func TestEverything(t *testing.T) {
	TestOnlyFunc()
	_ = TestOnlyType{}
	_ = TestOnlyVar + Recursive(2)
	T{}.TestOnlyMethod()
	_, _ = ModeA, ModeB
	Suppressed()
	helper()
}

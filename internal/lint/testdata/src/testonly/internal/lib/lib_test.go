package lib

import "testing"

func TestEverything(t *testing.T) {
	TestOnlyFunc()
	_ = TestOnlyType{}
	_ = TestOnlyVar + Recursive(2)
	T{}.TestOnlyMethod()
	_ = Closer{}.Close()
	Runner{}.Stop()
	_, _ = ModeA, ModeB
	Suppressed()
	helper()
}

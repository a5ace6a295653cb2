package lint_test

import (
	"go/token"
	"strings"
	"testing"

	"fits/internal/lint"
	"fits/internal/lint/ctxflow"
	"fits/internal/lint/linttest"
	"fits/internal/lint/loader"
	"fits/internal/lint/lockguard"
	"fits/internal/lint/maporder"
	"fits/internal/lint/nondet"
	"fits/internal/lint/strcopy"
	"fits/internal/lint/testonly"
)

func TestMaporder(t *testing.T) {
	linttest.Run(t, maporder.Analyzer, "testdata/src/maporder", "fits/internal/fixture/maporder")
}

func TestNondet(t *testing.T) {
	// The fixture impersonates a pure analysis package so the
	// determinism contract applies to it.
	linttest.Run(t, nondet.Analyzer, "testdata/src/nondet", "fits/internal/taint")
}

func TestStrcopy(t *testing.T) {
	// The fixture impersonates a pure analysis package so the hot-loop
	// copy rule applies to it.
	linttest.Run(t, strcopy.Analyzer, "testdata/src/strcopy", "fits/internal/dataflow")
}

// TestStrcopyCoversPrecisionPasses: strcopy applies to every package on
// nondet's pure list, the precision passes included.
func TestStrcopyCoversPrecisionPasses(t *testing.T) {
	linttest.Run(t, strcopy.Analyzer, "testdata/src/strcopy", "fits/internal/pathcheck")
}

func TestStrcopySilentOutsidePurePackages(t *testing.T) {
	linttest.Run(t, strcopy.Analyzer, "testdata/src/strcopyimpure", "fits/internal/server")
}

func TestNondetSilentOutsidePurePackages(t *testing.T) {
	linttest.Run(t, nondet.Analyzer, "testdata/src/nondetimpure", "fits/internal/server")
}

// TestTestonly loads a fixture module with a nested second module. Names
// only lib_test.go references are flagged; names another package, the
// second module, an interface or an iota sibling keeps alive are not.
func TestTestonly(t *testing.T) {
	linttest.RunModule(t, testonly.Analyzer, "testdata/src/testonly")
}

func TestCtxflow(t *testing.T) {
	linttest.Run(t, ctxflow.Analyzer, "testdata/src/ctxflow", "fits/internal/fixture/ctxflow")
}

func TestLockguard(t *testing.T) {
	linttest.Run(t, lockguard.Analyzer, "testdata/src/lockguard", "fits/internal/fixture/lockguard")
}

// TestDirectiveValidation checks that malformed //fitslint:ignore
// directives are themselves findings: no analyzer, unknown analyzer,
// missing reason.
func TestDirectiveValidation(t *testing.T) {
	pkg, err := loader.Check(token.NewFileSet(), "testdata/src/directives",
		"fits/internal/fixture/directives", []string{"a.go"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.Run([]*loader.Package{pkg}, nil)
	if err != nil {
		t.Fatal(err)
	}
	wants := []string{
		"malformed directive",
		`unknown analyzer "nosuchanalyzer"`,
		"suppression of maporder without a reason",
	}
	if len(diags) != len(wants) {
		t.Fatalf("got %d findings, want %d: %v", len(diags), len(wants), diags)
	}
	for i, w := range wants {
		if diags[i].Analyzer != "fitslint" {
			t.Errorf("finding %d from %q, want pseudo-analyzer fitslint", i, diags[i].Analyzer)
		}
		if !strings.Contains(diags[i].Message, w) {
			t.Errorf("finding %d = %q, want substring %q", i, diags[i].Message, w)
		}
	}
}

// TestSuiteRegistration pins the suite: a new analyzer must be registered,
// tested, and documented.
func TestSuiteRegistration(t *testing.T) {
	var names []string
	for _, a := range lint.Analyzers() {
		names = append(names, a.Name)
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q missing Doc or Run", a.Name)
		}
	}
	want := "ctxflow lockguard maporder nondet strcopy testonly"
	if got := strings.Join(names, " "); got != want {
		t.Errorf("registered analyzers %q, want %q", got, want)
	}
}

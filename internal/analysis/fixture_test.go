package analysis

// The fixture harness is a small analysistest: each analyzer has a package
// under testdata/src/<name>/ with `// want "substring"` expectations on the
// lines it must flag and //lint:dmacp-allow directives on the lines it must
// not. Fixture packages are real, compiling Go — the loader type-checks them
// with the same export-data importer the production linter uses — so every
// fixture is also a regression test for the loader itself.

import (
	"regexp"
	"strings"
	"testing"
)

var wantRE = regexp.MustCompile(`// want "((?:[^"\\]|\\.)*)"`)

// runFixture loads testdata/src/<fixture> (including _test.go files, so
// per-file exemptions are exercised) and checks the analyzer's diagnostics
// against the `// want` expectations, both directions.
func runFixture(t *testing.T, a *Analyzer, fixture string) {
	t.Helper()
	pkgs, err := Load(LoadConfig{Tests: true}, "./testdata/src/"+fixture)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", fixture, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("fixture %s: loaded no packages", fixture)
	}

	type key struct {
		file string
		line int
	}
	want := make(map[key][]string)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					pos := pkg.Fset.Position(c.Pos())
					for _, m := range wantRE.FindAllStringSubmatch(c.Text, -1) {
						text := strings.ReplaceAll(m[1], `\"`, `"`)
						k := key{pos.Filename, pos.Line}
						want[k] = append(want[k], text)
					}
				}
			}
		}
	}

	diags := Run(pkgs, []*Analyzer{a})
	matched := make(map[key]int)
	for _, d := range diags {
		k := key{d.Pos.Filename, d.Pos.Line}
		exp := want[k]
		if matched[k] < len(exp) && strings.Contains(d.Message, exp[matched[k]]) {
			matched[k]++
			continue
		}
		t.Errorf("unexpected diagnostic:\n  %s", d)
	}
	for k, exp := range want {
		if matched[k] != len(exp) {
			t.Errorf("%s:%d: expected diagnostic(s) %q, got %d of %d",
				k.file, k.line, exp[matched[k]:], matched[k], len(exp))
		}
	}
}

func TestMapOrderFixture(t *testing.T)       { runFixture(t, MapOrder, "maporder") }
func TestParOwnershipFixture(t *testing.T)   { runFixture(t, ParOwnership, "parownership") }
func TestSeedDisciplineFixture(t *testing.T) { runFixture(t, SeedDiscipline, "seeddiscipline") }
func TestByteHopsFixture(t *testing.T)       { runFixture(t, ByteHops, "bytehops") }
func TestCtxDisciplineFixture(t *testing.T)  { runFixture(t, CtxDiscipline, "ctxdiscipline") }

// TestFusionFixture checks the fusion-candidate-emission patterns against
// maporder: the coarsened statement sequence is emitted output, so candidate
// selection must be deterministic.
func TestFusionFixture(t *testing.T) { runFixture(t, MapOrder, "fusion") }

// TestMapOrderSuggestedFix pins the mechanical sorted-keys rewrite: the
// flagged range in the maporder fixture must carry a replacement sketch that
// collects, sorts, and re-ranges the keys.
func TestMapOrderSuggestedFix(t *testing.T) {
	pkgs, err := Load(LoadConfig{Tests: true}, "./testdata/src/maporder")
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(pkgs, []*Analyzer{MapOrder})
	fixes := 0
	for _, d := range diags {
		if d.Fix == nil {
			continue
		}
		fixes++
		for _, frag := range []string{"keys := make(", "slices.Sort(keys)", "range keys"} {
			if !strings.Contains(d.Fix.Replacement, frag) {
				t.Errorf("fix for %s missing %q:\n%s", d.Pos, frag, d.Fix.Replacement)
			}
		}
	}
	if fixes == 0 {
		t.Fatal("no maporder diagnostics carried a suggested fix")
	}
}

// TestAllowlistRejectsMalformedDirectives pins the allowlist contract: a
// directive without an analyzer name or reason, or naming an analyzer that
// does not exist, is itself reported.
func TestAllowlistRejectsMalformedDirectives(t *testing.T) {
	pkgs, err := Load(LoadConfig{Tests: true}, "./testdata/src/allowlist")
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(pkgs, All())
	var got []string
	for _, d := range diags {
		got = append(got, d.Analyzer)
	}
	bad, unknown := 0, 0
	for _, d := range diags {
		if d.Analyzer != "allowlist" {
			continue
		}
		bad++
		if strings.Contains(d.Message, "unknown analyzer") {
			unknown++
		}
	}
	if bad != 3 || unknown != 1 {
		t.Errorf("want 3 allowlist diagnostics (1 unknown-analyzer), got %d/%d (%v)", bad, unknown, got)
	}
}

// TestAllowlistPlacementEdgeCases pins the directive placement semantics
// over the full suite: the well-formed, stacked and multi-line-statement
// directives in the fixture must suppress their findings, while the
// directive with a typo'd analyzer name must NOT suppress the
// seeddiscipline finding on the line below it.
func TestAllowlistPlacementEdgeCases(t *testing.T) {
	pkgs, err := Load(LoadConfig{Tests: true}, "./testdata/src/allowlist")
	if err != nil {
		t.Fatal(err)
	}
	byAnalyzer := map[string]int{}
	var all []string
	for _, d := range Run(pkgs, All()) {
		byAnalyzer[d.Analyzer]++
		all = append(all, d.String())
	}
	// Surviving findings: the 3 allowlist diagnostics plus exactly one
	// seeddiscipline finding (under the typo'd directive). Everything else
	// — stacked seeddiscipline+bytehops on one line, bytehops on the
	// multi-line statement, the plain well-formed case — is suppressed.
	if byAnalyzer["allowlist"] != 3 || byAnalyzer["seeddiscipline"] != 1 || len(all) != 4 {
		t.Errorf("directive placement semantics broke; surviving diagnostics:\n  %s",
			strings.Join(all, "\n  "))
	}
}

// TestTreeIsLintClean runs the full suite over the module exactly as
// cmd/dmacplint does, so a determinism-invariant regression fails `go test`
// even where `make lint` is not wired in.
func TestTreeIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	pkgs, err := Load(LoadConfig{}, "dmacp/...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) < 15 {
		t.Fatalf("loaded only %d packages; pattern dmacp/... looks wrong", len(pkgs))
	}
	for _, d := range Run(pkgs, All()) {
		t.Errorf("%s", d)
	}
}

// TestByName covers analyzer selection parsing for cmd/dmacplint.
func TestByName(t *testing.T) {
	all, err := ByName("")
	if err != nil || len(all) != 5 {
		t.Fatalf("ByName(\"\") = %d analyzers, err %v; want 5, nil", len(all), err)
	}
	two, err := ByName("maporder, bytehops")
	if err != nil || len(two) != 2 || two[0] != MapOrder || two[1] != ByteHops {
		t.Fatalf("ByName selection failed: %v, %v", two, err)
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Fatal("ByName(nosuch) succeeded, want error")
	}
}

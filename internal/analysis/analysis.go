// Package analysis is dmacp's static-analysis suite: a small, dependency-free
// go/analysis-style framework plus the project-specific analyzers that turn
// the scheduler's determinism and concurrency conventions into compile-gate
// invariants. The reproduction's headline guarantee — schedules are
// byte-identical at any -j, on any run, on any machine — rests on rules that
// were previously enforced only by convention and race tests:
//
//   - emitters must never leak Go map iteration order into task or sync
//     ordering (maporder);
//   - par.ForEach worker closures may write only their own indexed result
//     slot, or shared state under a mutex (parownership);
//   - every stochastic harness must draw from an explicitly seeded generator,
//     never the global math/rand source or a wall-clock seed (seeddiscipline);
//   - bytes, hops, and the bytes×hops movement objective are distinct units
//     that must not be mixed additively or multiplied twice (bytehops);
//   - a context.Context is always the first parameter and is never stored in
//     a struct field, so a repair deadline cannot outlive its call
//     (ctxdiscipline).
//
// Every analyzer is syntactic: it inspects one type-checked function at a
// time, with no call graph. Bugs that only show across calls — map order
// returned by a helper and emitted elsewhere, a lock held across a fan-out,
// a published Schedule or DistanceTable mutated after publication — are left
// to the dynamic gates, which fail on each of them: TestScheduleDigests and
// `make jobs-identical` on changed bytes, `make race` on a racing write, and
// a test timeout on a deadlock.
//
// The framework mirrors golang.org/x/tools/go/analysis (Analyzer, Pass,
// Diagnostic, testdata fixtures with `// want` expectations) but is built
// entirely on the standard library's go/ast, go/types and go/importer so the
// linter works in hermetic build environments with no module downloads: the
// loader shells out to `go list -export` and satisfies imports from compiler
// export data.
//
// Deliberate exceptions are granted inline with an allowlist comment:
//
//	//lint:dmacp-allow <analyzer> <reason>
//
// placed either at the end of the offending line or on its own line directly
// above it. The reason is mandatory; an allow directive without one is itself
// a diagnostic. cmd/dmacplint runs every analyzer over the tree and is wired
// into `make lint` (part of `make check`) and CI.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strings"
)

// An Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and allow directives.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run inspects a package and reports findings through the pass.
	Run func(*Pass)
}

// A Diagnostic is one finding, positioned and attributed to its analyzer.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
	// Fix, when non-nil, is a mechanical rewrite suggestion (not
	// auto-applied; dmacplint prints it under the finding).
	Fix *SuggestedFix
}

// A SuggestedFix is a human-applyable rewrite sketch for a finding.
type SuggestedFix struct {
	Message     string
	Replacement string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// A Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	diags  []Diagnostic
	allows allowIndex
}

// Reportf records a finding at pos unless an allow directive suppresses it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(pos, nil, format, args...)
}

// ReportWithFix records a finding carrying a suggested rewrite.
func (p *Pass) ReportWithFix(pos token.Pos, fix *SuggestedFix, format string, args ...any) {
	p.report(pos, fix, format, args...)
}

func (p *Pass) report(pos token.Pos, fix *SuggestedFix, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	if p.allows.allowed(p.Analyzer.Name, position) {
		return
	}
	p.diags = append(p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
		Fix:      fix,
	})
}

// All returns every registered analyzer, in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		MapOrder, ParOwnership, SeedDiscipline, ByteHops, CtxDiscipline,
	}
}

// ByName resolves a comma-separated analyzer selection ("" means all).
func ByName(sel string) ([]*Analyzer, error) {
	if sel == "" {
		return All(), nil
	}
	byName := make(map[string]*Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, name := range strings.Split(sel, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (have %s)", name, names(All()))
		}
		out = append(out, a)
	}
	return out, nil
}

func names(as []*Analyzer) string {
	var ns []string
	for _, a := range as {
		ns = append(ns, a.Name)
	}
	return strings.Join(ns, ", ")
}

// Run applies each analyzer to each package and returns the surviving
// diagnostics sorted by position. Malformed allow directives (missing
// analyzer name or reason) are reported as findings of the pseudo-analyzer
// "allowlist" so they cannot silently rot.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		allows, bad := collectAllows(pkg)
		diags = append(diags, bad...)
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Pkg: pkg, allows: allows}
			a.Run(pass)
			diags = append(diags, pass.diags...)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// allowDirective is one parsed `//lint:dmacp-allow <analyzer> <reason>`.
type allowDirective struct {
	analyzer string // "*" matches every analyzer
	line     int    // line the directive suppresses (its own line)
	target   int    // additional covered line: for an own-line directive,
	// the first following line that is not itself an own-line directive,
	// so directives for two analyzers can be stacked above one statement
}

// allowIndex maps filename -> directives in that file.
type allowIndex map[string][]allowDirective

func (ai allowIndex) allowed(analyzer string, pos token.Position) bool {
	for _, d := range ai[pos.Filename] {
		if d.analyzer != "*" && d.analyzer != analyzer {
			continue
		}
		if d.line == pos.Line || d.target == pos.Line {
			return true
		}
	}
	return false
}

var allowRE = regexp.MustCompile(`^//lint:dmacp-allow(?:\s+(\S+))?(?:\s+(.*\S))?\s*$`)

// knownDirectiveAnalyzers is the set of names an allow directive may
// reference: every registered analyzer, the allowlist pseudo-analyzer, and
// the wildcard.
func knownDirectiveAnalyzers() map[string]bool {
	known := map[string]bool{"*": true, "allowlist": true}
	for _, a := range All() {
		known[a.Name] = true
	}
	return known
}

// collectAllows scans a package's comments for allow directives. A directive
// on its own line suppresses matching findings on the next line (chaining
// past further stacked own-line directives); a trailing directive
// suppresses findings on its own line. A directive naming an analyzer that
// does not exist is itself a finding — a typo must not silently grant an
// exemption.
func collectAllows(pkg *Package) (allowIndex, []Diagnostic) {
	idx := make(allowIndex)
	known := knownDirectiveAnalyzers()
	var bad []Diagnostic
	for _, f := range pkg.Files {
		// Record which lines hold non-comment code, to distinguish
		// trailing directives from standalone ones.
		codeLines := make(map[int]bool)
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				return false
			}
			if _, isComment := n.(*ast.Comment); isComment {
				return false
			}
			if _, isGroup := n.(*ast.CommentGroup); isGroup {
				return false
			}
			codeLines[pkg.Fset.Position(n.Pos()).Line] = true
			return true
		})
		var directives []allowDirective
		ownLine := make(map[int]bool)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, "//lint:dmacp-allow") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				m := allowRE.FindStringSubmatch(c.Text)
				if m == nil || m[1] == "" || m[2] == "" {
					bad = append(bad, Diagnostic{
						Pos:      pos,
						Analyzer: "allowlist",
						Message:  "malformed allow directive: want //lint:dmacp-allow <analyzer> <reason>",
					})
					continue
				}
				if !known[m[1]] {
					bad = append(bad, Diagnostic{
						Pos:      pos,
						Analyzer: "allowlist",
						Message: fmt.Sprintf("allow directive names unknown analyzer %q (have %s)",
							m[1], names(All())),
					})
					continue
				}
				d := allowDirective{analyzer: m[1], line: pos.Line, target: pos.Line}
				if !codeLines[pos.Line] {
					ownLine[pos.Line] = true
				}
				directives = append(directives, d)
			}
		}
		// Resolve own-line targets: skip forward past any stacked
		// own-line directives to the statement they all cover.
		for i := range directives {
			if !ownLine[directives[i].line] {
				continue
			}
			t := directives[i].line + 1
			for ownLine[t] {
				t++
			}
			directives[i].target = t
		}
		if len(directives) > 0 {
			fname := pkg.Fset.Position(f.Pos()).Filename
			idx[fname] = append(idx[fname], directives...)
		}
	}
	return idx, bad
}

// onEmissionPath reports whether a package belongs to the schedule-emission
// path, where map-iteration order must never influence emitted output. The
// fixture packages under testdata/src are always considered on-path so the
// analyzers can be exercised by the harness.
func onEmissionPath(importPath string) bool {
	if strings.Contains(importPath, "/testdata/src/") {
		return true
	}
	for _, p := range emissionPathPackages {
		if importPath == p {
			return true
		}
	}
	return false
}

// emissionPathPackages are the packages whose code runs between "parse the
// kernel" and "emit the report bytes": anything here that observes map order
// can break byte-identical schedules.
var emissionPathPackages = []string{
	"dmacp/internal/core",
	"dmacp/internal/baseline",
	"dmacp/internal/fusion",
	"dmacp/internal/verify",
	"dmacp/internal/exp",
	"dmacp/internal/sim",
	"dmacp/pipeline",
}

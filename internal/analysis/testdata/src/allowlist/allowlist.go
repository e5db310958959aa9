// Package allowlist is the fixture for allow-directive hygiene: a directive
// must name a real analyzer and give a reason, or it is itself a finding —
// and the directive placement rules (trailing, own-line, stacked, on a
// multi-line statement) are pinned here.
package allowlist

import "math/rand"

// Malformed: no analyzer, no reason.
//
//lint:dmacp-allow
func bare() {}

// Malformed: analyzer but no reason.
//
//lint:dmacp-allow seeddiscipline
func noReason() {}

// Well-formed, and actually suppressing a real finding.
func wellFormed() float64 {
	//lint:dmacp-allow seeddiscipline fixture demonstrates a valid directive
	return rand.Float64()
}

// A directive naming an analyzer that does not exist is itself a finding:
// a typo must not silently grant an exemption, so the finding below it
// still fires.
func typoAllow() float64 {
	//lint:dmacp-allow seediscipline fixture: typo in the analyzer name
	return rand.Float64()
}

// Two stacked own-line directives (different analyzers) both cover the
// first non-directive line below them: the global-source draw mixed with a
// bytes+hops sum trips both seeddiscipline and bytehops on one line.
func stacked(transferBytes, hops int64) float64 {
	//lint:dmacp-allow seeddiscipline fixture: stacked directives cover one statement
	//lint:dmacp-allow bytehops fixture: stacked directives cover one statement
	return rand.Float64() * float64(transferBytes+hops)
}

// A trailing directive on the first line of a multi-line statement covers
// the finding anchored there.
func multiLine(transferBytes, hops int64) int64 {
	return transferBytes + //lint:dmacp-allow bytehops fixture: directive trails a multi-line statement
		hops
}

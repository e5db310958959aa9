package analysis

import (
	"bytes"
	"strings"
	"testing"
)

// TestDiagnosticsJSONDeterministic pins the full pipeline end to end: two
// independent loads and runs of the whole suite over every analyzer fixture
// must produce byte-identical -json output, and that output must carry
// findings from each analyzer (so the comparison is never between two empty
// lists).
func TestDiagnosticsJSONDeterministic(t *testing.T) {
	run := func() []byte {
		pkgs, err := Load(LoadConfig{Tests: true}, "./testdata/src/...")
		if err != nil {
			t.Fatalf("loading fixtures: %v", err)
		}
		out, err := DiagnosticsJSON(Run(pkgs, All()))
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	j1, j2 := run(), run()
	if !bytes.Equal(j1, j2) {
		t.Errorf("-json output differs across independent runs:\n--- first\n%s\n--- second\n%s", j1, j2)
	}
	for _, a := range All() {
		frag := `"analyzer": "` + a.Name + `"`
		if !bytes.Contains(j1, []byte(frag)) {
			t.Errorf("-json output missing %q:\n%s", frag, j1)
		}
	}
}

// TestDiagnosticsJSONEmpty pins the []-not-null contract.
func TestDiagnosticsJSONEmpty(t *testing.T) {
	out, err := DiagnosticsJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(string(out)) != "[]" {
		t.Errorf("empty diagnostics encode as %q, want []", out)
	}
}

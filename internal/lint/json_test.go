package lint

import (
	"bytes"
	"encoding/json"
	"go/token"
	"path/filepath"
	"reflect"
	"testing"
)

func diag(check, file string, line, col int, msg string) Diagnostic {
	return Diagnostic{
		Check:   check,
		Pos:     token.Position{Filename: file, Line: line, Column: col},
		Message: msg,
	}
}

// TestWriteJSONRoundTrip pins the -json contract: one object per line,
// each decodable by encoding/json back into an identical JSONDiagnostic,
// with filenames relativized to the module root as forward-slash paths.
func TestWriteJSONRoundTrip(t *testing.T) {
	root := filepath.FromSlash("/mod")
	diags := []Diagnostic{
		diag(CheckHotpath, filepath.FromSlash("/mod/internal/a/a.go"), 10, 3, "make in hot kernel"),
		diag(CheckErrcheck, filepath.FromSlash("/mod/cmd/x/main.go"), 7, 1, `dropped error in "quoted" context`),
		diag(CheckSeedFlow, filepath.FromSlash("/elsewhere/b.go"), 1, 1, "outside the module stays absolute"),
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, diags, root); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != len(diags) {
		t.Fatalf("got %d lines, want %d:\n%s", len(lines), len(diags), buf.String())
	}
	var got []JSONDiagnostic
	for i, l := range lines {
		var d JSONDiagnostic
		if err := json.Unmarshal(l, &d); err != nil {
			t.Fatalf("line %d does not round-trip: %v\n%s", i+1, err, l)
		}
		got = append(got, d)
	}
	want := []JSONDiagnostic{
		{Check: CheckHotpath, File: "internal/a/a.go", Line: 10, Col: 3, Message: "make in hot kernel"},
		{Check: CheckErrcheck, File: "cmd/x/main.go", Line: 7, Col: 1, Message: `dropped error in "quoted" context`},
		{Check: CheckSeedFlow, File: filepath.ToSlash(filepath.FromSlash("/elsewhere/b.go")), Line: 1, Col: 1, Message: "outside the module stays absolute"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round-trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

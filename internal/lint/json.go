package lint

import (
	"encoding/json"
	"io"
	"path/filepath"
	"strings"
)

// Machine-readable output: cmd/qalint -json renders one JSONDiagnostic
// per line (JSON Lines, trivially consumed by jq or a CI annotator).

// JSONDiagnostic is the machine-readable form of one finding. File is
// module-root-relative with forward slashes, so captures are portable
// across checkouts.
type JSONDiagnostic struct {
	Check   string `json:"check"`
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Message string `json:"message"`
}

// ToJSON converts a diagnostic, relativizing the filename to root when
// possible.
func ToJSON(d Diagnostic, root string) JSONDiagnostic {
	file := d.Pos.Filename
	if root != "" {
		if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = rel
		}
	}
	return JSONDiagnostic{
		Check:   d.Check,
		File:    filepath.ToSlash(file),
		Line:    d.Pos.Line,
		Col:     d.Pos.Column,
		Message: d.Message,
	}
}

// WriteJSON renders findings as JSON Lines.
func WriteJSON(w io.Writer, diags []Diagnostic, root string) error {
	enc := json.NewEncoder(w)
	for _, d := range diags {
		if err := enc.Encode(ToJSON(d, root)); err != nil {
			return err
		}
	}
	return nil
}

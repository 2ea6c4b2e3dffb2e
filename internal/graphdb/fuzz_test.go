package graphdb

import (
	"testing"
)

// FuzzParse: arbitrary text must never panic the database parser, Parse must
// agree with the line-by-line reference on it (error text or database), and a
// successfully parsed database must round-trip through Format.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"alphabet a b\nu a v\nv b w",
		"alphabet a\nvertex x\nx a x",
		"# only comments\nalphabet s",
		"alphabet a b c\nu a v\nu b v\nu c v\nv a u",
		"alphabet a\r\n\tvertex\u00a0vertex\r\nu\u2003a\tu\nu a u\n# u b u\nalphabet a alphabet",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		checkParse(t, src)
		db, err := ParseString(src)
		if err != nil {
			return
		}
		back, err := ParseString(db.FormatString())
		if err != nil {
			t.Fatalf("round trip failed: %v\nfirst parse of %q gave:\n%s", err, src, db.FormatString())
		}
		if back.NumVertices() != db.NumVertices() || back.NumEdges() != db.NumEdges() {
			t.Fatalf("round trip changed size: %d/%d vs %d/%d",
				back.NumVertices(), back.NumEdges(), db.NumVertices(), db.NumEdges())
		}
	})
}

package lint

import (
	"go/parser"
	"go/token"
	"testing"
)

func TestDirectiveLines(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fixture.go", `package p

func a() {
	//ecrpq:bounded queue only shrinks
	for {
	}
}
`, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	lines := DirectiveLines(fset, f, "bounded")
	if !lines[4] || !lines[5] {
		t.Errorf("DirectiveLines must cover the comment line and the next; got %v", lines)
	}
	if lines[6] {
		t.Error("DirectiveLines must not reach two lines below the comment")
	}
	if other := DirectiveLines(fset, f, "charged"); len(other) != 0 {
		t.Errorf("unrelated directive lookup must be empty, got %v", other)
	}
}

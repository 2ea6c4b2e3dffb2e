package core

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ecrpq/internal/graphdb"
)

var update = flag.Bool("update", false, "rewrite testdata/generic_golden.json from the current engine")

// genericGoldenRow is one Generic evaluation: the decision, the witness and
// the counts of the search's work. A path is written as its start vertex
// followed by one "label>to" step per edge.
type genericGoldenRow struct {
	Instance        string            `json:"instance"`
	Hints           int               `json:"hints"`
	Sat             bool              `json:"sat"`
	Nodes           map[string]int    `json:"nodes,omitempty"`
	Paths           map[string]string `json:"paths,omitempty"`
	ProductChecks   int               `json:"product_checks"`
	NodeAssignments int               `json:"node_assignments"`
	Traversals      int               `json:"traversals"`
	ProductStates   int               `json:"product_states"`
}

func goldenPath(p graphdb.Path) string {
	var b strings.Builder
	fmt.Fprint(&b, p.Start)
	for _, e := range p.Edges {
		fmt.Fprintf(&b, " %d>%d", e.Label, e.To)
	}
	return b.String()
}

// TestGenericGolden pins every Generic evaluation of the differential
// matrix — each genericInstances instance under the four hint settings of
// TestGenericDifferential — to testdata/generic_golden.json: the decision,
// the node assignment and paths of the witness, and the four work counters.
// A change to how the search walks its guesses shows up as a diff of that
// file. Regenerate with -update only when the change is meant to move them.
func TestGenericGolden(t *testing.T) {
	ctx := context.Background()
	var rows []genericGoldenRow
	for _, in := range genericInstances(t, rand.New(rand.NewSource(20220614))) {
		p, err := Prepare(in.q, Options{Strategy: Generic})
		if err != nil {
			t.Fatalf("%s: Prepare: %v", in.name, err)
		}
		reversed := make([]int, len(p.comps))
		for i := range reversed {
			reversed[i] = len(reversed) - 1 - i
		}
		for hi, hints := range []*PlanHints{
			nil,
			{ComponentOrder: reversed},
			{Candidates: p.PushdownCandidates(in.db)},
			{ComponentOrder: reversed, Candidates: p.PushdownCandidates(in.db)},
		} {
			res, err := p.EvaluateContextHinted(ctx, in.db, nil, hints)
			if err != nil {
				t.Fatalf("%s hints=%d: %v", in.name, hi, err)
			}
			row := genericGoldenRow{
				Instance: in.name, Hints: hi, Sat: res.Sat, Nodes: res.Nodes,
				ProductChecks: res.Stats.ProductChecks, NodeAssignments: res.Stats.NodeAssignments,
				Traversals: res.Stats.Traversals, ProductStates: res.Stats.ProductStates,
			}
			if res.Sat {
				row.Paths = make(map[string]string, len(res.Paths))
				for v, path := range res.Paths {
					row.Paths[v] = goldenPath(path)
				}
			}
			rows = append(rows, row)
		}
	}
	var buf bytes.Buffer
	buf.WriteString("[\n")
	for i, row := range rows {
		js, err := json.Marshal(row)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(js)
		if i < len(rows)-1 {
			buf.WriteByte(',')
		}
		buf.WriteByte('\n')
	}
	buf.WriteString("]\n")
	path := filepath.Join("testdata", "generic_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		got := strings.Split(buf.String(), "\n")
		for i, line := range strings.Split(string(want), "\n") {
			if i >= len(got) || got[i] != line {
				other := "(missing)"
				if i < len(got) {
					other = got[i]
				}
				t.Fatalf("%s differs at line %d:\n got  %s\n want %s", path, i+1, other, line)
			}
		}
		t.Fatalf("%s: %d rows now, the file has fewer", path, len(rows))
	}
}

// genericGoldenDecisions is the FNV-64a digest of testdata/generic_golden.json
// read as decisions only: every row with its four work counters zeroed, so
// its instance, hints, sat, nodes and paths. It was taken from the file as
// it stood when the goal was tested at the pop and an empty merged relation
// was searched, and it still holds: those two changes moved only counters.
const genericGoldenDecisions = "2168 rows, 6e69effd87add2c9"

// TestGenericGoldenDecisions keeps the golden file's decisions and witnesses
// where they were, whatever an -update does to the work counters.
func TestGenericGoldenDecisions(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "generic_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rows []genericGoldenRow
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for _, row := range rows {
		row.ProductChecks, row.NodeAssignments, row.Traversals, row.ProductStates = 0, 0, 0, 0
		js, err := json.Marshal(row)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(js)
	}
	if got := fmt.Sprintf("%d rows, %016x", len(rows), h.Sum64()); got != genericGoldenDecisions {
		t.Fatalf("the golden file's decisions moved: %s, want %s", got, genericGoldenDecisions)
	}
}

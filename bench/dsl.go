package main

import (
	"fmt"
	"strings"
)

// The benchmark sends query text, so it needs the internal/workload
// families as DSL. query.Query.String() is a display form the parser does
// not accept and the repo has no formatter, so the families are restated
// here as templates that render to the DSL of internal/query; dsl_test.go
// holds them to the workload builders' measures and answers.

// reach is one reachability atom. With regex set it renders as the CRPQ
// sugar `src -[regex]-> dst` (the parser invents the path variable);
// otherwise as `src -[$path]-> dst`.
type reach struct {
	src, path, dst string
	regex          string
}

// lang is a `lang path regex` constraint on a named path variable.
type lang struct{ path, regex string }

// rel is a built-in relation atom `rel name(paths...)`.
type rel struct {
	name  string
	paths []string
}

// template is one query shape. Its variable names are a base; render
// appends a suffix to every node and path variable, which changes
// query.Hash (canonicalisation is syntactic) without changing measures,
// satisfiability or answers.
type template struct {
	name  string
	free  []string
	reach []reach
	langs []lang
	rels  []rel
}

const alphabetLine = "alphabet a b\n"

// render emits the template as DSL text with suffix appended to every
// variable name. The empty suffix gives the base text.
func (t *template) render(suffix string) string {
	var sb strings.Builder
	sb.WriteString(alphabetLine)
	if len(t.free) > 0 {
		sb.WriteString("free")
		for _, f := range t.free {
			sb.WriteByte(' ')
			sb.WriteString(f)
			sb.WriteString(suffix)
		}
		sb.WriteByte('\n')
	}
	for _, r := range t.reach {
		if r.regex != "" {
			fmt.Fprintf(&sb, "%s%s -[%s]-> %s%s\n", r.src, suffix, r.regex, r.dst, suffix)
		} else {
			fmt.Fprintf(&sb, "%s%s -[$%s%s]-> %s%s\n", r.src, suffix, r.path, suffix, r.dst, suffix)
		}
	}
	for _, l := range t.langs {
		fmt.Fprintf(&sb, "lang %s%s %s\n", l.path, suffix, l.regex)
	}
	for _, r := range t.rels {
		sb.WriteString("rel ")
		sb.WriteString(r.name)
		sb.WriteByte('(')
		for i, p := range r.paths {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(p)
			sb.WriteString(suffix)
		}
		sb.WriteString(")\n")
	}
	return sb.String()
}

// withFree returns a copy of t that exports the given node variables.
func (t *template) withFree(vars ...string) *template {
	c := *t
	c.name = t.name + "/free"
	c.free = vars
	return &c
}

func nodeName(i int) string { return fmt.Sprintf("x%d", i) }
func pathName(i int) string { return fmt.Sprintf("p%d", i) }

// pairChain is workload.PairChainQuery with the pair relation as a
// parameter: x0 -p1-> x1 ... -pk-> xk with relName(p1,p2), relName(p3,p4)…
// cc_vertex = 2, treewidth ≤ 2: the Thm 3.2(3) regime.
func pairChain(k int, relName string) *template {
	t := &template{name: fmt.Sprintf("pairchain-k%d-%s", k, relName)}
	for i := 1; i <= k; i++ {
		t.reach = append(t.reach, reach{src: nodeName(i - 1), path: pathName(i), dst: nodeName(i)})
	}
	for i := 1; i+1 <= k; i += 2 {
		t.rels = append(t.rels, rel{relName, []string{pathName(i), pathName(i + 1)}})
	}
	return t
}

// clique is workload.CliqueQuery: a k-clique of single edges labelled a.
func clique(k int) *template {
	t := &template{name: fmt.Sprintf("clique-k%d", k)}
	for i := 1; i <= k; i++ {
		for j := i + 1; j <= k; j++ {
			t.reach = append(t.reach, reach{src: nodeName(i), dst: nodeName(j), regex: "a"})
		}
	}
	return t
}

// fan is workload.FanQuery with the k-ary relation as a parameter and
// optional per-track language constraints (langs[i] constrains p(i+1);
// "" leaves a track free): k parallel paths x → y in one component.
func fan(k int, relName string, langs ...string) *template {
	t := &template{name: fmt.Sprintf("fan-k%d-%s", k, relName)}
	var paths []string
	for i := 1; i <= k; i++ {
		paths = append(paths, pathName(i))
		t.reach = append(t.reach, reach{src: "x", path: pathName(i), dst: "y"})
	}
	for i, re := range langs {
		if re != "" {
			t.langs = append(t.langs, lang{pathName(i + 1), re})
			t.name += "-" + re
		}
	}
	t.rels = append(t.rels, rel{relName, paths})
	return t
}

// binChain is workload.EqChainQuery with the binary relation as a
// parameter: k parallel paths x → y chained by relName(p_i, p_{i+1}).
func binChain(k int, relName string, langs ...string) *template {
	t := fan(k, relName, langs...)
	t.name = strings.Replace(t.name, "fan-", "chain-", 1)
	t.rels = nil
	for i := 1; i < k; i++ {
		t.rels = append(t.rels, rel{relName, []string{pathName(i), pathName(i + 1)}})
	}
	return t
}

// crpqPath is workload.CRPQPathQuery with the edge languages as a
// parameter: a chain x0 → x1 → … of regex edges, one per entry.
func crpqPath(regexes ...string) *template {
	t := &template{name: "crpq-" + strings.Join(regexes, ",")}
	for i, re := range regexes {
		t.reach = append(t.reach, reach{src: nodeName(i), dst: nodeName(i + 1), regex: re})
	}
	return t
}

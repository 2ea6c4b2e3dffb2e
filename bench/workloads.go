package main

import (
	"fmt"
	"sort"

	"ecrpq/internal/invariant"
)

// workload is one traffic mix: its databases, its request classes and the
// server settings that differ from the daemon's flag defaults.
type workload struct {
	name    string
	dbs     []*builtDB
	classes []class

	cacheBudget int64  // 0 = daemon default (256 MiB)
	persist     bool   // attach a persist store on a temp dir
	wantCache   string // "hit"/"miss": asserted on every Boolean response; "" = any
	warmPairs   bool   // set-up sends every pair once before the warm-up ops
	warmOps     int    // set-up replays this many ops of the warm-up stream
}

var workloadNames = []string{"hot-cache", "cold-sweep", "generic-search", "mixed-rw"}

// dbTable is the static database table; see dbSpec for why the structure
// seeds are fixed.
var dbTable = map[string]dbSpec{
	"v8":    {"v8", 8, 108},
	"v10":   {"v10", 10, 110},
	"v12":   {"v12", 12, 12},
	"v14":   {"v14", 14, 14},
	"v16":   {"v16", 16, 16},
	"v18":   {"v18", 18, 18},
	"v40":   {"v40", 40, 40},
	"v100":  {"v100", 100, 100},
	"v500":  {"v500", 500, 500},
	"v2000": {"v2000", 2000, 2000},
}

// builder accumulates a workload and the databases it touches.
type builder struct {
	w   *workload
	dbs map[string]*builtDB
	err error
}

func (b *builder) db(name string) *builtDB {
	if d, ok := b.dbs[name]; ok {
		return d
	}
	spec, ok := dbTable[name]
	invariant.Assert(ok, "bench: a workload table names a database that dbTable lacks: "+name)
	d, err := buildDB(spec)
	if err != nil && b.err == nil {
		b.err = err
	}
	b.dbs[name] = d
	return d
}

// rows crosses templates with databases into pairs, giving each pair the
// variant suffix "_<tag><n>" so equal templates on one database stay
// distinct cache keys.
func (b *builder) rows(strategy, tag string, ts []*template, dbNames ...string) []*pair {
	var out []*pair
	for _, dn := range dbNames {
		for i, t := range ts {
			out = append(out, &pair{t: t, db: b.db(dn), strategy: strategy, variant: fmt.Sprintf("_%s_%d", tag, i)})
		}
	}
	return out
}

// finish fixes the request bytes of the classes that do not rename per op
// and lists the databases by size.
func (b *builder) finish() (*workload, error) {
	if b.err != nil {
		return nil, b.err
	}
	for ci := range b.w.classes {
		c := &b.w.classes[ci]
		if c.unique {
			continue
		}
		for _, p := range c.pairs {
			p.text, p.body = p.request(c.kind, p.variant)
		}
	}
	for _, d := range b.dbs {
		b.w.dbs = append(b.w.dbs, d)
	}
	sort.Slice(b.w.dbs, func(i, j int) bool { return b.w.dbs[i].v < b.w.dbs[j].v })
	return b.w, nil
}

func buildWorkload(name string) (*workload, error) {
	b := &builder{w: &workload{name: name}, dbs: map[string]*builtDB{}}
	switch name {
	case "hot-cache":
		hotCache(b)
	case "cold-sweep":
		coldSweep(b)
	case "generic-search":
		genericSearch(b)
	case "mixed-rw":
		mixedRW(b)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	return b.finish()
}

// hotCache: the steady-state serving path. Every pair is warmed in set-up,
// so each measured op is a plan and materialisation hit. 70 % thin ops
// (KB-sized materialisations; most of an op is HTTP, parse, hash, cache
// probes and JSON) carry latency_p50_ms; 30 % join-heavy ops (1–4 MiB
// materialisations; almost all of an op is the cq join) carry
// latency_p95_ms and throughput. The working set is 6 entries above 1 MiB
// and under 20 MiB in all, so nothing can be evicted or rejected whatever
// the per-process maphash seed does to shard placement.
func hotCache(b *builder) {
	b.w.wantCache = "hit"
	b.w.warmPairs = true
	b.w.warmOps = 1500
	join := []*template{
		pairChain(2, "eqlen"), pairChain(2, "hamming<=1"), pairChain(2, "eq"),
		pairChain(4, "eqlen"), pairChain(4, "hamming<=1"), pairChain(4, "eq"),
	}
	b.w.classes = []class{
		{name: "thin", kind: kindBool, share: 14, pairs: b.rows("", "t", thinTemplates(), "v12", "v14", "v16")},
		{name: "join", kind: kindBool, share: 6, pairs: b.rows("", "j", join, "v12")},
	}
}

// coldSweep: the Thm 3.2(3) regime with the reduction strategy pinned and
// every request renamed, so each op is Prepare + the Lemma 4.3 sweep +
// evaluate. The plan cache only takes puts and evictions.
func coldSweep(b *builder) {
	b.w.wantCache = "miss"
	b.w.warmOps = 40
	var k2, fan2 []*template
	for _, r := range sweepRels {
		k2 = append(k2, pairChain(2, r))
		fan2 = append(fan2, fan(2, r))
	}
	// One op in ten is heavy and costs several times a light one even when
	// the light one shares the cores with another sweep, so latency_p95_ms
	// is the heavy class's median, where its latencies are densest, and
	// not a point in either class's tail. The heavy op opens every block:
	// two heavy ops at once take half as long again as one beside light
	// ops, and with shuffled slots the share of such pairs, and with it the
	// class median, moved by 15 % from seed to seed.
	b.w.classes = []class{
		{name: "light", kind: kindBool, share: 9, unique: true, pairs: b.rows("reduction", "l", append(k2, fan2...), "v12", "v14")},
		{name: "heavy", kind: kindBool, share: 1, unique: true, first: true, pairs: b.rows("reduction", "h", k2, "v18")},
	}
}

// genericSearch: the large-cc_vertex regime with the generic strategy
// pinned: Lemma 4.1/4.2 merge and product search, no materialisation.
// About half the ops are satisfiable; the unsatisfiable ones are
// exhaustive, so each template is only placed on the sizes it stays
// bounded on (unsatisfiable edit<=1 only at V = 16, unsatisfiable 3-track
// eq up to V = 100, and so on).
func genericSearch(b *builder) {
	b.w.wantCache = "miss"
	b.w.warmOps = 60
	g := func(ts []*template, dbs ...string) []*pair { return b.rows("generic", "g", ts, dbs...) }
	var light, heavy []*pair
	light = append(light, g([]*template{gFanEq2Unsat, gFanEq3Unsat, gFanEq3Sat, gFanEqlen2Unsat, gFanEqlen3Unsat, gHamming2Sat, gEdit1Unsat, gHamming3Sat, gEdit2Sat}, "v16")...)
	light = append(light, g([]*template{gFanEq2Unsat, gFanEq3Unsat, gHamming2Sat, gHamming3Sat, gPrefix3Sat}, "v40")...)
	light = append(light, g([]*template{gHamming2Sat}, "v100")...)
	// The heavy class is one exhaustive search, the Lemma 5.1 shape at its
	// largest size: one op in ten, so latency_p95_ms is that template's
	// median latency. Its cost does not depend on the order Go's maps hand
	// states out in, which moves a satisfiable search by a third from one
	// run to the next. As in cold-sweep it opens every block, so that two
	// never run at once.
	heavy = g([]*template{gFanEq3Unsat}, "v100")
	b.w.classes = []class{
		{name: "light", kind: kindBool, share: 9, unique: true, pairs: light},
		{name: "heavy", kind: kindBool, share: 1, unique: true, first: true, pairs: heavy},
	}
}

// interleave merges lists round-robin, so that Zipf ranks mix the families.
func interleave(lists ...[]*pair) []*pair {
	var out []*pair
	for i := 0; ; i++ {
		took := false
		for _, l := range lists {
			if i < len(l) {
				out = append(out, l[i])
				took = true
			}
		}
		if !took {
			return out
		}
	}
}

// mixedRW: the ROADMAP "mixed regimes" traffic with writes beside reads,
// and the one workload larger than the program's own cache: default auto
// strategy, a persist store on a temp dir (journal fsync as shipped), and a
// 16 MiB cache (1 MiB shards) under a few hundred Zipf-ranked rows whose
// materialisations run from KBs to just under half a shard and total about four times the budget.
//
// The table is static, by family × V, never chosen by timing the code
// under test: sweep-bound templates only on V ≤ 10, CRPQ chains up to
// V = 40 (chains of ≤ 3 edges up to V = 100: all-pairs reach tables grow
// as V²), real product searches only on V ≤ 40, and on the two largest
// databases — the ones re-registered — only unconstrained fans and prefix
// chains, whose product search ends at its first assignment, so what they
// pay after every generation bump is the planner, not a sweep.
func mixedRW(b *builder) {
	b.w.persist = true
	b.w.cacheBudget = 16 << 20
	b.w.warmOps = 1000
	var sweep []*template
	for _, r := range sweepRels {
		sweep = append(sweep, pairChain(2, r), pairChain(4, r), fan(2, r))
	}
	var sweepRows, thin, shallow []*pair
	for v := 0; v < 8; v++ {
		sweepRows = append(sweepRows, b.rows("", fmt.Sprintf("s%d", v), sweep, "v8", "v10")...)
	}
	for v := 0; v < 2; v++ {
		thin = append(thin, b.rows("", fmt.Sprintf("c%d", v), thinTemplates(), "v12", "v16", "v40")...)
	}
	short := []*template{crpqPath("a*", "b*"), crpqPath("a(a|b)*", "(ab)*"), crpqPath("(a|b)*", "a*b*"),
		crpqPath("a*", "b*", "(a|b)*a"), crpqPath("a(a|b)*", "(ab)*", "b(a|b)*b"), clique(3)}
	for v := 0; v < 2; v++ {
		thin = append(thin, b.rows("", fmt.Sprintf("d%d", v), short, "v100")...)
	}
	first := []*template{fan(4, "eqlen"), fan(4, "eq"), fan(3, "eq"), binChain(4, "prefix")}
	for v := 0; v < 4; v++ {
		shallow = append(shallow, b.rows("", fmt.Sprintf("f%d", v), first, "v500", "v2000", "v100")...)
	}
	search := append(b.rows("", "g", []*template{gFanEq3Sat, gFanEq2Unsat, gFanEqlen2Unsat, gFanEq3Unsat}, "v16"),
		b.rows("", "g", []*template{gPrefix3Sat, gFanEq3Unsat}, "v40")...)
	free := []*template{
		crpqPath("a*", "b*").withFree("x0", "x2"),
		crpqPath("(a|b)*a", "a(a|b)*").withFree("x0", "x2"),
		crpqPath("a*b*").withFree("x0", "x1"),
		crpqPath("a*", "b*", "(a|b)*a").withFree("x0", "x3"),
	}
	b.w.classes = []class{
		{name: "bool", kind: kindBool, share: 78, zipf: true, pairs: interleave(thin, sweepRows, shallow, search)},
		{name: "answers", kind: kindAnswers, share: 8, pairs: b.rows("", "a", free, "v8", "v10", "v12")},
		{name: "enumerate", kind: kindEnumerate, share: 8, pairs: b.rows("", "e", free, "v8", "v10", "v12")},
		{name: "explain", kind: kindExplain, share: 1, pairs: b.rows("", "x", sweep, "v10", "v100")},
		{name: "register", kind: kindRegister, share: 5, writes: []*builtDB{b.db("v500"), b.db("v2000")}},
	}
}

package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"ecrpq/internal/invariant"
)

type opKind uint8

const (
	kindBool      opKind = iota // POST /v1/query, Boolean template
	kindAnswers                 // POST /v1/query, free-variable template (answer set, cache bypass)
	kindEnumerate               // POST /v1/enumerate, limit enumLimit, cursor followed for up to enumPages pages
	kindExplain                 // POST /v1/explain
	kindRegister                // POST /v1/dbs/{name}, same graph with shuffled edge lines
)

const (
	timeoutMs  = 10000
	enumLimit  = 50
	enumPages  = 3
	zipfS      = 1.1
	sampleRate = 100 // one satisfiable Boolean response in sampleRate is kept for core.VerifyWitness
)

// class is one request class of a workload's mix. Classes are laid out in
// fixed-size blocks (share ops of each class per block, slot order shuffled
// by the seed), so every prefix of the stream has the same class
// proportions whatever the seed; that keeps latency_p50_ms and
// latency_p95_ms inside the class they are meant to sit in.
type class struct {
	name   string
	kind   opKind
	share  int
	pairs  []*pair
	unique bool       // fresh renaming per op: a cache miss by construction
	first  bool       // its ops take the first slots of every block instead of shuffled ones
	zipf   bool       // pairs drawn by Zipf(zipfS) rank instead of in rotation
	writes []*builtDB // kindRegister only
}

// op is one request of a stream.
type op struct {
	kind  opKind
	class int
	p     *pair    // nil for kindRegister
	db    *builtDB // target database
	text  string   // query text as sent (empty for kindRegister)
	body  []byte   // HTTP request body
}

// queryBody is the JSON body of /v1/query, /v1/enumerate and /v1/explain.
type queryBody struct {
	DB        string `json:"db"`
	Query     string `json:"query"`
	Strategy  string `json:"strategy,omitempty"`
	Limit     int    `json:"limit,omitempty"`
	Cursor    string `json:"cursor,omitempty"`
	TimeoutMs int64  `json:"timeout_ms"`
}

// marshalBody encodes a request body; a struct of strings and ints always
// marshals.
func marshalBody(b queryBody) []byte { return invariant.Must(json.Marshal(b)) }

func (p *pair) request(kind opKind, suffix string) (text string, body []byte) {
	text = p.t.render(suffix)
	b := queryBody{DB: p.db.name, Query: text, Strategy: p.strategy, TimeoutMs: timeoutMs}
	if kind == kindEnumerate {
		b.Limit = enumLimit
	}
	return text, marshalBody(b)
}

// stream is a workload's request sequence for one seed: a pure function of
// (workload, seed, tag, index), generated a block at a time on demand.
type stream struct {
	w     *workload
	seed  int64
	tag   byte    // namespace of unique renamings: 'w' warm-up, 'm' measured
	perms [][]int // per class: the seed's rotation order over its pairs
	size  int     // ops per block

	mu     sync.Mutex
	blocks map[int][]op // the two most recent blocks; older ones are regenerated on demand
}

func newStream(w *workload, seed int64, tag byte) *stream {
	s := &stream{w: w, seed: seed, tag: tag, blocks: map[int][]op{}}
	rng := rand.New(rand.NewSource(seed))
	for _, c := range w.classes {
		s.perms = append(s.perms, rng.Perm(len(c.pairs)))
		s.size += c.share
	}
	return s
}

// at returns op i. Clients move forward through the stream a few ops
// apart, so only the block in use and its predecessor are kept.
func (s *stream) at(i int) *op {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := i / s.size
	ops, ok := s.blocks[b]
	if !ok {
		ops = s.block(b)
		s.blocks[b] = ops
		for old := range s.blocks {
			if old < b-1 || old > b {
				delete(s.blocks, old)
			}
		}
	}
	return &ops[i%s.size]
}

func (s *stream) block(b int) []op {
	rng := rand.New(rand.NewSource(s.seed*1_000_003 + int64(b) + int64(s.tag)<<40))
	slots := make([]int, 0, s.size)
	for ci, c := range s.w.classes {
		for j := 0; j < c.share; j++ {
			slots = append(slots, ci)
		}
	}
	rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
	sort.SliceStable(slots, func(i, j int) bool { return s.w.classes[slots[i]].first && !s.w.classes[slots[j]].first })
	seen := make([]int, len(s.w.classes))
	zipfs := make([]*rand.Zipf, len(s.w.classes))
	ops := make([]op, 0, s.size)
	for slot, ci := range slots {
		c := &s.w.classes[ci]
		nth := b*c.share + seen[ci] // occurrence number of this class in the whole stream
		seen[ci]++
		o := op{kind: c.kind, class: ci}
		if c.kind == kindRegister {
			o.db = c.writes[nth%len(c.writes)]
			o.body = []byte(o.db.shuffledText(rng))
			ops = append(ops, o)
			continue
		}
		if c.zipf {
			if zipfs[ci] == nil {
				zipfs[ci] = rand.NewZipf(rng, zipfS, 1, uint64(len(c.pairs)-1))
			}
			o.p = c.pairs[zipfs[ci].Uint64()]
		} else {
			o.p = c.pairs[s.perms[ci][nth%len(c.pairs)]]
		}
		o.db = o.p.db
		if c.unique {
			o.text, o.body = o.p.request(c.kind, fmt.Sprintf("_%c%d", s.tag, b*s.size+slot))
		} else {
			o.text, o.body = o.p.text, o.p.body
		}
		ops = append(ops, o)
	}
	return ops
}

package core

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"ecrpq/internal/alphabet"
	"ecrpq/internal/faultinject"
	"ecrpq/internal/govern"
	"ecrpq/internal/graphdb"
	"ecrpq/internal/invariant"
)

// productShape is the packed layout of a component's product with a
// database (Lemma 4.2): one relation-automaton state per relation, one
// database vertex per track and the set of finished tracks, in one uint64:
//
//	[ relation-state combo | vertex per track | done bits ]
//
// It is read-only after packProduct and may be shared by concurrent
// kernels. It applies when the packing fits in 63 bits; callers fall back
// to productSearch otherwise.
type productShape struct {
	db    *graphdb.DB
	c     *component
	nfas  []*nfaView
	t     int
	vBits uint
	qBits uint
	bits  uint  // width of a packed state: qBits + t*vBits + t
	radix []int // relation NFA sizes for mixed-radix state packing
	nsym  int
	adj   [][]int32 // adj[v*nsym+sym] = successors of v along sym-edges
}

// packProduct lays out the packed product state of c over db and decodes
// the relation automata. adj is the database's adjacency table
// (buildAdjacency), built here when nil. It returns nil when the state does
// not pack into 63 bits.
func packProduct(db *graphdb.DB, c *component, adj [][]int32) *productShape {
	t := len(c.tracks)
	if t == 0 || t > 16 {
		return nil
	}
	nfas := make([]*nfaView, len(c.rels))
	qCombos := 1
	radix := make([]int, len(c.rels))
	for i, r := range c.rels {
		nfas[i] = newNFAView(r)
		n := r.RawNFA().NumStates()
		if n == 0 {
			n = 1
		}
		radix[i] = n
		if qCombos > (1<<30)/n {
			return nil
		}
		qCombos *= n
	}
	vBits := uint(bits.Len(uint(maxInt(db.NumVertices()-1, 1))))
	qBits := uint(bits.Len(uint(qCombos - 1)))
	if qBits == 0 {
		qBits = 1
	}
	total := qBits + uint(t)*vBits + uint(t)
	if total > 63 {
		return nil
	}
	nsym := db.Alphabet().Size()
	if adj == nil {
		adj = buildAdjacency(db, nsym)
	}
	return &productShape{
		db: db, c: c, nfas: nfas, t: t,
		vBits: vBits, qBits: qBits, bits: total, radix: radix,
		nsym: nsym, adj: adj,
	}
}

// adjacencyBytes is the retained size of an adjacency table.
func adjacencyBytes(adj [][]int32) int64 {
	n := int64(24 * len(adj)) // slice headers
	for _, succs := range adj {
		n += int64(4 * cap(succs))
	}
	return n
}

// buildAdjacency flattens the database's labelled out-edges into the
// vertex-major symbol-indexed table used by expand. The successor lists are
// cut back to back from one array (a counting pass sizes them), so the
// table costs two allocations whatever the database.
//
//ecrpq:bounds-checked
//ecrpq:charged adjacency bytes (adjacencyBytes) are charged by the owner: the fastProduct's one-time fixed-cost Grow, or buildReductionMerged for the table its sweeps share
func buildAdjacency(db *graphdb.DB, nsym int) [][]int32 {
	adj := make([][]int32, db.NumVertices()*nsym)
	end := make([]int, len(adj)+1) // end[i+1]: one past list i in flat, after the prefix sum
	edges := 0
	for v := 0; v < db.NumVertices(); v++ {
		for _, e := range db.Out(v) {
			idx := v*nsym + int(e.Label)
			invariant.Assert(idx >= 0 && idx < len(adj), "core: edge label outside the database alphabet")
			end[idx+1]++
			edges++
		}
	}
	flat := make([]int32, edges)
	for i := range adj {
		end[i+1] += end[i]
		adj[i] = flat[end[i]:end[i]:end[i+1]]
	}
	for v := 0; v < db.NumVertices(); v++ {
		for _, e := range db.Out(v) {
			idx := v*nsym + int(e.Label)
			adj[idx] = append(adj[idx], int32(e.To))
		}
	}
	return adj
}

// adjAt returns the successors of vertex v along s-labelled edges.
//
//ecrpq:bounds-checked
func (f *productShape) adjAt(v int, s alphabet.Symbol) []int32 {
	idx := v*f.nsym + int(s)
	invariant.Assert(idx >= 0 && idx < len(f.adj), "core: adjacency access outside the packed table")
	return f.adj[idx]
}

func (f *productShape) pack(relStates []int, verts []int, done uint64) uint64 {
	q := 0
	for i := len(relStates) - 1; i >= 0; i-- {
		q = q*f.radix[i] + relStates[i]
	}
	key := uint64(q)
	shift := f.qBits
	for _, v := range verts {
		key |= uint64(v) << shift
		shift += f.vBits
	}
	key |= done << shift
	return key
}

func (f *productShape) unpack(key uint64, relStates []int, verts []int) (done uint64) {
	q := int(key & (1<<f.qBits - 1))
	for i := range relStates {
		relStates[i] = q % f.radix[i]
		q /= f.radix[i]
	}
	shift := f.qBits
	mask := uint64(1)<<f.vBits - 1
	for i := range verts {
		verts[i] = int((key >> shift) & mask)
		shift += f.vBits
	}
	return key >> shift
}

// destKey packs a destination tuple so that ascending keys are the
// lexicographic order of the tuples (track 0 most significant).
func (f *productShape) destKey(verts []int) uint64 {
	key := uint64(0)
	for _, v := range verts {
		key = key<<f.vBits | uint64(v)
	}
	return key
}

// unpackDest inverts destKey into verts.
func (f *productShape) unpackDest(key uint64, verts []int) {
	mask := uint64(1)<<f.vBits - 1
	for i := len(verts) - 1; i >= 0; i-- {
		verts[i] = int(key & mask)
		key >>= f.vBits
	}
}

// productStep holds the registers of the product state being expanded and
// enumerates its successors: the nondeterministic step of Lemma 4.2 — guess
// a joint convolution letter consistent with every relation automaton
// (relations that have exhausted their words stall) and advance one
// database pointer per non-padded track along a matching edge. Both kernels
// embed it — the single-source traversal of fastProduct and the 64-source
// sweepKernel — and differ only in emit, which receives every successor as
// (nextRel, newVerts, newDone).
type productStep struct {
	*productShape
	relStates, nextRel []int
	verts, newVerts    []int
	joint              []alphabet.Symbol
	done, newDone      uint64
	emit               func()
}

func newProductStep(s *productShape) productStep {
	return productStep{
		productShape: s,
		relStates:    make([]int, len(s.nfas)),
		nextRel:      make([]int, len(s.nfas)),
		verts:        make([]int, s.t),
		newVerts:     make([]int, s.t),
		joint:        make([]alphabet.Symbol, s.t),
	}
}

// load makes key the state being expanded.
func (p *productStep) load(key uint64) {
	p.done = p.unpack(key, p.relStates, p.verts)
	for i := range p.joint {
		p.joint[i] = alphabet.Unset
	}
}

// seed emits every combination of relation start states over newVerts and
// newDone, which the caller has set.
func (p *productStep) seed(i int) {
	if i == len(p.nfas) {
		p.emit()
		return
	}
	for _, q := range p.nfas[i].starts {
		p.nextRel[i] = q
		p.seed(i + 1)
	}
}

// overRels extends the joint letter with one move (or the stall) of
// relation i; overRels(0) emits every successor of the loaded state.
func (p *productStep) overRels(i int) {
	if i == len(p.nfas) {
		p.expand()
		return
	}
	const unset = alphabet.Unset
	var touched [16]int
	for _, tr := range p.nfas[i].trans[p.relStates[i]] {
		ok := true
		nt := 0
		for j, s := range tr.tuple {
			mt := p.c.relTracks[i][j]
			if p.joint[mt] == unset {
				p.joint[mt] = s
				touched[nt] = mt
				nt++
			} else if p.joint[mt] != s {
				ok = false
				break
			}
		}
		if ok {
			p.nextRel[i] = tr.to
			p.overRels(i + 1)
		}
		for j := 0; j < nt; j++ {
			p.joint[touched[j]] = unset
		}
	}
	// Stall: this relation's tracks are all padded from here on.
	ok := true
	nt := 0
	for _, mt := range p.c.relTracks[i] {
		if p.joint[mt] == unset {
			p.joint[mt] = alphabet.Pad
			touched[nt] = mt
			nt++
		} else if p.joint[mt] != alphabet.Pad {
			ok = false
			break
		}
	}
	if ok {
		p.nextRel[i] = p.relStates[i]
		p.overRels(i + 1)
	}
	for j := 0; j < nt; j++ {
		p.joint[touched[j]] = unset
	}
}

// expand advances database pointers for a fully-determined joint letter.
func (p *productStep) expand() {
	allPad := true
	p.newDone = p.done
	for i, s := range p.joint {
		if s == alphabet.Pad {
			p.newDone |= 1 << uint(i)
		} else {
			allPad = false
			if p.done&(1<<uint(i)) != 0 {
				return
			}
		}
	}
	if allPad {
		return
	}
	copy(p.newVerts, p.verts)
	p.overTracks(0)
}

func (p *productStep) overTracks(i int) {
	if i == p.t {
		p.emit()
		return
	}
	if p.joint[i] == alphabet.Pad {
		p.overTracks(i + 1)
		return
	}
	for _, to := range p.adjAt(p.verts[i], p.joint[i]) {
		p.newVerts[i] = int(to)
		p.overTracks(i + 1)
	}
	p.newVerts[i] = p.verts[i]
}

// bitsetMaxBits bounds the key width up to which a keySet is a bitset
// (2^26 bits = 8 MiB); wider key spaces use a map.
const bitsetMaxBits = 26

// keySet is a set of packed keys of a known width. The owner keeps the
// list of members (it needs them in order anyway), so clearing costs what
// was added, never a pass over the table.
type keySet struct {
	bits []uint64
	m    map[uint64]struct{}
}

func newKeySet(width uint) keySet {
	if width <= bitsetMaxBits {
		return keySet{bits: make([]uint64, (uint64(1)<<width+63)/64)}
	}
	return keySet{m: make(map[uint64]struct{})}
}

func (s *keySet) has(key uint64) bool {
	if s.m == nil {
		return s.bits[key>>6]&(1<<(key&63)) != 0
	}
	_, ok := s.m[key]
	return ok
}

// add inserts key and reports whether it was new.
func (s *keySet) add(key uint64) bool {
	if s.m == nil {
		if s.bits[key>>6]&(1<<(key&63)) != 0 {
			return false
		}
		s.bits[key>>6] |= 1 << (key & 63)
		return true
	}
	if _, ok := s.m[key]; ok {
		return false
	}
	s.m[key] = struct{}{}
	return true
}

// clear empties the set, given exactly its members.
func (s *keySet) clear(members []uint64) {
	if s.m != nil {
		clear(s.m)
		return
	}
	for _, k := range members {
		s.bits[k>>6] &^= 1 << (k & 63)
	}
}

// fixedBytes is the footprint the set has whatever it holds; memberBytes
// what each member adds.
func (s *keySet) fixedBytes() int64 { return int64(8 * len(s.bits)) }

func (s *keySet) memberBytes() int64 {
	if s.m == nil {
		return 0
	}
	return fastStateMapBytes
}

// fastStateMapBytes estimates a map-regime set entry.
const fastStateMapBytes = 56

// cancelCheckInterval is how many product states are processed between
// context-cancellation polls. Polling ctx.Err() costs an atomic load, so
// the searches amortize it over a batch of states; the interval bounds
// cancellation latency to the time spent expanding that many states.
const cancelCheckInterval = 1024

// pollSearch is what every search loop checks once per cancelCheckInterval
// steps: cancellation, then the core.budget fault point.
func pollSearch(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := faultinject.Point("core.budget"); err != nil {
		return fmt.Errorf("core: product search aborted: %w", err)
	}
	return nil
}

// noDest is the destination key no tuple has (keys are at most 63 bits
// wide): seeking it runs a traversal to exhaustion.
const noDest = ^uint64(0)

// fastProduct is the single-source kernel over a packed product: one
// breadth-first traversal from a source tuple that can be suspended and
// resumed. begin seeds it; seek answers "is this destination tuple reached
// by satisfying paths" from the set of accepting destinations met so far,
// resuming the traversal only when the answer is not yet known and
// suspending it again as soon as it is. A traversal therefore never
// explores further than an early-stopping search for the hardest
// destination asked of it, and every other destination of the same sources
// is a set probe. reach keeps the live traversal across calls with the
// same sources (a one-entry memo); Run is the exhaustive traversal the
// streamed sweep collects destinations with; witness re-runs a traversal
// with parent links recorded and reads the paths off them.
//
// The scratch is reused across traversals and cleared from its own member
// lists. Not safe for concurrent use.
type fastProduct struct {
	productStep

	visited   keySet   // states met by the live traversal; its members are queue
	queue     []uint64 // breadth-first order; queue[:qi] have been expanded
	qi        int
	accepted  keySet   // destination keys of the accepting states popped so far; its members are dests
	dests     []uint64 // distinct, in the order met
	srcs      []int    // sources of the live traversal
	live      bool     // a traversal from srcs is suspended or exhausted, not failed
	maxStates int      // the live traversal's cap on distinct states (0 = unlimited)

	// Recording mode (witness): how each queue slot was first reached.
	record  bool
	parents []int             // queue index of the predecessor; -1 for a start state
	letters []alphabet.Symbol // the joint letter read into slot i is letters[i*t:(i+1)*t]

	traversals int // begins
	expanded   int // states whose successors were generated

	// Byte accounting against the context reservation: the adjacency table
	// and the sets' fixed footprint once, queue growth as a high-water
	// mark. The owner releases via releaseMem.
	mem      *govern.Meter
	charged  int64
	adjBytes int64
}

// newFastProduct returns nil when the state does not pack into 63 bits.
func newFastProduct(db *graphdb.DB, c *component) *fastProduct {
	s := packProduct(db, c, nil)
	if s == nil {
		return nil
	}
	f := &fastProduct{
		productStep: newProductStep(s),
		visited:     newKeySet(s.bits),
		accepted:    newKeySet(uint(s.t) * s.vBits),
		srcs:        make([]int, s.t),
		adjBytes:    adjacencyBytes(s.adj),
	}
	f.emit = f.push
	return f
}

// releaseMem closes the accounting scope: everything this fastProduct
// charged is released back to the reservation. Safe on nil receivers and
// without an attached meter; the scratch itself stays reusable.
func (f *fastProduct) releaseMem() {
	if f == nil {
		return
	}
	f.mem.Close()
	f.mem, f.charged = nil, 0
}

// charge lifts the charge to the kernel's current footprint.
func (f *fastProduct) charge() error {
	if f.mem == nil {
		return nil
	}
	perState := 8 + f.visited.memberBytes()
	if f.record {
		perState += 8 + int64(4*f.t)
	}
	need := f.adjBytes + f.visited.fixedBytes() + f.accepted.fixedBytes() +
		int64(len(f.queue))*perState + int64(len(f.dests))*(8+f.accepted.memberBytes())
	if need > f.charged {
		if err := f.mem.Grow(need - f.charged); err != nil {
			return fmt.Errorf("core: product search: %w", err)
		}
		f.charged = need
	}
	return nil
}

// begin abandons the live traversal and seeds a new one from srcs, capped
// at maxStates distinct states (0 = unlimited).
func (f *fastProduct) begin(ctx context.Context, srcs []int, maxStates int) error {
	f.live = false
	if f.mem == nil {
		f.mem = govern.MeterFrom(ctx)
	}
	f.visited.clear(f.queue)
	f.accepted.clear(f.dests)
	f.queue, f.dests = f.queue[:0], f.dests[:0]
	f.parents, f.letters = f.parents[:0], f.letters[:0]
	copy(f.srcs, srcs)
	f.maxStates = maxStates
	f.traversals++
	f.qi = -1 // what push records as the parent of a start state
	copy(f.newVerts, srcs)
	f.newDone = 0
	f.seed(0)
	f.qi = 0
	if err := f.charge(); err != nil {
		return err
	}
	f.live = true
	return nil
}

// push queues the successor (nextRel, newVerts, newDone) of queue[qi] on
// first sight.
func (f *fastProduct) push() {
	key := f.pack(f.nextRel, f.newVerts, f.newDone)
	if !f.visited.add(key) {
		return
	}
	f.queue = append(f.queue, key)
	if f.record {
		f.parents = append(f.parents, f.qi)
		f.letters = append(f.letters, f.joint...)
	}
}

// seek reports whether the live traversal reaches an accepting state over
// the destination tuple packed in want (destKey).
func (f *fastProduct) seek(ctx context.Context, want uint64) (bool, error) {
	if f.accepted.has(want) {
		return true, nil
	}
	return f.advance(ctx, want)
}

// advance resumes the live traversal until it pops an accepting state over
// want, leaving that state at the head of the queue (the next call reads it
// again, which changes nothing, and expands it), or until the queue is
// exhausted. It polls ctx and the core.budget fault point every
// cancelCheckInterval states and fails once more than maxStates distinct
// states have been met; a failed traversal is not resumable.
func (f *fastProduct) advance(ctx context.Context, want uint64) (bool, error) {
	for ; f.qi < len(f.queue); f.qi++ {
		if f.qi%cancelCheckInterval == 0 {
			err := pollSearch(ctx)
			if err == nil {
				err = f.charge()
			}
			if err != nil {
				f.live = false
				return false, err
			}
		}
		f.load(f.queue[f.qi])
		if acceptState(f.nfas, f.relStates) {
			d := f.destKey(f.verts)
			if f.accepted.add(d) {
				f.dests = append(f.dests, d)
			}
			if d == want {
				return true, nil
			}
		}
		if f.maxStates > 0 && len(f.queue) > f.maxStates {
			f.live = false
			return false, fmt.Errorf("core: product exceeded the state budget of %d", f.maxStates)
		}
		f.expanded++
		f.overRels(0)
	}
	return false, nil
}

// reach decides whether satisfying paths lead from srcs to dsts. Calls
// with the sources of the live traversal resume it; any other sources
// begin a new one, so a caller that varies destinations under fixed sources
// pays one traversal for all of them.
func (f *fastProduct) reach(ctx context.Context, srcs, dsts []int, maxStates int) (bool, error) {
	if !f.live || !slices.Equal(f.srcs, srcs) {
		if err := f.begin(ctx, srcs, maxStates); err != nil {
			return false, err
		}
	}
	return f.seek(ctx, f.destKey(dsts))
}

// Run traverses everything reachable from srcs and leaves in f.dests the
// distinct destination keys of the accepting states.
func (f *fastProduct) Run(ctx context.Context, srcs []int, maxStates int) error {
	if err := f.begin(ctx, srcs, maxStates); err != nil {
		return err
	}
	_, err := f.advance(ctx, noDest)
	return err
}

// witness is reach with the paths: it runs a fresh traversal from srcs with
// parent links recorded, as far as the first accepting state over dsts, and
// reads one database path per track off the links.
func (f *fastProduct) witness(ctx context.Context, srcs, dsts []int, maxStates int) ([]graphdb.Path, bool, error) {
	f.record = true
	defer func() { f.record, f.live = false, false }() // a recorded traversal is never resumed
	if err := f.begin(ctx, srcs, maxStates); err != nil {
		return nil, false, err
	}
	found, err := f.advance(ctx, f.destKey(dsts))
	if err != nil || !found {
		return nil, false, err
	}
	var chain []int
	for i := f.qi; f.parents[i] >= 0; i = f.parents[i] {
		chain = append(chain, i)
	}
	paths := make([]graphdb.Path, f.t)
	for i := range paths {
		paths[i].Start = srcs[i]
	}
	for k := len(chain) - 1; k >= 0; k-- {
		slot := chain[k]
		f.unpack(f.queue[slot], f.relStates, f.verts)
		for i, s := range f.letters[slot*f.t : (slot+1)*f.t] {
			if s != alphabet.Pad {
				paths[i].Edges = append(paths[i].Edges, graphdb.Edge{Label: s, To: f.verts[i]})
			}
		}
	}
	return paths, true, nil
}

// denseTableBits bounds the key width up to which a wordTable is a dense
// array indexed by key (2^20 slots); wider key spaces use a map.
const denseTableBits = 20

// wordTable maps packed uint64 keys to slots of stride words, all zero
// until written. It is the per-state table of the sweep kernel (stride 2:
// the sources that reach a product state, and those not yet propagated
// from it) and the per-destination table the rows are emitted from (stride
// 1). keys lists the distinct keys touched since the last reset, so
// clearing costs what was touched, never a pass over the table.
type wordTable struct {
	stride int
	words  []uint64       // dense regime: slot of key k starts at k*stride
	slots  map[uint64]int // map regime: key → start of its slot in words
	keys   []uint64
}

//ecrpq:charged the owner charges bytes() to its scratch meter before the first traversal
func newWordTable(keyBits uint, stride int) *wordTable {
	t := &wordTable{stride: stride}
	if keyBits <= denseTableBits {
		t.words = make([]uint64, stride<<keyBits)
	} else {
		t.slots = make(map[uint64]int)
	}
	return t
}

// at returns key's slot, claiming a zeroed one on first use in the map
// regime. The slice is valid until the next at or or call.
//
//ecrpq:charged slot growth in the map regime is charged by the owner as the table's bytes() high-water mark
func (t *wordTable) at(key uint64) []uint64 {
	if t.slots == nil {
		i := int(key) * t.stride
		return t.words[i : i+t.stride]
	}
	i, ok := t.slots[key]
	if !ok {
		i = len(t.words)
		t.slots[key] = i
		for j := 0; j < t.stride; j++ {
			t.words = append(t.words, 0)
		}
	}
	return t.words[i : i+t.stride]
}

// or ORs bits (non-zero) into the first word of key's slot, recording the
// key on first touch. It returns the slot and the bits that were new.
func (t *wordTable) or(key, bits uint64) (slot []uint64, fresh uint64) {
	slot = t.at(key)
	if slot[0] == 0 {
		t.keys = append(t.keys, key)
	}
	fresh = bits &^ slot[0]
	slot[0] |= fresh
	return slot, fresh
}

// reset zeroes every touched slot.
func (t *wordTable) reset() {
	if t.slots == nil {
		for _, key := range t.keys {
			clear(t.at(key))
		}
	} else {
		clear(t.slots)
		t.words = t.words[:0]
	}
	t.keys = t.keys[:0]
}

// bytes is the table's current footprint.
func (t *wordTable) bytes() int64 {
	return int64(8*(cap(t.words)+cap(t.keys))) + int64(fastStateMapBytes*len(t.slots))
}

// errStateBudget reports a sweep traversal that met more distinct product
// states than its budget; sweepWorker.batch splits the batch and retries.
var errStateBudget = errors.New("core: product exceeded the state budget")

// sweepKernel is one worker's scratch for the batched Lemma 4.3 sweep: a
// traversal of the packed product graph that carries up to 64 source
// tuples at once. Every state holds one word of "which sources of this
// batch reach me" and one of "which of those I have not propagated yet";
// a state is (re-)expanded only for the latter, so the searches of a batch
// share every state they have in common. The product shape is shared and
// read-only; everything else belongs to this kernel.
type sweepKernel struct {
	productStep
	states *wordTable // per packed state: [reached, pending]
	dests  *wordTable // per packed destination tuple: sources that reach it
	queue  []uint64   // states with pending sources, FIFO; a state re-enters when new sources arrive
	delta  uint64     // sources being propagated

	// Scratch accounting: the tables and the queue are charged as a
	// high-water mark and released by the owner closing mem.
	mem     *govern.Meter
	charged int64
}

// newSweepKernel allocates a kernel over the shared product shape and
// charges its tables to mem.
func newSweepKernel(s *productShape, mem *govern.Meter) (*sweepKernel, error) {
	k := &sweepKernel{
		productStep: newProductStep(s),
		states:      newWordTable(s.bits, 2),
		dests:       newWordTable(uint(s.t)*s.vBits, 1),
		mem:         mem,
	}
	k.emit = k.push
	return k, k.charge()
}

// charge lifts the scratch charge to the kernel's current footprint.
func (k *sweepKernel) charge() error {
	need := k.states.bytes() + k.dests.bytes() + int64(8*cap(k.queue))
	if need > k.charged {
		if err := k.mem.Grow(need - k.charged); err != nil {
			return fmt.Errorf("core: product search: %w", err)
		}
		k.charged = need
	}
	return nil
}

// decodeSource fills srcs with source tuple idx of the sweep order: mixed
// radix base n with track 0 varying fastest.
func decodeSource(idx, n int, srcs []int) {
	for i := range srcs {
		srcs[i] = idx % n
		idx /= n
	}
}

// Run traverses the product graph from source tuples first+lo … first+hi-1
// of the sweep order at once (hi ≤ 64; bit i of every word stands for
// source first+i) and leaves in k.dests, per destination tuple, the word of
// sources with satisfying paths to it. It returns errStateBudget as soon
// as more than maxStates distinct states have been met (0 = unlimited),
// polls ctx every cancelCheckInterval expansions and returns ctx.Err() on
// cancellation; k.dests is meaningful only after a nil return.
func (k *sweepKernel) Run(ctx context.Context, first, lo, hi, maxStates int) error {
	k.states.reset()
	k.dests.reset()
	k.queue = k.queue[:0]
	n := k.db.NumVertices()
	k.newDone = 0
	for i := lo; i < hi; i++ {
		decodeSource(first+i, n, k.newVerts)
		k.delta = 1 << uint(i)
		k.seed(0)
	}
	for qi := 0; qi < len(k.queue); qi++ {
		if qi%cancelCheckInterval == 0 {
			if err := pollSearch(ctx); err != nil {
				return err
			}
			if err := k.charge(); err != nil {
				return err
			}
		}
		if maxStates > 0 && len(k.states.keys) > maxStates {
			return errStateBudget
		}
		key := k.queue[qi]
		slot := k.states.at(key)
		k.delta, slot[1] = slot[1], 0
		k.load(key)
		k.overRels(0)
	}
	for _, key := range k.states.keys {
		k.unpack(key, k.relStates, k.verts)
		if acceptState(k.nfas, k.relStates) {
			k.dests.or(k.destKey(k.verts), k.states.at(key)[0])
		}
	}
	return k.charge()
}

// push delivers the sources being propagated to the state (nextRel,
// newVerts, newDone), queueing it if any of them is new to it.
func (k *sweepKernel) push() {
	key := k.pack(k.nextRel, k.newVerts, k.newDone)
	slot, fresh := k.states.or(key, k.delta)
	if fresh == 0 {
		return
	}
	if slot[1] == 0 {
		k.queue = append(k.queue, key)
	}
	slot[1] |= fresh
}

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
	"ecrpq/internal/rowset"
	"ecrpq/internal/synchro"
)

// productShape is the layout of a component's product with a database
// (Lemma 4.2): one state of the component's merged automaton (Lemma 4.1),
// one database vertex per track and the set of finished tracks. A state is
// known to the kernels by a uint64 key, in one of two regimes chosen here
// from the sizes of the automaton and the database:
//
//   - narrow: the state packs into 63 bits and the key is the packing,
//
//     [ automaton state | vertex per track | done bits ]
//
//     and a destination tuple's key is its vertices packed likewise;
//
//   - wide: it does not, and a kernel keeps the columns of every state (and
//     destination tuple) it meets as a row of a rowset.Set; the key is the
//     row's id.
//
// pack, unpack, destKey, unpackDest and sortDests are the only code that
// knows which; everything downstream of a key — the traversals, the visited
// sets, the word tables — is the same: a row id is a rank of first sight, so
// a table takes it as an index and grows with the ids. The shape is
// read-only after packProduct and may be shared by concurrent kernels.
type productShape struct {
	db    *graphdb.DB
	fwd   *graphdb.CSR   // the database's forward layout when the shape was made
	nfa   *synchro.Table // the component's merged automaton
	t     int
	vBits uint
	qBits uint
	wide  bool
	// Key widths, which decide how the kernels' sets and tables are indexed:
	// those of the packings, or 0 in the wide regime, whose keys count up
	// from 0 (a table indexed by them starts empty and grows with them).
	bits, destBits uint
}

// packedBits is the widest state the narrow regime packs into a key. It is
// a variable so that the differential suites can run their instances in
// both regimes; nothing but a test assigns it.
var packedBits uint = 63

// packProduct lays out the product state of the merged view c over db.
func packProduct(db *graphdb.DB, c *component) *productShape {
	t := len(c.tracks)
	s := &productShape{db: db, fwd: db.Forward(), nfa: c.nfa, t: t}
	s.vBits = uint(bits.Len(uint(max(db.NumVertices()-1, 1))))
	s.qBits = uint(bits.Len(uint(max(c.nfa.NumStates(), 2) - 1)))
	s.bits, s.destBits = s.qBits+uint(t)*s.vBits+uint(t), uint(t)*s.vBits
	if s.bits > packedBits {
		s.wide, s.bits, s.destBits = true, 0, 0
	}
	return s
}

// productStep holds the registers of the product state being expanded and
// enumerates its successors: the nondeterministic step of Lemma 4.2 — take
// one transition of the merged automaton, whose letter is the joint
// convolution letter of every track, and advance one database pointer per
// non-padded track along a matching edge. Both kernels embed it — the
// single-source traversal of fastProduct and the many-lane sweepKernel — and
// differ only in emit, which receives every successor as (nextQ, newVerts,
// newDone). It also owns the kernel's key space: the rows behind the wide
// regime's keys.
type productStep struct {
	*productShape
	q, nextQ        int // automaton state of the loaded state and of the successor
	verts, newVerts []int
	joint           alphabet.Tuple // the letter of the transition being taken
	done, newDone   uint64
	emit            func()

	// The wide regime's key space, nil in the narrow one: [automaton state |
	// vertices | done lo, hi] (hashed: the done halves take 32 bits) and
	// [vertices], and the row to look up.
	stateRows, destRows *rowset.Set
	row                 []int32
}

//ecrpq:charged registers per track: query-sized, whatever the database
func newProductStep(s *productShape) productStep {
	p := productStep{
		productShape: s,
		verts:        make([]int, s.t),
		newVerts:     make([]int, s.t),
	}
	if s.wide {
		p.stateRows, p.destRows, p.row = rowset.New(s.t+3, 32), rowset.New(s.t, int(s.vBits)), make([]int32, s.t+3)
	}
	return p
}

func (p *productStep) pack(q int, verts []int, done uint64) uint64 {
	if p.wide {
		row := p.row
		row[0] = int32(q)
		for i, v := range verts {
			row[1+i] = int32(v)
		}
		row[1+p.t], row[2+p.t] = int32(done), int32(done>>32)
		id, _ := p.stateRows.Add(row)
		return uint64(id)
	}
	key := uint64(q)
	shift := p.qBits
	for _, v := range verts {
		key |= uint64(v) << shift
		shift += p.vBits
	}
	key |= done << shift
	return key
}

func (p *productStep) unpack(key uint64, verts []int) (q int, done uint64) {
	if p.wide {
		row := p.stateRows.Row(int32(key))
		for i := range verts {
			verts[i] = int(row[1+i])
		}
		return int(row[0]), uint64(uint32(row[1+p.t])) | uint64(uint32(row[2+p.t]))<<32
	}
	shift := p.qBits
	mask := uint64(1)<<p.vBits - 1
	for i := range verts {
		verts[i] = int((key >> shift) & mask)
		shift += p.vBits
	}
	return int(key & (1<<p.qBits - 1)), key >> shift
}

// destKey is the key of a destination tuple. Packed keys ascend in the
// lexicographic order of the tuples (track 0 most significant); row ids are
// put in that order by sortDests.
func (p *productStep) destKey(verts []int) uint64 {
	if p.wide {
		for i, v := range verts {
			p.row[i] = int32(v)
		}
		id, _ := p.destRows.Add(p.row[:p.t])
		return uint64(id)
	}
	key := uint64(0)
	for _, v := range verts {
		key = key<<p.vBits | uint64(v)
	}
	return key
}

// unpackDest inverts destKey into verts: ints for a search, int32 for R' rows.
func unpackDest[T int | int32](p *productStep, key uint64, verts []T) {
	if p.wide {
		for i, v := range p.destRows.Row(int32(key)) {
			verts[i] = T(v)
		}
		return
	}
	mask := uint64(1)<<p.vBits - 1
	for i := len(verts) - 1; i >= 0; i-- {
		verts[i] = T(key & mask)
		key >>= p.vBits
	}
}

// sortDests puts destination keys in the lexicographic order of their
// tuples.
func (p *productStep) sortDests(keys []uint64) {
	if !p.wide {
		slices.Sort(keys)
		return
	}
	slices.SortFunc(keys, func(a, b uint64) int {
		return slices.Compare(p.destRows.Row(int32(a)), p.destRows.Row(int32(b)))
	})
}

// load makes key the state being expanded.
func (p *productStep) load(key uint64) { p.q, p.done = p.unpack(key, p.verts) }

// accepting reports whether the loaded state's automaton state accepts.
func (p *productStep) accepting() bool { return p.nfa.Accept[p.q] }

// seed emits every start state of the automaton over newVerts and newDone,
// which the caller has set.
func (p *productStep) seed() {
	for _, q := range p.nfa.Starts {
		p.nextQ = q
		p.emit()
	}
}

// step emits every successor of the loaded state, one transition of the
// automaton at a time. A merged table carries no all-pad letter
// (synchro.Merge leaves it out), so every letter moves some pointer.
func (p *productStep) step() {
	for _, tr := range p.nfa.Trans[p.q] {
		p.joint, p.nextQ = tr.Tuple, tr.To
		p.expand()
	}
}

// expand advances database pointers for a fully-determined joint letter.
func (p *productStep) expand() {
	p.newDone = p.done
	for i, s := range p.joint {
		if s == alphabet.Pad {
			p.newDone |= 1 << uint(i)
		} else if p.done&(1<<uint(i)) != 0 {
			return
		}
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
	for _, to := range p.fwd.Succ(p.verts[i], p.joint[i]) {
		p.newVerts[i] = int(to)
		p.overTracks(i + 1)
	}
	p.newVerts[i] = p.verts[i]
}

// rankTable gives each distinct key of up to 63 bits its rank in order of
// first sight: what a rowset.Set does for rows, for keys that are their own
// row, in slab-pooled storage.
// It starts empty and doubles at half load, so its size follows the keys a
// search meets, never the space they are drawn from.
type rankTable struct {
	keys  slab[uint64] // 1 + a key, 0 = empty; a power of two long, at most half full
	ranks slab[int32]  // the rank of the key in the same slot of keys
	n     int
}

// slot returns the slot holding key, or the empty one where it belongs.
func (t *rankTable) slot(key uint64) int {
	keys := t.keys.s
	mask := len(keys) - 1
	//ecrpq:bounded the table is at most half full: a probe ends at the key or at an empty slot
	for i := int(key*0x9E3779B97F4A7C15>>32) & mask; ; i = (i + 1) & mask {
		if k := keys[i]; k == 0 || k == key+1 {
			return i
		}
	}
}

func (t *rankTable) has(key uint64) bool { return t.n > 0 && t.keys.s[t.slot(key)] != 0 }

// add returns key's rank and whether this call gave it one.
func (t *rankTable) add(key uint64) (rank int, fresh bool) {
	if 2*t.n >= len(t.keys.s) {
		t.double()
	}
	i := t.slot(key)
	if fresh = t.keys.s[i] == 0; fresh {
		t.keys.s[i], t.ranks.s[i] = key+1, int32(t.n)
		t.n++
	}
	return int(t.ranks.s[i]), fresh
}

// double moves the keys into a table twice the size (16 slots at first).
//
//ecrpq:charged the owning kernel charges bytes() as part of its footprint's high-water mark
func (t *rankTable) double() {
	keys, ranks := t.keys, t.ranks
	n := max(16, 2*len(keys.s))
	t.keys, t.ranks = takeSlab[uint64](n, true), takeSlab[int32](n, false)
	for i, k := range keys.s {
		if k != 0 {
			j := t.slot(k - 1)
			t.keys.s[j], t.ranks.s[j] = k, ranks.s[i]
		}
	}
	keys.release()
	ranks.release()
}

func (t *rankTable) reset() {
	clear(t.keys.s)
	t.n = 0
}

// release gives the slots back to their pools and leaves the table empty.
func (t *rankTable) release() {
	t.keys.release()
	t.ranks.release()
	t.n = 0
}

// bytes is the table's footprint; a nil table (a direct-indexed owner) has none.
func (t *rankTable) bytes() int64 {
	if t == nil {
		return 0
	}
	return int64(8*cap(t.keys.s) + 4*cap(t.ranks.s))
}

// denseSetBits bounds the key width up to which a keySet is a bitset over
// its whole key space (2^16 bits = 8 KiB); a wider space is hashed.
const denseSetBits = 16

// keySet is a set of keys of a known width: a bitset indexed by the key, or
// past denseSetBits a rankTable. The bitset covers the key space from the
// first open or add; one that meets a key beyond its end grows to hold it,
// which only the wide regime's width 0 lets happen. The owner keeps the list
// of members (it needs them in order anyway), so clearing a bitset costs
// what was added, never a pass over the key space.
type keySet struct {
	width uint
	bits  slab[uint64]
	table *rankTable // nil for a bitset
}

func newKeySet(width uint) keySet {
	if width > denseSetBits {
		return keySet{table: new(rankTable)}
	}
	return keySet{width: width}
}

// open gives a bitset that has none (a new or released set) the words of
// its key space.
func (s *keySet) open() {
	if s.table == nil && s.bits.s == nil {
		s.bits = takeSlab[uint64](int((uint64(1)<<s.width+63)/64), true)
	}
}

func (s *keySet) has(key uint64) bool {
	if s.table != nil {
		return s.table.has(key)
	}
	return key>>6 < uint64(len(s.bits.s)) && s.bits.s[key>>6]&(1<<(key&63)) != 0
}

// add inserts key and reports whether it was new.
func (s *keySet) add(key uint64) bool {
	if s.table != nil {
		_, fresh := s.table.add(key)
		return fresh
	}
	if w := int(key >> 6); w >= len(s.bits.s) {
		s.open()
		if w >= len(s.bits.s) {
			s.bits.extend(w + 1 - len(s.bits.s))
		}
	}
	fresh := s.bits.s[key>>6]&(1<<(key&63)) == 0
	s.bits.s[key>>6] |= 1 << (key & 63)
	return fresh
}

// clear empties the set, given exactly its members.
func (s *keySet) clear(members []uint64) {
	if s.table != nil {
		s.table.reset()
		return
	}
	for _, k := range members {
		s.bits.s[k>>6] &^= 1 << (k & 63)
	}
}

// release gives the set's storage back to the pools and leaves it empty.
func (s *keySet) release() {
	s.bits.release()
	if s.table != nil {
		s.table.release()
	}
}

func (s *keySet) bytes() int64 { return int64(8*cap(s.bits.s)) + s.table.bytes() }

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

// noDest is the destination key no tuple has (packed keys are at most 63
// bits wide, row ids 31): seeking it runs a traversal to exhaustion.
const noDest = ^uint64(0)

// fastProduct is the single-source kernel over a packed product: one
// breadth-first traversal from a source tuple that can be suspended and
// resumed. begin seeds it; seek answers "is this destination tuple reached
// by satisfying paths" from the set of accepting destinations queued so
// far — the goal test is at generation — resuming the traversal only when
// the answer is not yet known and suspending it again after the expansion
// that queues it. A traversal therefore never explores further than an
// early-stopping search for the hardest destination asked of it, and every
// other destination of the same sources is a set probe. reach keeps the
// live traversal across calls with the same sources (a one-entry memo); Run
// is the exhaustive traversal the streamed sweep collects destinations
// with; witness reads the paths off the parent links of the traversal that
// found them.
//
// The scratch is reused across traversals and cleared from its own member
// lists. Not safe for concurrent use.
type fastProduct struct {
	productStep

	visited   keySet       // states met by the live traversal; its members are queue
	queue     slab[uint64] // breadth-first order; queue[:qi] have been expanded
	qi        int
	accepted  keySet       // destination keys of the accepting states queued so far; its members are dests
	dests     slab[uint64] // distinct, in the order met
	srcs      []int        // sources of the live traversal
	live      bool         // a traversal from srcs is suspended or exhausted, not failed
	maxStates int          // the live traversal's cap on distinct states (0 = unlimited)

	// Recording, what a witness is read off: witness's traversals do, reach's
	// if the owner wants paths, Run's — whose callers reorder dests — never.
	paths    bool        // reach records
	record   bool        // the live traversal records
	parents  slab[int32] // per queue slot: the slot it was first reached from; -1 for a start state
	destSlot slab[int32] // per member of dests, in the order met: the slot of its first accepting state
	child    uint64      // witness: the state whose first emit by the loaded one is being looked for

	traversals int // begins
	expanded   int // states whose successors were generated

	// Byte accounting against the context reservation: what the sets, rows
	// and lists hold, as a high-water mark. The owner releases via releaseMem.
	mem     *govern.Meter
	charged int64
}

func newFastProduct(db *graphdb.DB, c *component) *fastProduct {
	s := packProduct(db, c)
	f := &fastProduct{
		productStep: newProductStep(s),
		visited:     newKeySet(s.bits),
		accepted:    newKeySet(s.destBits),
		srcs:        make([]int, s.t),
	}
	f.emit = f.push
	return f
}

// releaseMem closes the accounting scope: everything this fastProduct
// charged is released back to the reservation, and its tables go back to
// their pools. Safe on nil receivers and without an attached meter; the
// kernel stays usable, and a later traversal starts from empty tables.
func (f *fastProduct) releaseMem() {
	if f == nil {
		return
	}
	f.mem.Close()
	f.mem, f.charged = nil, 0
	f.live = false
	f.visited.release()
	f.accepted.release()
	f.queue.release()
	f.dests.release()
	f.parents.release()
	f.destSlot.release()
}

// charge lifts the charge to the kernel's current footprint.
func (f *fastProduct) charge() error {
	if f.mem == nil {
		return nil
	}
	need := f.visited.bytes() + f.accepted.bytes() + f.stateRows.Bytes() + f.destRows.Bytes() +
		int64(8*(cap(f.queue.s)+cap(f.dests.s))+4*(cap(f.parents.s)+cap(f.destSlot.s)))
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
	f.visited.clear(f.queue.s)
	f.accepted.clear(f.dests.s)
	f.visited.open()
	f.accepted.open()
	f.stateRows.Clear()
	f.destRows.Clear()
	f.queue.s, f.dests.s = f.queue.s[:0], f.dests.s[:0]
	f.parents.s, f.destSlot.s = f.parents.s[:0], f.destSlot.s[:0]
	copy(f.srcs, srcs)
	f.maxStates = maxStates
	f.traversals++
	f.qi = -1 // what push records as the parent of a start state
	copy(f.newVerts, srcs)
	f.newDone = 0
	f.seed()
	f.qi = 0
	// The poll of slot 0 comes before the seeds' destinations answer a seek.
	err := f.charge()
	if err == nil && len(f.queue.s) > 0 {
		err = pollSearch(ctx)
	}
	f.live = err == nil
	return err
}

// push queues the successor (nextQ, newVerts, newDone) of queue[qi] on
// first sight, and an accepting one's destination on its first sight: the
// goal test is at generation. The queue is FIFO, so the first state queued
// over a destination is the first that would be popped over it.
func (f *fastProduct) push() {
	key := f.pack(f.nextQ, f.newVerts, f.newDone)
	if !f.visited.add(key) {
		return
	}
	f.queue.push(key)
	if f.record {
		f.parents.push(int32(f.qi))
	}
	if !f.nfa.Accept[f.nextQ] {
		return
	}
	if d := f.destKey(f.newVerts); f.accepted.add(d) {
		f.dests.push(d)
		if f.record {
			f.destSlot.push(int32(len(f.queue.s) - 1))
		}
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

// advance resumes the live traversal until the expansion of queue[qi]
// queues an accepting state over want — it returns once that parent is
// fully expanded, with the queue's head past it — or until the queue is
// exhausted. It polls ctx and the core.budget fault point every
// cancelCheckInterval states and fails once more than maxStates distinct
// states have been met; a failed traversal is not resumable.
func (f *fastProduct) advance(ctx context.Context, want uint64) (bool, error) {
	for f.qi < len(f.queue.s) {
		if f.qi%cancelCheckInterval == 0 && f.qi > 0 {
			err := pollSearch(ctx)
			if err == nil {
				err = f.charge()
			}
			if err != nil {
				f.live = false
				return false, err
			}
		}
		if f.maxStates > 0 && len(f.queue.s) > f.maxStates {
			f.live = false
			return false, fmt.Errorf("core: product exceeded the state budget of %d", f.maxStates)
		}
		f.load(f.queue.s[f.qi])
		f.expanded++
		met := len(f.dests.s)
		f.step()
		f.qi++
		if slices.Contains(f.dests.s[met:], want) {
			return true, nil
		}
	}
	return false, nil
}

// reach decides whether satisfying paths lead from srcs to dsts. Calls
// with the sources of the live traversal resume it; any other sources
// begin a new one, so a caller that varies destinations under fixed sources
// pays one traversal for all of them.
func (f *fastProduct) reach(ctx context.Context, srcs, dsts []int, maxStates int) (bool, error) {
	if !f.live || !slices.Equal(f.srcs, srcs) {
		f.record = f.paths
		if err := f.begin(ctx, srcs, maxStates); err != nil {
			return false, err
		}
	}
	return f.seek(ctx, f.destKey(dsts))
}

// Run traverses everything reachable from srcs and leaves in f.dests the
// distinct destination keys of the accepting states.
func (f *fastProduct) Run(ctx context.Context, srcs []int, maxStates int) error {
	f.record = false
	if err := f.begin(ctx, srcs, maxStates); err != nil {
		return err
	}
	_, err := f.advance(ctx, noDest)
	return err
}

// witness is reach with the paths, one per track. It resumes the live
// traversal if that is from srcs and recorded, and begins one only
// otherwise; the path is the chain of parent links from the first accepting
// state over dsts back to a start state. A link stores no letter: each
// step's parent is expanded once more and the joint letter read where the
// expansion first emits the child, as it did when the child was queued.
func (f *fastProduct) witness(ctx context.Context, srcs, dsts []int, maxStates int) ([]graphdb.Path, bool, error) {
	if !f.live || !f.record || !slices.Equal(f.srcs, srcs) {
		f.record = true
		if err := f.begin(ctx, srcs, maxStates); err != nil {
			return nil, false, err
		}
	}
	want := f.destKey(dsts)
	found, err := f.seek(ctx, want)
	if err != nil || !found {
		return nil, false, err
	}
	paths := make([]graphdb.Path, f.t)
	for i := range paths {
		paths[i].Start = srcs[i]
	}
	// Walking back from the accepting state, the edges come out last first.
	push := f.emit
	f.emit = func() {
		if f.pack(f.nextQ, f.newVerts, f.newDone) != f.child {
			return
		}
		f.child = noDest // later emits of the same state read other letters
		for i, s := range f.joint {
			if s != alphabet.Pad {
				paths[i].Edges = append(paths[i].Edges, graphdb.Edge{Label: s, To: f.newVerts[i]})
			}
		}
	}
	queue, parents := f.queue.s, f.parents.s
	for slot := f.destSlot.s[slices.Index(f.dests.s, want)]; parents[slot] >= 0; slot = parents[slot] {
		f.child = queue[slot]
		f.load(queue[parents[slot]])
		f.step()
	}
	f.emit = push
	for i := range paths {
		slices.Reverse(paths[i].Edges)
	}
	return paths, true, nil
}

// denseTableWords bounds a wordTable over its key space; a larger one is indexed by rank.
const denseTableWords = 1 << 21

// wordTable maps uint64 keys to slots of stride words, all zero until
// written. It is the per-state table of the sweep kernel (stride 2w: the
// lanes that reach a product state, and those not yet propagated from it)
// and the per-destination table the rows are emitted from (stride w). Where
// slots over the whole key space fit in denseTableWords a key indexes its
// slot (at width 0 — the wide regime — the table grows with the keys
// instead); otherwise it indexes it by its rank. keys lists the distinct
// keys touched since the last reset, so clearing — also before a table
// over its key space goes back to its pool — costs what was touched.
type wordTable struct {
	stride int
	words  slab[uint64] // the slot of index i starts at i*stride
	index  *rankTable   // key → index; nil where the key is the index
	keys   slab[uint64]
	zeroed bool // words cover the key space: they go back to zeroSlabs
}

//ecrpq:charged the owner charges bytes() to its scratch meter before the first traversal
func newWordTable(keyBits uint, stride int) *wordTable {
	if keyBits > 21 || stride<<keyBits > denseTableWords {
		return &wordTable{stride: stride, index: new(rankTable)}
	}
	return &wordTable{stride: stride, words: zeroSlabs.take(stride<<keyBits, true), zeroed: keyBits > 0}
}

// at returns key's slot, claiming a zeroed one on first use where the table
// does not cover the key space. The slice is valid until the next at call.
func (t *wordTable) at(key uint64) []uint64 {
	i := int(key)
	if t.index != nil {
		i, _ = t.index.add(key)
	}
	i *= t.stride
	if i >= len(t.words.s) {
		t.words.extend(i + t.stride - len(t.words.s))
	}
	return t.words.s[i : i+t.stride]
}

// or ORs the lane mask bits (non-zero) into key's slot, recording the key
// on first touch.
func (t *wordTable) or(key uint64, bits []uint64) {
	slot := t.at(key)
	if slices.Max(slot) == 0 {
		t.keys.push(key)
	}
	for i, b := range bits {
		slot[i] |= b
	}
}

// reset zeroes every touched slot.
func (t *wordTable) reset() {
	if t.index != nil {
		clear(t.words.s[:t.index.n*t.stride])
		t.index.reset()
	} else {
		for _, key := range t.keys.s {
			clear(t.at(key))
		}
	}
	t.keys.s = t.keys.s[:0]
}

// release gives the table's storage back to the pools.
func (t *wordTable) release() {
	if t.zeroed {
		t.reset()
		t.words.releaseTo(&zeroSlabs)
	}
	t.words.release()
	t.keys.release()
	if t.index != nil {
		t.index.release()
	}
}

// bytes is the table's current footprint.
func (t *wordTable) bytes() int64 {
	return int64(8*(cap(t.words.s)+cap(t.keys.s))) + t.index.bytes()
}

// errStateBudget reports a sweep traversal that met more distinct product
// states than its budget; sweepWorker.batch splits the batch and retries.
var errStateBudget = errors.New("core: product exceeded the state budget")

// sweepKernel is one worker's scratch for the batched Lemma 4.3 sweep: a
// traversal of the packed product graph that carries up to 64w source
// tuples at once, lane i being bit i%64 of word i/64 of a lane mask. Every
// state holds the mask of "which lanes of this batch reach me" and that of
// "which of those I have not propagated yet"; a state is (re-)expanded
// only for the latter, so the searches of a batch share every state they
// have in common. The shape is shared; everything else is this kernel's.
type sweepKernel struct {
	productStep
	states *wordTable   // per packed state: [reached | pending], w words each
	dests  *wordTable   // per packed destination tuple: the lanes that reach it
	queue  slab[uint64] // states with pending lanes, FIFO; a state re-enters when new lanes arrive
	delta  []uint64     // the lanes being propagated, w words
	carry  uint64       // bit i set: delta[i] is not zero
	runs   int          // traversals begun

	// Scratch accounting: the tables and the queue are charged as a
	// high-water mark and released by the owner through release.
	mem     *govern.Meter
	charged int64
}

// newSweepKernel allocates a kernel of w-word lane masks over the shared
// product shape and charges its tables to mem.
func newSweepKernel(s *productShape, w int, mem *govern.Meter) (*sweepKernel, error) {
	k := &sweepKernel{
		productStep: newProductStep(s),
		states:      newWordTable(s.bits, 2*w),
		dests:       newWordTable(s.destBits, w),
		delta:       make([]uint64, w),
		mem:         mem,
	}
	k.emit = k.push
	return k, k.charge()
}

// release closes the kernel's meter and gives its tables back to their
// pools; the kernel is not used again.
func (k *sweepKernel) release() {
	k.mem.Close()
	k.states.release()
	k.dests.release()
	k.queue.release()
}

// charge lifts the scratch charge to the kernel's current footprint.
func (k *sweepKernel) charge() error {
	need := k.states.bytes() + k.dests.bytes() + k.stateRows.Bytes() + k.destRows.Bytes() + int64(8*cap(k.queue.s))
	if need > k.charged {
		if err := k.mem.Grow(need - k.charged); err != nil {
			return fmt.Errorf("core: product search: %w", err)
		}
		k.charged = need
	}
	return nil
}

// decodeSource fills srcs with source tuple idx of the sweep order: a
// base-n numeral over the pattern's digits, the last one fastest, each
// track reading the digit of its source's variable.
func decodeSource[T int | int32](pat *atomPattern, idx, n int, srcs []T) {
	for d := len(pat.digits) - 1; d >= 0; d-- {
		v := T(idx % n)
		idx /= n
		for k, place := range pat.src {
			if place == d {
				srcs[k] = v
			}
		}
	}
}

// Run traverses the product graph from the source tuples in lanes lo …
// hi-1 at once (hi ≤ 64w; lane i is lanes[i*t:(i+1)*t]) and leaves in
// k.dests, per destination tuple, the mask of lanes with satisfying paths
// to it. It returns errStateBudget as soon as more than maxStates distinct
// states have been met (0 = unlimited), polls ctx every cancelCheckInterval
// expansions and returns ctx.Err() on cancellation; k.dests is meaningful
// only after a nil return.
func (k *sweepKernel) Run(ctx context.Context, lanes []int32, lo, hi, maxStates int) error {
	k.states.reset()
	k.dests.reset()
	k.stateRows.Clear() // destRows is kept: the owner reads destination keys after later Runs
	k.queue.s = k.queue.s[:0]
	k.newDone = 0
	k.runs++
	for i := lo; i < hi; i++ {
		for j, v := range lanes[i*k.t : (i+1)*k.t] {
			k.newVerts[j] = int(v)
		}
		k.delta[i/64], k.carry = 1<<uint(i%64), 1<<uint(i/64) // push reads the carried words only
		k.seed()
	}
	w := len(k.delta)
	for qi := 0; qi < len(k.queue.s); qi++ {
		if qi%cancelCheckInterval == 0 {
			if err := pollSearch(ctx); err != nil {
				return err
			}
			if err := k.charge(); err != nil {
				return err
			}
		}
		if maxStates > 0 && len(k.states.keys.s) > maxStates {
			return errStateBudget
		}
		key := k.queue.s[qi]
		pending := k.states.at(key)[w:]
		k.carry = 0
		for i, m := range pending {
			if k.delta[i] = m; m != 0 {
				k.carry |= 1 << uint(i)
			}
		}
		clear(pending)
		k.load(key)
		k.step()
	}
	for _, key := range k.states.keys.s {
		k.load(key)
		if k.accepting() {
			k.dests.or(k.destKey(k.verts), k.states.at(key)[:w])
		}
	}
	return k.charge()
}

// push delivers the lanes being propagated to the state (nextQ, newVerts,
// newDone), queueing it if any of them is new to it. Only the words delta
// carries are read and written.
func (k *sweepKernel) push() {
	key := k.pack(k.nextQ, k.newVerts, k.newDone)
	slot := k.states.at(key)
	reached, pending := slot[:len(k.delta)], slot[len(k.delta):]
	m := k.carry // the carried words, from the first with a lane new to the state
	for ; m != 0 && k.delta[bits.TrailingZeros64(m)]&^reached[bits.TrailingZeros64(m)] == 0; m &= m - 1 {
	}
	if m == 0 {
		return
	}
	if slices.Max(reached) == 0 {
		k.states.keys.push(key)
	}
	if slices.Max(pending) == 0 {
		k.queue.push(key)
	}
	for ; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		fresh := k.delta[i] &^ reached[i]
		reached[i] |= fresh
		pending[i] |= fresh
	}
}

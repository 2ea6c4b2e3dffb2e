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
)

// productShape is the layout of a component's product with a database
// (Lemma 4.2): one relation-automaton state per relation, one database
// vertex per track and the set of finished tracks. A state is known to the
// kernels by a uint64 key, in one of two regimes chosen here from the sizes
// of the component and the database:
//
//   - narrow: the state packs into 63 bits and the key is the packing,
//
//     [ relation-state combo | vertex per track | done bits ]
//
//     and a destination tuple's key is its vertices packed likewise;
//
//   - wide: it does not, and a kernel keeps the columns of every state (and
//     destination tuple) it meets as a flat int32 row in a rowSet; the key is
//     the row's id.
//
// pack, unpack, destKey, unpackDest and sortDests are the only code that
// knows which; everything downstream of a key — the traversals, the visited
// sets, the word tables — is the same: a row id is a rank of first sight, so
// a table takes it as an index and grows with the ids. The shape is
// read-only after packProduct and may be shared by concurrent kernels.
type productShape struct {
	db    *graphdb.DB
	fwd   *graphdb.CSR // the database's forward layout when the shape was made
	c     *component
	nfas  []*nfaView
	t     int
	vBits uint
	qBits uint
	radix []int // relation NFA sizes for mixed-radix state packing
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

// packProduct lays out the product state of c over db.
func packProduct(db *graphdb.DB, c *component) *productShape {
	t := len(c.tracks)
	s := &productShape{
		db: db, fwd: db.Forward(), c: c, t: t,
		nfas: c.nfas, radix: make([]int, len(c.rels)),
	}
	qCombos := 1
	for i, r := range c.rels {
		n := max(r.RawNFA().NumStates(), 1)
		s.radix[i] = n
		if qCombos > (1<<30)/n {
			s.wide = true // the combos no longer index a mixed-radix number worth packing
		} else {
			qCombos *= n
		}
	}
	s.vBits = uint(bits.Len(uint(max(db.NumVertices()-1, 1))))
	s.qBits = uint(max(bits.Len(uint(qCombos-1)), 1))
	s.bits, s.destBits = s.qBits+uint(t)*s.vBits+uint(t), uint(t)*s.vBits
	if s.wide || s.bits > packedBits {
		s.wide, s.bits, s.destBits = true, 0, 0
	}
	return s
}

// rowSet interns fixed-width int32 rows: a row's id is its rank in order of
// first sight. It is the key space of the wide regime, and does what
// cq.rowIndex does for join keys wider than a word: an open-addressing
// table probed by an FNV fold of the row, a hit confirmed by comparing the
// row. The zero value is an empty set that is never added to (the narrow
// regime's).
type rowSet struct {
	width int
	rows  []int32 // row id is rows[id*width:(id+1)*width]
	slots []int32 // 1 + a row id, 0 = empty; a power of two long, at most half full
	buf   []int32 // the row to intern, width long
}

func newRowSet(width int) rowSet { return rowSet{width: width, buf: make([]int32, width)} }

func (s *rowSet) row(id uint64) []int32 {
	return s.rows[int(id)*s.width : (int(id)+1)*s.width]
}

// slot returns the slot holding row's id, or the empty one where it belongs.
func (s *rowSet) slot(row []int32) int {
	h := uint64(14695981039346656037)
	for _, v := range row {
		h = (h ^ uint64(uint32(v))) * 1099511628211
	}
	mask := len(s.slots) - 1
	//ecrpq:bounded the table is at most half full: a probe ends at the row or at an empty slot
	for i := int(h>>32) & mask; ; i = (i + 1) & mask {
		if id := s.slots[i]; id == 0 || slices.Equal(s.row(uint64(id-1)), row) {
			return i
		}
	}
}

// intern returns the id of the row in s.buf, adding it on first sight.
//
//ecrpq:charged the owning kernel charges bytes() as part of its footprint's high-water mark
func (s *rowSet) intern() uint64 {
	n := len(s.rows) / s.width
	if 2*n >= len(s.slots) {
		s.slots = make([]int32, max(16, 2*len(s.slots)))
		for id := 0; id < n; id++ {
			s.slots[s.slot(s.row(uint64(id)))] = int32(id + 1)
		}
	}
	i := s.slot(s.buf)
	if s.slots[i] == 0 {
		s.slots[i] = int32(n + 1)
		s.rows = append(s.rows, s.buf...)
	}
	return uint64(s.slots[i] - 1)
}

func (s *rowSet) reset() {
	s.rows = s.rows[:0]
	clear(s.slots)
}

func (s *rowSet) bytes() int64 { return int64(4 * (cap(s.rows) + cap(s.slots))) }

// productStep holds the registers of the product state being expanded and
// enumerates its successors: the nondeterministic step of Lemma 4.2 — guess
// a joint convolution letter consistent with every relation automaton
// (relations that have exhausted their words stall) and advance one
// database pointer per non-padded track along a matching edge. Both kernels
// embed it — the single-source traversal of fastProduct and the 64-source
// sweepKernel — and differ only in emit, which receives every successor as
// (nextRel, newVerts, newDone). It also owns the kernel's key space: the
// rows behind the wide regime's keys.
type productStep struct {
	*productShape
	relStates, nextRel []int
	verts, newVerts    []int
	joint              []alphabet.Symbol
	touched            [][]int // per relation: the tracks its current move set in joint
	done, newDone      uint64
	emit               func()

	stateRows, destRows rowSet // wide regime: [relation states | vertices | done lo, hi] and [vertices]
}

//ecrpq:charged registers per track and per relation: query-sized, whatever the database
func newProductStep(s *productShape) productStep {
	p := productStep{
		productShape: s,
		relStates:    make([]int, len(s.nfas)),
		nextRel:      make([]int, len(s.nfas)),
		verts:        make([]int, s.t),
		newVerts:     make([]int, s.t),
		joint:        make([]alphabet.Symbol, s.t),
		touched:      make([][]int, len(s.nfas)),
	}
	for i, tracks := range s.c.relTracks {
		p.touched[i] = make([]int, len(tracks))
	}
	if s.wide {
		p.stateRows, p.destRows = newRowSet(len(s.nfas)+s.t+2), newRowSet(s.t)
	}
	return p
}

func (p *productStep) pack(relStates []int, verts []int, done uint64) uint64 {
	if p.wide {
		row := p.stateRows.buf
		for i, q := range relStates {
			row[i] = int32(q)
		}
		row = row[len(relStates):]
		for i, v := range verts {
			row[i] = int32(v)
		}
		row[p.t], row[p.t+1] = int32(done), int32(done>>32)
		return p.stateRows.intern()
	}
	q := 0
	for i := len(relStates) - 1; i >= 0; i-- {
		q = q*p.radix[i] + relStates[i]
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

func (p *productStep) unpack(key uint64, relStates []int, verts []int) (done uint64) {
	if p.wide {
		row := p.stateRows.row(key)
		for i := range relStates {
			relStates[i] = int(row[i])
		}
		row = row[len(relStates):]
		for i := range verts {
			verts[i] = int(row[i])
		}
		return uint64(uint32(row[p.t])) | uint64(uint32(row[p.t+1]))<<32
	}
	q := int(key & (1<<p.qBits - 1))
	for i := range relStates {
		relStates[i] = q % p.radix[i]
		q /= p.radix[i]
	}
	shift := p.qBits
	mask := uint64(1)<<p.vBits - 1
	for i := range verts {
		verts[i] = int((key >> shift) & mask)
		shift += p.vBits
	}
	return key >> shift
}

// destKey is the key of a destination tuple. Packed keys ascend in the
// lexicographic order of the tuples (track 0 most significant); row ids are
// put in that order by sortDests.
func (p *productStep) destKey(verts []int) uint64 {
	if p.wide {
		for i, v := range verts {
			p.destRows.buf[i] = int32(v)
		}
		return p.destRows.intern()
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
		for i, v := range p.destRows.row(key) {
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
		return slices.Compare(p.destRows.row(a), p.destRows.row(b))
	})
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
	touched := p.touched[i]
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
	for _, to := range p.fwd.Succ(p.verts[i], p.joint[i]) {
		p.newVerts[i] = int(to)
		p.overTracks(i + 1)
	}
	p.newVerts[i] = p.verts[i]
}

// rankTable gives each distinct key of up to 63 bits its rank in order of
// first sight: what rowSet does for rows, for keys that are their own row.
// It starts empty and doubles at half load, so its size follows the keys a
// search meets, never the space they are drawn from.
type rankTable struct {
	keys  []uint64 // 1 + a key, 0 = empty; a power of two long, at most half full
	ranks []int32  // the rank of the key in the same slot of keys
	n     int
}

// slot returns the slot holding key, or the empty one where it belongs.
func (t *rankTable) slot(key uint64) int {
	mask := len(t.keys) - 1
	//ecrpq:bounded the table is at most half full: a probe ends at the key or at an empty slot
	for i := int(key*0x9E3779B97F4A7C15>>32) & mask; ; i = (i + 1) & mask {
		if k := t.keys[i]; k == 0 || k == key+1 {
			return i
		}
	}
}

func (t *rankTable) has(key uint64) bool { return t.n > 0 && t.keys[t.slot(key)] != 0 }

// add returns key's rank and whether this call gave it one.
//
//ecrpq:charged the owning kernel charges bytes() as part of its footprint's high-water mark
func (t *rankTable) add(key uint64) (rank int, fresh bool) {
	if 2*t.n >= len(t.keys) {
		keys, ranks := t.keys, t.ranks
		t.keys, t.ranks = make([]uint64, max(16, 2*len(keys))), make([]int32, max(16, 2*len(keys)))
		for i, k := range keys {
			if k != 0 {
				j := t.slot(k - 1)
				t.keys[j], t.ranks[j] = k, ranks[i]
			}
		}
	}
	i := t.slot(key)
	if fresh = t.keys[i] == 0; fresh {
		t.keys[i], t.ranks[i] = key+1, int32(t.n)
		t.n++
	}
	return int(t.ranks[i]), fresh
}

func (t *rankTable) reset() {
	clear(t.keys)
	t.n = 0
}

// bytes is the table's footprint; a nil table (a direct-indexed owner) has none.
func (t *rankTable) bytes() int64 {
	if t == nil {
		return 0
	}
	return int64(8*cap(t.keys) + 4*cap(t.ranks))
}

// denseSetBits bounds the key width up to which a keySet is a bitset over
// its whole key space (2^16 bits = 8 KiB); a wider space is hashed.
const denseSetBits = 16

// keySet is a set of keys of a known width: a bitset indexed by the key, or
// past denseSetBits a rankTable. A bitset that meets a key beyond its end
// grows to hold it, which only the wide regime's width 0 lets happen. The
// owner keeps the list of members (it needs them in order anyway), so
// clearing a bitset costs what was added, never a pass over the key space.
type keySet struct {
	bits  []uint64
	table *rankTable // nil for a bitset
}

func newKeySet(width uint) keySet {
	if width > denseSetBits {
		return keySet{table: new(rankTable)}
	}
	return keySet{bits: make([]uint64, (uint64(1)<<width+63)/64)}
}

func (s *keySet) has(key uint64) bool {
	if s.table != nil {
		return s.table.has(key)
	}
	return key>>6 < uint64(len(s.bits)) && s.bits[key>>6]&(1<<(key&63)) != 0
}

// add inserts key and reports whether it was new.
//
//ecrpq:charged the owning kernel charges bytes() as part of its footprint's high-water mark
func (s *keySet) add(key uint64) bool {
	if s.table != nil {
		_, fresh := s.table.add(key)
		return fresh
	}
	if w := int(key >> 6); w >= len(s.bits) {
		s.bits = append(s.bits, make([]uint64, w+1-len(s.bits))...)
	}
	fresh := s.bits[key>>6]&(1<<(key&63)) == 0
	s.bits[key>>6] |= 1 << (key & 63)
	return fresh
}

// clear empties the set, given exactly its members.
func (s *keySet) clear(members []uint64) {
	if s.table != nil {
		s.table.reset()
		return
	}
	for _, k := range members {
		s.bits[k>>6] &^= 1 << (k & 63)
	}
}

func (s *keySet) bytes() int64 { return int64(8*cap(s.bits)) + s.table.bytes() }

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
// by satisfying paths" from the set of accepting destinations met so far,
// resuming the traversal only when the answer is not yet known and
// suspending it again as soon as it is. A traversal therefore never
// explores further than an early-stopping search for the hardest
// destination asked of it, and every other destination of the same sources
// is a set probe. reach keeps the live traversal across calls with the
// same sources (a one-entry memo); Run is the exhaustive traversal the
// streamed sweep collects destinations with; witness reads the paths off
// the parent links of the traversal that found them.
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

	// Recording, what a witness is read off: witness's traversals do, reach's
	// if the owner wants paths, Run's — whose callers reorder dests — never.
	paths    bool    // reach records
	record   bool    // the live traversal records
	parents  []int32 // per queue slot: the slot it was first reached from; -1 for a start state
	destSlot []int32 // per member of dests, in the order met: the slot of its first accepting state
	child    uint64  // witness: the state whose first emit by the loaded one is being looked for

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
	need := f.visited.bytes() + f.accepted.bytes() + f.stateRows.bytes() + f.destRows.bytes() +
		int64(8*(cap(f.queue)+cap(f.dests))+4*(cap(f.parents)+cap(f.destSlot)))
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
	f.stateRows.reset()
	f.destRows.reset()
	f.queue, f.dests = f.queue[:0], f.dests[:0]
	f.parents, f.destSlot = f.parents[:0], f.destSlot[:0]
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
		f.parents = append(f.parents, int32(f.qi))
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
				if f.record {
					f.destSlot = append(f.destSlot, int32(f.qi))
				}
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
		if f.pack(f.nextRel, f.newVerts, f.newDone) != f.child {
			return
		}
		f.child = noDest // later emits of the same state read other letters
		for i, s := range f.joint {
			if s != alphabet.Pad {
				paths[i].Edges = append(paths[i].Edges, graphdb.Edge{Label: s, To: f.newVerts[i]})
			}
		}
	}
	for slot := f.destSlot[slices.Index(f.dests, want)]; f.parents[slot] >= 0; slot = f.parents[slot] {
		f.child = f.queue[slot]
		f.load(f.queue[f.parents[slot]])
		f.overRels(0)
	}
	f.emit = push
	for i := range paths {
		slices.Reverse(paths[i].Edges)
	}
	return paths, true, nil
}

// denseTableBits bounds the key width up to which a wordTable is a dense
// array indexed by key (2^20 slots); wider keys index it by their rank.
const denseTableBits = 20

// wordTable maps uint64 keys to slots of stride words, all zero until
// written. It is the per-state table of the sweep kernel (stride 2: the
// sources that reach a product state, and those not yet propagated from it)
// and the per-destination table the rows are emitted from (stride 1). Up to
// denseTableBits wide a key indexes its slot and the table covers the key
// space (at width 0 — the wide regime — it grows with the keys instead);
// a wider key indexes it by its rank. keys lists the distinct keys touched
// since the last reset, so clearing costs what was touched, never a pass
// over the key space.
type wordTable struct {
	stride int
	words  []uint64   // the slot of index i starts at i*stride
	index  *rankTable // past denseTableBits: key → index; nil where the key is the index
	keys   []uint64
}

//ecrpq:charged the owner charges bytes() to its scratch meter before the first traversal
func newWordTable(keyBits uint, stride int) *wordTable {
	if keyBits > denseTableBits {
		return &wordTable{stride: stride, index: new(rankTable)}
	}
	return &wordTable{stride: stride, words: make([]uint64, stride<<keyBits)}
}

// at returns key's slot, claiming a zeroed one on first use where the table
// does not cover the key space. The slice is valid until the next at or or
// call.
//
//ecrpq:charged slot growth is charged by the owner as the table's bytes() high-water mark
func (t *wordTable) at(key uint64) []uint64 {
	i := int(key)
	if t.index != nil {
		i, _ = t.index.add(key)
	}
	i *= t.stride
	if i >= len(t.words) {
		t.words = append(t.words, make([]uint64, i+t.stride-len(t.words))...)
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
	if t.index != nil {
		clear(t.words[:t.index.n*t.stride])
		t.index.reset()
	} else {
		for _, key := range t.keys {
			clear(t.at(key))
		}
	}
	t.keys = t.keys[:0]
}

// bytes is the table's current footprint.
func (t *wordTable) bytes() int64 { return int64(8*(cap(t.words)+cap(t.keys))) + t.index.bytes() }

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
		dests:       newWordTable(s.destBits, 1),
		mem:         mem,
	}
	k.emit = k.push
	return k, k.charge()
}

// charge lifts the scratch charge to the kernel's current footprint.
func (k *sweepKernel) charge() error {
	need := k.states.bytes() + k.dests.bytes() + k.stateRows.bytes() + k.destRows.bytes() + int64(8*cap(k.queue))
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
func decodeSource[T int | int32](idx, n int, srcs []T) {
	for i := range srcs {
		srcs[i] = T(idx % n)
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
	k.stateRows.reset() // destRows is kept: the owner reads destination keys after later Runs
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

package core

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

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

// A kernel's tables are pooled whole, as the join's are (cq's scratch), and
// keep their capacity from one kernel to the next. What a kernel charges is
// a function of what its search met, never of the capacity its scratch
// kept: a warm scratch and a cold one charge alike.
type kernelScratch interface {
	zero()           // clears what the last kernel wrote to the dense tables
	retained() int64 // the bytes the tables hold on to
}

// scratchPool hands out one kind of kernel scratch and counts the ones out,
// so tests can assert that every exit path of a kernel gives back what it
// took. An idle scratch holding more than maxPooledBytes is left to the
// collector.
type scratchPool[T kernelScratch] struct {
	pool sync.Pool
	out  atomic.Int64
}

const maxPooledBytes = 64 << 20

var (
	productScratches = scratchPool[*productScratch]{pool: sync.Pool{New: func() any { return new(productScratch) }}}
	sweepScratches   = scratchPool[*sweepScratch]{pool: sync.Pool{New: func() any { return new(sweepScratch) }}}
)

// scratchTaken, when set, sees every scratch a pool hands out (to drop or
// poison its tables). Nothing but a test assigns it.
var scratchTaken func(any)

func (p *scratchPool[T]) get() T {
	p.out.Add(1)
	sc := p.pool.Get().(T)
	if scratchTaken != nil {
		scratchTaken(sc)
	}
	return sc
}

func (p *scratchPool[T]) put(sc T) {
	p.out.Add(-1)
	sc.zero()
	if sc.retained() <= maxPooledBytes {
		p.pool.Put(sc)
	}
}

// zeroTo returns s at least n long, zeroing what it exposes: a table whose
// length only grows is all zero but for what its owner wrote, whatever its
// spare capacity holds.
func zeroTo(s []uint64, n int) []uint64 {
	if n > len(s) {
		s = append(s, make([]uint64, n-len(s))...)
	}
	return s
}

// hashedKeyBytes is a hashed key's charge: its row and two 12-byte slots.
const hashedKeyBytes = 32

// keyIndex lists the keys a kernel table holds, in order of first sight. A
// dense table keeps the list; a hashed one numbers its keys by it: a key of
// up to 63 bits is a packed row of its two 32-bit halves in a rowset.Set,
// its id the row's rank, and the rows are the list.
type keyIndex struct {
	hashed bool
	list   []uint64   // dense: the keys
	rows   rowset.Set // hashed: the keys' rows
}

// open empties the index for a use in the given regime. A hashed index
// keeps slots for as many keys as its last use held.
func (x *keyIndex) open(hashed bool) {
	x.hashed, x.list = hashed, x.list[:0]
	if hashed {
		x.rows.Reset(2, 32, x.rows.Len())
	}
}

// number returns a hashed key's id and whether this call gave it one, in
// one probe.
func (x *keyIndex) number(key uint64) (int, bool) {
	row := [2]int32{int32(key >> 32), int32(key)}
	id, fresh := x.rows.Add(row[:])
	return int(id), fresh
}

func (x *keyIndex) count() int {
	if x.hashed {
		return x.rows.Len()
	}
	return len(x.list)
}

// key returns the i-th key of the list.
func (x *keyIndex) key(i int) uint64 {
	if !x.hashed {
		return x.list[i]
	}
	row := x.rows.Row(int32(i))
	return uint64(uint32(row[0]))<<32 | uint64(uint32(row[1]))
}

// appendKeys appends the list to dst.
//
//ecrpq:charged a copy of a list the owning kernel charges
func (x *keyIndex) appendKeys(dst []uint64) []uint64 {
	for i := range x.count() {
		dst = append(dst, x.key(i))
	}
	return dst
}

func (x *keyIndex) bytes() int64 {
	if x.hashed {
		return hashedKeyBytes * int64(x.rows.Len())
	}
	return 8 * int64(len(x.list))
}

func (x *keyIndex) retained() int64 { return 8*int64(cap(x.list)) + x.rows.Bytes() }

// denseSetBits bounds the key width up to which a keySet is a bitset over
// its whole key space (2^16 bits = 8 KiB); a wider space is hashed.
const denseSetBits = 16

// keySet is a set of keys of a known width: a bitset over the key space up
// to denseSetBits, hashed past it. Its index lists the members in order of
// first sight, so zeroing the bitset costs what was added, never a pass
// over the key space. At width 0 (the wide regime's row ids) the bitset
// grows with the keys.
type keySet struct {
	keyIndex
	set   []uint64 // dense: a bit per key, zero but the members'
	words int      // dense: the words of the key space met so far
}

// open empties the set, whose bitset is zero, for keys of width bits.
func (s *keySet) open(width uint) {
	s.words = 0
	if s.keyIndex.open(width > denseSetBits); !s.hashed {
		s.words = int((uint64(1)<<width + 63) / 64)
		s.set = zeroTo(s.set, s.words)
	}
}

// zero clears the members' bits.
func (s *keySet) zero() {
	for _, k := range s.list {
		s.set[k>>6] &^= 1 << (k & 63)
	}
}

func (s *keySet) has(key uint64) bool {
	if s.hashed {
		return s.rows.Len() > 0 && s.rows.FindKey(key) >= 0
	}
	return key>>6 < uint64(len(s.set)) && s.set[key>>6]&(1<<(key&63)) != 0
}

// add inserts key and reports whether it was new.
func (s *keySet) add(key uint64) bool {
	if s.hashed {
		_, fresh := s.number(key)
		return fresh
	}
	if w := int(key>>6) + 1; w > s.words {
		s.words, s.set = w, zeroTo(s.set, w)
	}
	if s.set[key>>6]&(1<<(key&63)) != 0 {
		return false
	}
	s.set[key>>6] |= 1 << (key & 63)
	s.list = append(s.list, key)
	return true
}

func (s *keySet) bytes() int64 { return 8*int64(s.words) + s.keyIndex.bytes() }

func (s *keySet) retained() int64 { return 8*int64(cap(s.set)) + s.keyIndex.retained() }

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
// The tables are reused across traversals and zeroed from their own member
// lists. Not safe for concurrent use.
type fastProduct struct {
	productStep
	productScratch
	held *productScratch // the pooled scratch whose tables f holds; nil while it holds none

	qi        int   // the queue's head: its first qi states have been expanded
	srcs      []int // sources of the live traversal
	live      bool  // a traversal from srcs is suspended or exhausted, not failed
	maxStates int   // the live traversal's cap on distinct states (0 = unlimited)

	// Recording, what a witness is read off: witness's traversals do, reach's
	// if the owner wants paths, Run's — whose callers reorder dests — never.
	paths  bool   // reach records
	record bool   // the live traversal records
	child  uint64 // witness: the state whose first emit by the loaded one is being looked for

	traversals int // begins
	expanded   int // states whose successors were generated

	// What the tables and lists hold, charged as a high-water mark until releaseMem.
	mem     *govern.Meter
	charged int64
}

// productScratch is the product search's tables.
type productScratch struct {
	visited  keySet   // states met by the live traversal; its members, in breadth-first order, are the queue
	accepted keySet   // destination keys of the accepting states queued so far, in the order met
	parents  []int32  // per queue slot: the slot it was first reached from; -1 for a start state
	order    []uint64 // the accepted destinations in the order of their tuples (componentReachSet)
}

func (sc *productScratch) zero() {
	sc.visited.zero()
	sc.accepted.zero()
}

func (sc *productScratch) retained() int64 {
	return sc.visited.retained() + sc.accepted.retained() + int64(4*cap(sc.parents)+8*cap(sc.order))
}

func newFastProduct(db *graphdb.DB, c *component) *fastProduct {
	s := packProduct(db, c)
	f := &fastProduct{productStep: newProductStep(s), srcs: make([]int, s.t)}
	f.emit = f.push
	return f
}

// releaseMem closes the accounting scope: everything this fastProduct
// charged is released back to the reservation, and its scratch goes back
// to the pool. Safe on nil receivers and without an attached meter; the
// kernel stays usable, and a later traversal takes a scratch again.
func (f *fastProduct) releaseMem() {
	if f == nil {
		return
	}
	f.mem.Close()
	f.mem, f.charged = nil, 0
	f.live = false
	if f.held != nil {
		*f.held = f.productScratch
		productScratches.put(f.held)
		f.held, f.productScratch = nil, productScratch{}
	}
}

// charge lifts the charge to the kernel's current footprint.
func (f *fastProduct) charge() error {
	need := f.visited.bytes() + f.accepted.bytes() + f.stateRows.Bytes() + f.destRows.Bytes() + int64(4*len(f.parents))
	if need > f.charged {
		if err := f.mem.Grow(need - f.charged); err != nil {
			return fmt.Errorf("core: product search: %w", err)
		}
		f.charged = need
	}
	return nil
}

// begin abandons the live traversal and seeds a new one from srcs, capped
// at maxStates distinct states (0 = unlimited). The kernel's first
// traversal takes its scratch.
func (f *fastProduct) begin(ctx context.Context, srcs []int, maxStates int) error {
	f.live = false
	if f.mem == nil {
		f.mem = govern.MeterFrom(ctx)
	}
	if f.held == nil {
		f.held = productScratches.get()
		f.productScratch = *f.held
	} else {
		f.zero()
	}
	f.visited.open(f.bits)
	f.accepted.open(f.destBits)
	f.stateRows.Clear()
	f.destRows.Clear()
	f.parents = f.parents[:0]
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
	if err == nil && f.visited.count() > 0 {
		err = pollSearch(ctx)
	}
	f.live = err == nil
	return err
}

// push queues the successor (nextQ, newVerts, newDone) of the state in
// slot qi on first sight, and an accepting one's destination on its first
// sight: the goal test is at generation. The queue is FIFO, so the first
// state queued over a destination is the first that would be popped over it.
func (f *fastProduct) push() {
	if !f.visited.add(f.pack(f.nextQ, f.newVerts, f.newDone)) {
		return
	}
	if f.record {
		f.parents = append(f.parents, int32(f.qi))
	}
	if !f.nfa.Accept[f.nextQ] {
		return
	}
	f.accepted.add(f.destKey(f.newVerts))
}

// seek reports whether the live traversal reaches an accepting state over
// the destination tuple packed in want (destKey).
func (f *fastProduct) seek(ctx context.Context, want uint64) (bool, error) {
	if f.accepted.has(want) {
		return true, nil
	}
	return f.advance(ctx, want)
}

// advance resumes the live traversal, which has not accepted want, until
// the expansion of slot qi queues an accepting state over want — it returns
// once that parent is fully expanded, with the queue's head past it — or
// until the queue is exhausted. It polls ctx and the core.budget fault
// point every cancelCheckInterval states, charges what it met when it
// returns, and fails once more than maxStates distinct states have been
// met; a failed traversal is not resumable.
func (f *fastProduct) advance(ctx context.Context, want uint64) (found bool, err error) {
	defer func() {
		if err == nil {
			err = f.charge()
		}
		if err != nil {
			found, f.live = false, false
		}
	}()
	for f.qi < f.visited.count() {
		if f.qi%cancelCheckInterval == 0 && f.qi > 0 {
			if err := pollSearch(ctx); err != nil {
				return false, err
			}
			if err := f.charge(); err != nil {
				return false, err
			}
		}
		if f.maxStates > 0 && f.visited.count() > f.maxStates {
			return false, fmt.Errorf("core: product exceeded the state budget of %d", f.maxStates)
		}
		f.load(f.visited.key(f.qi))
		f.expanded++
		met := f.accepted.count()
		f.step()
		f.qi++
		if f.accepted.count() > met && f.accepted.has(want) {
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

// Run traverses everything reachable from srcs and leaves in f.accepted
// the distinct destination keys of the accepting states.
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
// state queued over dsts back to a start state. A link stores no letter: each
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
	slot := int32(0) // the first accepting state queued over want
	for f.load(f.visited.key(0)); !f.accepting() || f.destKey(f.verts) != want; f.load(f.visited.key(int(slot))) {
		slot++
	}
	for ; f.parents[slot] >= 0; slot = f.parents[slot] {
		f.child = f.visited.key(int(slot))
		f.load(f.visited.key(int(f.parents[slot])))
		f.step()
	}
	f.emit = push
	for i := range paths {
		slices.Reverse(paths[i].Edges)
	}
	return paths, true, nil
}

// denseTableWords bounds a wordTable over its key space; a larger one is hashed.
const denseTableWords = 1 << 21

// wordTable maps keys to slots of stride words, all zero until written. It
// is the sweep kernel's state table (stride 1: a state's id), the
// per-destination table the rows are emitted from and the table of lanes
// by source vertex (stride w). Where slots over the whole key space fit in
// denseTableWords a key indexes its slot (at width 0 — the wide regime —
// the table grows with the keys instead); otherwise the key's id in the
// hashed index does. The index lists the distinct keys touched, so zeroing
// costs what was touched.
type wordTable struct {
	keyIndex
	keyBits uint
	stride  int
	words   []uint64 // the slot of index i starts at i*stride; zero but the touched slots
	used    int      // the words of the slots this use reaches
}

// open empties the table, whose words are zero, for keys of keyBits bits
// and slots of stride words.
func (t *wordTable) open(keyBits uint, stride int) {
	t.keyBits, t.stride, t.used = keyBits, stride, 0
	if t.keyIndex.open(keyBits > 21 || stride<<keyBits > denseTableWords); !t.hashed {
		t.used = stride << keyBits
		t.words = zeroTo(t.words, t.used)
	}
}

// zero clears every touched slot.
func (t *wordTable) zero() {
	if t.hashed {
		clear(t.words[:t.used])
		return
	}
	for _, key := range t.list {
		clear(t.words[int(key)*t.stride:][:t.stride])
	}
}

// reset empties the table for another traversal.
func (t *wordTable) reset() {
	t.zero()
	t.open(t.keyBits, t.stride)
}

// at returns key's slot, claiming a zeroed one on first use where the table
// does not cover the key space. The slice is valid until the next at call.
func (t *wordTable) at(key uint64) []uint64 {
	i := int(key)
	if t.hashed {
		i, _ = t.number(key)
	}
	if i *= t.stride; i+t.stride > t.used {
		t.used = i + t.stride
		t.words = zeroTo(t.words, t.used)
	}
	return t.words[i : i+t.stride]
}

// or ORs the lane mask bits (non-zero) into key's slot, listing the key on
// first touch.
func (t *wordTable) or(key uint64, bits []uint64) {
	slot := t.at(key)
	if !t.hashed && slices.Max(slot) == 0 {
		t.list = append(t.list, key)
	}
	for i, b := range bits {
		slot[i] |= b
	}
}

// id returns key's id in a table of one-word slots — ids count from 0 in
// order of first sight — and whether this call gave it one. A hashed table
// numbers its keys itself and writes no slot.
func (t *wordTable) id(key uint64) (int32, bool) {
	if t.hashed {
		id, fresh := t.number(key)
		return int32(id), fresh
	}
	slot := t.at(key)
	if slot[0] == 0 {
		t.list = append(t.list, key)
		slot[0] = uint64(len(t.list))
		return int32(len(t.list) - 1), true
	}
	return int32(slot[0] - 1), false
}

func (t *wordTable) bytes() int64 { return 8*int64(t.used) + t.keyIndex.bytes() }

func (t *wordTable) retained() int64 { return 8*int64(cap(t.words)) + t.keyIndex.retained() }

// errStateBudget reports a sweep traversal that met more distinct product
// states than its budget; sweepKernel.batch splits the batch and retries.
var errStateBudget = errors.New("core: product exceeded the state budget")

// sweepKernel sweeps a component's source tuples for the batched Lemma 4.3
// sweep: a traversal of the packed product graph that carries up to 64w
// source tuples at once (lane i is bit i%64 of word i/64 of a lane mask) and
// expands each state it meets once. Pass 1 is Tarjan's search for the
// strongly connected components, which keeps each state's successor ids as
// a CSR edge list; pass 2 ORs each component's lanes into those its edges
// lead to, from the last completed to the first (a topological order).
type sweepKernel struct {
	productStep
	*sweepScratch
	pat  *atomPattern
	n, c int32 // the traversal's expansions and completed components
	rows int   // the rows the segments stand for
	// Traversals begun, and the states and components of those completed.
	runs, states, sccs int
	mem                *govern.Meter // the tables' charge, a high-water mark released by release
	charged            int64
	rowMem             *govern.Meter // the rows' charge; kept on success
}

// sweepScratch is every table and list a sweep uses.
type sweepScratch struct {
	ids      wordTable // per packed state: 1 + its id, ids in order of first sight; its keys are the states by id
	keep     wordTable // per (track, vertex): the lanes whose source on that track is that vertex
	dests    wordTable // per packed destination tuple: the lanes that reach it
	num      []int32   // per id: 0 until expanded, then its order of expansion from 1, and -1-c once its component c completes
	out      []int32   // per id: its successors are edges[out[2id]:out[2id+1]]
	edges    []int32   // successor ids, led by the seeds: len(nfa.Starts) per lane
	path     []int32   // the search's path, a triple per state on it: id, next edge, low-link
	stack    []int32   // Tarjan's stack: the expanded ids whose component is not complete
	finished []int32   // the ids by component, in order of completion
	masks    []uint64  // per component: the lanes that reach it, w words
	mask     []uint64  // w words
	// Each lane word of a batch leaves a segment: its distinct destinations
	// in key order, each with the word — 16 bytes for up to 64 rows, so the
	// rows themselves are only written once, by fill, at their final place.
	segs  []sweepSegment
	keys  []uint64 // destination keys of all segments, back to back
	words []uint64 // keys[j] is reached by the sources in words[j]
	order []uint64 // a batch's destination keys in the order of their tuples
	// The batch's source tuples, lane i at lanes[i*t:(i+1)*t], and one
	// destination tuple.
	lanes, dst []int32
}

func (sc *sweepScratch) zero() {
	sc.ids.zero()
	sc.keep.zero()
	sc.dests.zero()
}

// retained leaves out the lanes, which a lane cap bounds.
func (sc *sweepScratch) retained() int64 {
	return sc.ids.retained() + sc.keep.retained() + sc.dests.retained() + 24*int64(cap(sc.segs)) + 8*int64(cap(sc.masks)+cap(sc.keys)+cap(sc.words)+cap(sc.order)) +
		4*int64(cap(sc.num)+cap(sc.out)+cap(sc.edges)+cap(sc.path)+cap(sc.stack)+cap(sc.finished))
}

// sweepSegment is one word's slice of the pair arrays.
type sweepSegment struct {
	first int // sweep index of the word's source 0 (bit 0 of the words)
	end   int // the segment's pairs are keys[previous end:end]
	rows  int
}

// newSweepKernel makes a kernel of w-word lane masks over the shared
// product shape for the atom pattern pat, takes its scratch and charges its
// tables to res.
func newSweepKernel(s *productShape, pat *atomPattern, w int, res *govern.Reservation) (*sweepKernel, error) {
	keep := uint(0) // the lanes by source vertex are read only for a source equality
	if slices.ContainsFunc(pat.dst, func(e int) bool { return e >= 0 && e%2 == 0 }) {
		keep = s.vBits + uint(bits.Len(uint(s.t-1)))
	}
	k := &sweepKernel{productStep: newProductStep(s), sweepScratch: sweepScratches.get(), pat: pat, mem: res.NewMeter(), rowMem: res.NewMeter()}
	k.ids.open(s.bits, 1)
	k.keep.open(keep, w)
	k.dests.open(s.destBits, w)
	k.mask = zeroTo(k.mask[:0], w)
	k.lanes, k.dst = slices.Grow(k.lanes[:0], 64*w*s.t)[:64*w*s.t], slices.Grow(k.dst[:0], s.t)[:s.t]
	k.segs, k.keys, k.words, k.masks = k.segs[:0], k.keys[:0], k.words[:0], k.masks[:0]
	k.num, k.out, k.edges, k.path, k.stack, k.finished = k.num[:0], k.out[:0], k.edges[:0], k.path[:0], k.stack[:0], k.finished[:0]
	k.emit = k.meet
	return k, k.charge()
}

// release closes the tables' meter, and the rows' too if the sweep failed,
// and gives the scratch back to its pool; the kernel is not used again.
func (k *sweepKernel) release(failed bool) {
	if k.mem.Close(); failed {
		k.rowMem.Close()
	}
	sweepScratches.put(k.sweepScratch)
	k.sweepScratch = nil
}

// charge lifts the scratch charge to the kernel's current footprint.
func (k *sweepKernel) charge() error {
	need := k.ids.bytes() + k.keep.bytes() + k.dests.bytes() + k.stateRows.Bytes() + k.destRows.Bytes() + int64(8*len(k.masks)+
		4*(len(k.num)+len(k.out)+len(k.edges)+len(k.path)+len(k.stack)+len(k.finished)))
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
// k.dests, per destination tuple, the mask of lanes with satisfying paths to
// it, less what the atom's equalities cut. It returns errStateBudget as soon
// as more than maxStates distinct states have been met (0 = unlimited),
// polls ctx every cancelCheckInterval expansions and returns ctx.Err() on
// cancellation; k.dests is meaningful only after a nil return.
func (k *sweepKernel) Run(ctx context.Context, lanes []int32, lo, hi, maxStates int) error {
	k.ids.reset()
	k.keep.reset()
	k.dests.reset()
	k.stateRows.Clear() // destRows is kept: the owner reads destination keys after later Runs
	k.num, k.out, k.edges, k.path, k.stack, k.finished = k.num[:0], k.out[:0], k.edges[:0], k.path[:0], k.stack[:0], k.finished[:0]
	k.n, k.c, k.newDone = 0, 0, 0
	k.runs++
	clear(k.mask)
	for i := lo; i < hi; i++ {
		src := lanes[i*k.t : (i+1)*k.t]
		for j, v := range src {
			k.newVerts[j] = int(v)
		}
		k.seed()
		word := i / 64
		k.mask[word] = 1 << uint(i%64)
		for _, e := range k.pat.dst {
			if e >= 0 && e%2 == 0 {
				k.keep.or(uint64(e/2)<<k.vBits|uint64(src[e/2]), k.mask)
			}
		}
		k.mask[word] = 0
	}
	seeds := len(k.edges)
	if err := k.search(ctx, seeds, maxStates); err != nil {
		return err
	}

	w := len(k.mask)
	k.masks = zeroTo(k.masks[:0], int(k.c)*w)
	masks, mask := k.masks, k.mask
	for s, id := range k.edges[:seeds] {
		lane := lo + s/len(k.nfa.Starts)
		masks[int(-1-k.num[id])*w+lane/64] |= 1 << uint(lane%64)
	}
	// An accepting state's lanes reach its destination tuple, less the lanes
	// whose source a destination must equal and does not, or all of them if
	// two destinations that must agree do not.
states:
	for i := len(k.finished) - 1; i >= 0; i-- {
		v := k.finished[i]
		c := int(-1 - k.num[v])
		for _, u := range k.edges[k.out[2*v]:k.out[2*v+1]] {
			d := int(-1 - k.num[u]) // d = c ORs the mask into itself
			for j, m := range masks[c*w : (c+1)*w] {
				masks[d*w+j] |= m
			}
		}
		if k.load(k.ids.key(int(v))); !k.accepting() {
			continue
		}
		copy(mask, masks[c*w:(c+1)*w])
		for j, e := range k.pat.dst {
			if e >= 0 && e%2 == 1 && k.verts[j] != k.verts[e/2] {
				continue states
			}
			if e >= 0 && e%2 == 0 {
				for i, m := range k.keep.at(uint64(e/2)<<k.vBits | uint64(k.verts[j])) {
					mask[i] &= m
				}
			}
		}
		if slices.Max(mask) != 0 {
			k.dests.or(k.destKey(k.verts), mask)
		}
	}
	k.states += k.ids.count()
	k.sccs += int(k.c)
	return k.charge()
}

// search is pass 1: an iterative Tarjan search from each of the first seeds
// edges that no earlier one reached. It numbers each component it completes
// and appends its ids to finished.
func (k *sweepKernel) search(ctx context.Context, seeds, maxStates int) error {
	for s := 0; s < seeds; s++ {
		if root := k.edges[s]; k.num[root] == 0 {
			if err := k.visit(ctx, root, maxStates); err != nil {
				return err
			}
		}
		for len(k.path) > 0 {
			top := k.path[len(k.path)-3:]
			if v, e := top[0], top[1]; e < k.out[2*v+1] {
				top[1]++
				switch nu := k.num[k.edges[e]]; {
				case nu == 0:
					if err := k.visit(ctx, k.edges[e], maxStates); err != nil {
						return err
					}
				case nu > 0: // on the stack; a completed component's ids are negative
					top[2] = min(top[2], nu)
				}
				continue
			}
			v, low := top[0], top[2]
			k.path = k.path[:len(k.path)-3]
			if low == k.num[v] { // v is the root of a component: it and what is above it on the stack
				for u := int32(-1); u != v; {
					u = k.stack[len(k.stack)-1]
					k.stack = k.stack[:len(k.stack)-1]
					k.num[u] = -1 - k.c
					k.finished = append(k.finished, u)
				}
				k.c++
			}
			if p := len(k.path); p > 0 {
				k.path[p-1] = min(k.path[p-1], low)
			}
		}
	}
	return nil
}

// visit numbers id, pushes it on the stack and the path, and expands it
// into its edges.
func (k *sweepKernel) visit(ctx context.Context, id int32, maxStates int) error {
	if k.n%cancelCheckInterval == 0 {
		if err := pollSearch(ctx); err != nil {
			return err
		}
		if err := k.charge(); err != nil {
			return err
		}
	}
	if maxStates > 0 && k.ids.count() > maxStates {
		return errStateBudget
	}
	k.n++
	k.num[id] = k.n
	k.stack = append(k.stack, id)
	k.out[2*id] = int32(len(k.edges))
	k.load(k.ids.key(int(id)))
	k.step()
	k.out[2*id+1] = int32(len(k.edges))
	k.path = append(k.path, id, k.out[2*id], k.n)
	return nil
}

// meet appends the id of the state (nextQ, newVerts, newDone) to the edges,
// giving it the next id on first sight.
func (k *sweepKernel) meet() {
	id, fresh := k.ids.id(k.pack(k.nextQ, k.newVerts, k.newDone))
	if fresh {
		k.num = append(k.num, 0)
		k.out = append(k.out, 0, 0)
	}
	k.edges = append(k.edges, id)
}

package core

import (
	"context"
	"errors"
	"fmt"
	"math/bits"

	"ecrpq/internal/alphabet"
	"ecrpq/internal/faultinject"
	"ecrpq/internal/govern"
	"ecrpq/internal/graphdb"
	"ecrpq/internal/invariant"
)

// fastProduct is an allocation-light variant of productSearch for the hot
// paths that do not need witness reconstruction (existence checks and the
// Lemma 4.3 R' sweep). Product states are packed into a single uint64:
//
//	[ relation-state combo | vertex per track | done bits ]
//
// It applies when the packing fits in 63 bits; callers fall back to the
// general search otherwise.
type fastProduct struct {
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

	// Precomputed per-relation transition lists plus the stall pseudo-move.
	// Transitions are grouped per source state (from nfaView).

	// Scratch (reused across Run calls). For small packed spaces a bitset
	// replaces the map; it is cleared incrementally via the previous queue.
	visited map[uint64]struct{}
	bitset  []uint64
	queue   []uint64
	// dests collects the packed destination tuples of one Run for
	// componentReachSet.
	dests []uint64

	// Byte accounting against the context reservation. Scratch is reused
	// across Run calls, so only high-water growth is charged: chargedStates
	// is the largest queue length charged so far, chargedFixed marks the
	// one-time bitset charge. The owner releases via releaseMem.
	mem           *govern.Meter
	chargedStates int
	chargedFixed  bool
	// adjBytes is the retained size of the adjacency table, charged with
	// the other fixed costs on first Run.
	adjBytes int64
}

// fastStateBytes estimates the incremental cost of one product state: a
// queue slot plus, when the visited set is a map, its entry (the bitset is
// charged once up front instead).
const (
	fastStateBitsetBytes = 8
	fastStateMapBytes    = 56
)

// releaseMem closes the accounting scope: everything this fastProduct
// charged is released back to the reservation. Safe on nil receivers and
// without an attached meter; the scratch itself stays reusable.
func (f *fastProduct) releaseMem() {
	if f == nil {
		return
	}
	f.mem.Close()
	f.mem = nil
	f.chargedStates = 0
	f.chargedFixed = false
}

// bitsetMaxBits bounds the packed-space size for which a bitset is used
// (2^26 bits = 8 MiB).
const bitsetMaxBits = 26

// newFastProduct returns nil when the state does not pack into 63 bits.
func newFastProduct(db *graphdb.DB, c *component) *fastProduct {
	f := packProduct(db, c, nil)
	if f == nil {
		return nil
	}
	f.adjBytes = adjacencyBytes(f.adj)
	if f.bits <= bitsetMaxBits {
		f.bitset = make([]uint64, (uint64(1)<<f.bits+63)/64)
	} else {
		f.visited = make(map[uint64]struct{})
	}
	return f
}

// packProduct lays out the packed product state of c over db and decodes
// the relation automata, without any search scratch: the result is
// read-only and may be shared by concurrent sweep kernels. adj is the
// database's adjacency table (buildAdjacency), built here when nil. It
// returns nil when the state does not pack into 63 bits.
func packProduct(db *graphdb.DB, c *component, adj [][]int32) *fastProduct {
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
	return &fastProduct{
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
// vertex-major symbol-indexed table used by expand.
//
//ecrpq:bounds-checked
//ecrpq:charged adjacency bytes (adjacencyBytes) are charged by the owner: fastProduct.Run's one-time fixed-cost Grow, or buildReductionMerged for the table its sweeps share
func buildAdjacency(db *graphdb.DB, nsym int) [][]int32 {
	adj := make([][]int32, db.NumVertices()*nsym)
	for v := 0; v < db.NumVertices(); v++ {
		for _, e := range db.Out(v) {
			idx := v*nsym + int(e.Label)
			invariant.Assert(idx >= 0 && idx < len(adj), "core: edge label outside the database alphabet")
			adj[idx] = append(adj[idx], int32(e.To))
		}
	}
	return adj
}

// adjAt returns the successors of vertex v along s-labelled edges.
//
//ecrpq:bounds-checked
func (f *fastProduct) adjAt(v int, s alphabet.Symbol) []int32 {
	idx := v*f.nsym + int(s)
	invariant.Assert(idx >= 0 && idx < len(f.adj), "core: adjacency access outside the packed table")
	return f.adj[idx]
}

func (f *fastProduct) pack(relStates []int, verts []int, done uint64) uint64 {
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

func (f *fastProduct) unpack(key uint64, relStates []int, verts []int) (done uint64) {
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
func (f *fastProduct) destKey(verts []int) uint64 {
	key := uint64(0)
	for _, v := range verts {
		key = key<<f.vBits | uint64(v)
	}
	return key
}

// unpackDest inverts destKey into verts.
func (f *fastProduct) unpackDest(key uint64, verts []int) {
	mask := uint64(1)<<f.vBits - 1
	for i := len(verts) - 1; i >= 0; i-- {
		verts[i] = int(key & mask)
		key >>= f.vBits
	}
}

// cancelCheckInterval is how many product states are processed between
// context-cancellation polls. Polling ctx.Err() costs an atomic load, so
// the searches amortize it over a batch of states; the interval bounds
// cancellation latency to the time spent expanding that many states.
const cancelCheckInterval = 1024

// Run explores from the given sources and calls accept on every accepting
// state's vertex tuple; accept returning true stops the search early (and
// Run returns true). maxStates caps exploration (0 = unlimited). The
// search polls ctx every cancelCheckInterval states and returns ctx.Err()
// on cancellation.
func (f *fastProduct) Run(ctx context.Context, srcs []int, accept func(verts []int) bool, maxStates int) (bool, error) {
	if f.mem == nil {
		if r := govern.FromContext(ctx); r != nil {
			f.mem = r.NewMeter()
		}
	}
	perState := int64(fastStateBitsetBytes)
	if f.visited != nil {
		perState = fastStateMapBytes
	}
	if f.mem != nil && !f.chargedFixed {
		f.chargedFixed = true
		if err := f.mem.Grow(int64(len(f.bitset))*8 + f.adjBytes); err != nil {
			return false, fmt.Errorf("core: product search: %w", err)
		}
	}
	if f.bitset != nil {
		// Incremental clear: exactly the previous run's states are set.
		for _, k := range f.queue {
			f.bitset[k>>6] &^= 1 << (k & 63)
		}
	} else {
		clear(f.visited)
	}
	f.queue = f.queue[:0]
	t := f.t
	const unset = alphabet.Unset

	relStates := make([]int, len(f.nfas))
	verts := make([]int, t)
	nextRel := make([]int, len(f.nfas))
	joint := make([]alphabet.Symbol, t)
	newVerts := make([]int, t)

	var push func(key uint64)
	if f.bitset != nil {
		push = func(key uint64) {
			if f.bitset[key>>6]&(1<<(key&63)) == 0 {
				f.bitset[key>>6] |= 1 << (key & 63)
				f.queue = append(f.queue, key)
			}
		}
	} else {
		push = func(key uint64) {
			if _, ok := f.visited[key]; !ok {
				f.visited[key] = struct{}{}
				f.queue = append(f.queue, key)
			}
		}
	}
	// Start states: all combinations of relation start states.
	var buildStarts func(i int)
	buildStarts = func(i int) {
		if i == len(f.nfas) {
			push(f.pack(relStates, srcs, 0))
			return
		}
		for _, q := range f.nfas[i].starts {
			relStates[i] = q
			buildStarts(i + 1)
		}
	}
	buildStarts(0)

	for qi := 0; qi < len(f.queue); qi++ {
		if qi%cancelCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return false, err
			}
			if err := faultinject.Point("core.budget"); err != nil {
				return false, fmt.Errorf("core: product search aborted: %w", err)
			}
			if f.mem != nil && len(f.queue) > f.chargedStates {
				if err := f.mem.Grow(int64(len(f.queue)-f.chargedStates) * perState); err != nil {
					return false, fmt.Errorf("core: product search: %w", err)
				}
				f.chargedStates = len(f.queue)
			}
		}
		key := f.queue[qi]
		done := f.unpack(key, relStates, verts)
		allAcc := true
		for i, v := range f.nfas {
			if !v.accept[relStates[i]] {
				allAcc = false
				break
			}
		}
		if allAcc && accept(verts) {
			return true, nil
		}
		if maxStates > 0 && len(f.queue) > maxStates {
			return false, fmt.Errorf("core: product exceeded the state budget of %d", maxStates)
		}
		for i := range joint {
			joint[i] = unset
		}
		var overRels func(i int)
		overRels = func(i int) {
			if i == len(f.nfas) {
				f.expand(done, verts, joint, nextRel, newVerts, push)
				return
			}
			for _, tr := range f.nfas[i].trans[relStates[i]] {
				ok := true
				var touched [16]int
				nt := 0
				for k, s := range tr.tuple {
					mt := f.c.relTracks[i][k]
					if joint[mt] == unset {
						joint[mt] = s
						touched[nt] = mt
						nt++
					} else if joint[mt] != s {
						ok = false
						break
					}
				}
				if ok {
					nextRel[i] = tr.to
					overRels(i + 1)
				}
				for j := 0; j < nt; j++ {
					joint[touched[j]] = unset
				}
			}
			// Stall: this relation's tracks are all padded from here on.
			ok := true
			var touched [16]int
			nt := 0
			for _, mt := range f.c.relTracks[i] {
				if joint[mt] == unset {
					joint[mt] = alphabet.Pad
					touched[nt] = mt
					nt++
				} else if joint[mt] != alphabet.Pad {
					ok = false
					break
				}
			}
			if ok {
				nextRel[i] = relStates[i]
				overRels(i + 1)
			}
			for j := 0; j < nt; j++ {
				joint[touched[j]] = unset
			}
		}
		overRels(0)
	}
	return false, nil
}

// expand advances database pointers for a fully-determined joint letter.
func (f *fastProduct) expand(done uint64, verts []int, joint []alphabet.Symbol, nextRel, newVerts []int, push func(uint64)) {
	t := f.t
	allPad := true
	for i := 0; i < t; i++ {
		if joint[i] != alphabet.Pad {
			allPad = false
			if done&(1<<uint(i)) != 0 {
				return
			}
		}
	}
	if allPad {
		return
	}
	newDone := done
	for i := 0; i < t; i++ {
		if joint[i] == alphabet.Pad {
			newDone |= 1 << uint(i)
		}
	}
	copy(newVerts, verts)
	var overTracks func(i int)
	overTracks = func(i int) {
		if i == t {
			push(f.pack(nextRel, newVerts, newDone))
			return
		}
		if joint[i] == alphabet.Pad {
			overTracks(i + 1)
			return
		}
		cur := verts[i]
		for _, to := range f.adjAt(cur, joint[i]) {
			newVerts[i] = int(to)
			overTracks(i + 1)
		}
		newVerts[i] = cur
	}
	overTracks(0)
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
// share every state they have in common. The product shape f is shared
// and read-only; everything else belongs to this kernel.
type sweepKernel struct {
	f      *fastProduct
	states *wordTable // per packed state: [reached, pending]
	dests  *wordTable // per packed destination tuple: sources that reach it
	queue  []uint64   // states with pending sources, FIFO; a state re-enters when new sources arrive

	// Scratch accounting: the tables and the queue are charged as a
	// high-water mark and released by the owner closing mem.
	mem     *govern.Meter
	charged int64

	// Registers of the state being expanded (what Run keeps in closures).
	relStates, nextRel []int
	verts, newVerts    []int
	joint              []alphabet.Symbol
	done, newDone      uint64
	delta              uint64 // sources being propagated
}

// newSweepKernel allocates a kernel over the shared product shape and
// charges its tables to mem.
func newSweepKernel(f *fastProduct, mem *govern.Meter) (*sweepKernel, error) {
	k := &sweepKernel{
		f:         f,
		states:    newWordTable(f.bits, 2),
		dests:     newWordTable(uint(f.t)*f.vBits, 1),
		mem:       mem,
		relStates: make([]int, len(f.nfas)),
		nextRel:   make([]int, len(f.nfas)),
		verts:     make([]int, f.t),
		newVerts:  make([]int, f.t),
		joint:     make([]alphabet.Symbol, f.t),
	}
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
	n := k.f.db.NumVertices()
	k.newDone = 0
	for i := lo; i < hi; i++ {
		decodeSource(first+i, n, k.newVerts)
		k.delta = 1 << uint(i)
		k.seed(0)
	}
	for qi := 0; qi < len(k.queue); qi++ {
		if qi%cancelCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := faultinject.Point("core.budget"); err != nil {
				return fmt.Errorf("core: product search aborted: %w", err)
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
		k.done = k.f.unpack(key, k.relStates, k.verts)
		for i := range k.joint {
			k.joint[i] = alphabet.Unset
		}
		k.overRels(0)
	}
	for _, key := range k.states.keys {
		k.f.unpack(key, k.relStates, k.verts)
		if acceptState(k.f.nfas, k.relStates) {
			k.dests.or(k.f.destKey(k.verts), k.states.at(key)[0])
		}
	}
	return k.charge()
}

// push delivers the sources being propagated to the state (nextRel,
// newVerts, newDone), queueing it if any of them is new to it.
func (k *sweepKernel) push() {
	key := k.f.pack(k.nextRel, k.newVerts, k.newDone)
	slot, fresh := k.states.or(key, k.delta)
	if fresh == 0 {
		return
	}
	if slot[1] == 0 {
		k.queue = append(k.queue, key)
	}
	slot[1] |= fresh
}

// seed pushes every combination of relation start states over newVerts.
func (k *sweepKernel) seed(i int) {
	if i == len(k.f.nfas) {
		k.push()
		return
	}
	for _, q := range k.f.nfas[i].starts {
		k.nextRel[i] = q
		k.seed(i + 1)
	}
}

// overRels extends the joint letter with one move (or the stall) of
// relation i, exactly as fastProduct.Run's closure of the same name.
func (k *sweepKernel) overRels(i int) {
	f := k.f
	if i == len(f.nfas) {
		k.expand()
		return
	}
	const unset = alphabet.Unset
	var touched [16]int
	for _, tr := range f.nfas[i].trans[k.relStates[i]] {
		ok := true
		nt := 0
		for j, s := range tr.tuple {
			mt := f.c.relTracks[i][j]
			if k.joint[mt] == unset {
				k.joint[mt] = s
				touched[nt] = mt
				nt++
			} else if k.joint[mt] != s {
				ok = false
				break
			}
		}
		if ok {
			k.nextRel[i] = tr.to
			k.overRels(i + 1)
		}
		for j := 0; j < nt; j++ {
			k.joint[touched[j]] = unset
		}
	}
	// Stall: this relation's tracks are all padded from here on.
	ok := true
	nt := 0
	for _, mt := range f.c.relTracks[i] {
		if k.joint[mt] == unset {
			k.joint[mt] = alphabet.Pad
			touched[nt] = mt
			nt++
		} else if k.joint[mt] != alphabet.Pad {
			ok = false
			break
		}
	}
	if ok {
		k.nextRel[i] = k.relStates[i]
		k.overRels(i + 1)
	}
	for j := 0; j < nt; j++ {
		k.joint[touched[j]] = unset
	}
}

// expand advances database pointers for a fully-determined joint letter.
func (k *sweepKernel) expand() {
	allPad := true
	k.newDone = k.done
	for i, s := range k.joint {
		if s == alphabet.Pad {
			k.newDone |= 1 << uint(i)
		} else {
			allPad = false
			if k.done&(1<<uint(i)) != 0 {
				return
			}
		}
	}
	if allPad {
		return
	}
	copy(k.newVerts, k.verts)
	k.overTracks(0)
}

func (k *sweepKernel) overTracks(i int) {
	if i == k.f.t {
		k.push()
		return
	}
	if k.joint[i] == alphabet.Pad {
		k.overTracks(i + 1)
		return
	}
	for _, to := range k.f.adjAt(k.verts[i], k.joint[i]) {
		k.newVerts[i] = int(to)
		k.overTracks(i + 1)
	}
	k.newVerts[i] = k.verts[i]
}

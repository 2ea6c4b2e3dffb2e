package rowset

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// reference is the set read off its definition: a map from a row's text to
// its rank of first sight.
type reference struct {
	ids  map[string]int32
	rows [][]int32
}

func (r *reference) add(row []int32) (int32, bool) {
	k := fmt.Sprint(row)
	if id, ok := r.ids[k]; ok {
		return id, false
	}
	r.ids[k], r.rows = int32(len(r.rows)), append(r.rows, slices.Clone(row))
	return int32(len(r.rows) - 1), true
}

func (r *reference) find(row []int32) int32 {
	if id, ok := r.ids[fmt.Sprint(row)]; ok {
		return id
	}
	return -1
}

// check drives a Set and the reference with the same operations, read off
// ops two bytes at a time: the first picks the operation (add, find, or now
// and then a reset with a hint or a clear), the second seeds the row's
// values, which are drawn from a few values so that rows repeat.
func check(t *testing.T, width, bits int, ops []byte) {
	t.Helper()
	var s Set
	s.Reset(width, bits, 0)
	ref := &reference{ids: map[string]int32{}}
	row := make([]int32, width)
	limit := int64(1) << min(bits, 31)
	for len(ops) >= 2 {
		op, seed := ops[0], ops[1]
		ops = ops[2:]
		x := uint64(seed)
		for i := range row {
			x = x*6364136223846793005 + 1442695040888963407
			if row[i] = int32(int64(x>>33) % min(limit, 6)); x>>60 == 0 { // now and then the top of the value range
				row[i] = int32(limit - 1)
			}
		}
		switch op % 16 {
		case 0:
			s.Reset(width, bits, int(seed%40))
			ref = &reference{ids: map[string]int32{}}
		case 1:
			s.Clear()
			ref = &reference{ids: map[string]int32{}}
		case 2, 3, 4:
			if got, want := s.Find(row), ref.find(row); got != want {
				t.Fatalf("width %d, bits %d: Find(%v) = %d, want %d", width, bits, row, got, want)
			}
			if got, want := s.FindKey(s.key(row)), ref.find(row); s.packed && got != want {
				t.Fatalf("width %d, bits %d: FindKey of %v = %d, want %d", width, bits, row, got, want)
			}
		default:
			id, fresh := s.Add(row)
			wantID, wantFresh := ref.add(row)
			if id != wantID || fresh != wantFresh {
				t.Fatalf("width %d, bits %d: Add(%v) = (%d, %v), want (%d, %v)", width, bits, row, id, fresh, wantID, wantFresh)
			}
		}
		if s.Len() != len(ref.rows) {
			t.Fatalf("width %d, bits %d: Len %d, want %d", width, bits, s.Len(), len(ref.rows))
		}
	}
	for id, want := range ref.rows {
		if got := s.Row(int32(id)); !slices.Equal(got, want) {
			t.Fatalf("width %d, bits %d: Row(%d) = %v, want %v", width, bits, id, got, want)
		}
		if got := s.Find(want); got != int32(id) {
			t.Fatalf("width %d, bits %d: Find(Row(%d)) = %d", width, bits, id, got)
		}
	}
}

// TestSetAgainstMap runs the differential check on every width 0–6 and
// value width 1, 8, 16 and 32: both the packed regime (width × bits ≤ 64)
// and the hashed one.
func TestSetAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for width := 0; width <= 6; width++ {
		for _, bits := range []int{1, 8, 16, 32} {
			ops := make([]byte, 4000)
			rng.Read(ops)
			check(t, width, bits, ops)
		}
	}
}

// TestSetGrowth adds distinct rows through several doublings, in both
// regimes, and reads every one back by id and by Find; a Reset with a hint
// keeps the table from growing for that many rows, and a set reset without
// one regrows in the storage it kept.
func TestSetGrowth(t *testing.T) {
	for _, c := range []struct{ width, bits int }{{2, 16}, {3, 32}} {
		var s Set
		s.Reset(c.width, c.bits, 0)
		row := make([]int32, c.width)
		const n = 5000
		for i := range n {
			row[0], row[c.width-1] = int32(i), int32(i%7)
			if id, fresh := s.Add(row); id != int32(i) || !fresh {
				t.Fatalf("%+v: Add of row %d = (%d, %v)", c, i, id, fresh)
			}
		}
		for i := range n {
			if r := s.Row(int32(i)); r[0] != int32(i) || r[c.width-1] != int32(i%7) {
				t.Fatalf("%+v: Row(%d) = %v", c, i, r)
			}
			row[0], row[c.width-1] = int32(i), int32(i%7)
			if id := s.Find(row); id != int32(i) {
				t.Fatalf("%+v: Find of row %d = %d", c, i, id)
			}
		}
		row[0] = n
		if id := s.Find(row); id != -1 {
			t.Fatalf("%+v: Find of an absent row = %d", c, id)
		}
		s.Reset(c.width, c.bits, n)
		slots := len(s.ids)
		for i := range n {
			row[0] = int32(i)
			s.Add(row)
		}
		if s.Len() != n || len(s.ids) != slots {
			t.Fatalf("%+v: after a Reset with hint %d, %d rows in %d slots, want %d in %d", c, n, s.Len(), len(s.ids), n, slots)
		}
		if s.Clear(); s.Len() != 0 || len(s.ids) != slots || s.Find(row) != -1 {
			t.Fatalf("%+v: after Clear, %d rows in %d slots, want 0 in %d", c, s.Len(), len(s.ids), slots)
		}
		// A set reset small regrows into the storage it kept: no allocation.
		if allocs := testing.AllocsPerRun(3, func() {
			s.Reset(c.width, c.bits, 0)
			for i := range n {
				row[0] = int32(i)
				s.Add(row)
			}
		}); allocs != 0 || s.Len() != n {
			t.Fatalf("%+v: regrowing to %d rows after a Reset allocates %.0f times", c, s.Len(), allocs)
		}
	}
}

// TestSetHashCollision: in the hashed regime two rows whose FNV-1a keys
// are equal are still two rows. The pair comes from a birthday search over
// the hash state g after two values: rows (a', b', 0) and (a, b, c) collide
// when g(a, b) and g(a', b') agree above bit 30 and c cancels the rest.
func TestSetHashCollision(t *testing.T) {
	prime, offset := uint64(1099511628211), uint64(14695981039346656037)
	seen := map[uint64][2]int32{}
	var x, y []int32
	for i, r := 0, uint64(1); x == nil && i < 1<<21; i++ {
		r = r*6364136223846793005 + 1442695040888963407
		a, b := int32(r>>33), int32(r<<31>>33)
		g := ((offset^uint64(a))*prime ^ uint64(b)) * prime
		if p, ok := seen[g>>31]; ok && p != [2]int32{a, b} {
			g2 := ((offset^uint64(p[0]))*prime ^ uint64(p[1])) * prime
			x, y = []int32{p[0], p[1], 0}, []int32{a, b, int32(g ^ g2)}
		}
		seen[g>>31] = [2]int32{a, b}
	}
	var s Set
	s.Reset(3, 32, 0)
	if x == nil || s.key(x) != s.key(y) {
		t.Fatalf("no colliding pair found: %v %v", x, y)
	}
	if id, fresh := s.Add(x); id != 0 || !fresh {
		t.Fatalf("Add(%v) = (%d, %v)", x, id, fresh)
	}
	if id := s.Find(y); id != -1 {
		t.Fatalf("Find(%v), a row whose key is that of %v, = %d", y, x, id)
	}
	if id, fresh := s.Add(y); id != 1 || !fresh {
		t.Fatalf("Add(%v) = (%d, %v), want a second row", y, id, fresh)
	}
	if s.Find(x) != 0 || s.Find(y) != 1 {
		t.Fatalf("Find: %d, %d", s.Find(x), s.Find(y))
	}
}

// TestNilSet: a nil *Set is empty to Bytes and Clear, what a kernel
// without a wide regime holds.
func TestNilSet(t *testing.T) {
	var s *Set
	s.Clear()
	if s.Bytes() != 0 {
		t.Fatalf("a nil set holds %d bytes", s.Bytes())
	}
}

// FuzzSet is the differential check on fuzzed operations: the first two
// bytes pick the width (0–6) and the value width (1, 8, 16 or 32).
func FuzzSet(f *testing.F) {
	f.Add([]byte{2, 1, 5, 3, 5, 3, 1, 3, 0, 9, 4, 4})
	f.Add(binary.LittleEndian.AppendUint64([]byte{6, 3}, 0x0102030405060708))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		check(t, int(data[0]%7), []int{1, 8, 16, 32}[data[1]%4], data[2:])
	})
}

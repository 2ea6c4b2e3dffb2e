package cluster

import (
	"fmt"
	"testing"
)

func testPeers(n int) []Peer {
	peers := make([]Peer, n)
	for i := range peers {
		peers[i] = Peer{ID: fmt.Sprintf("n%d", i+1), URL: fmt.Sprintf("http://10.0.0.%d:8377", i+1)}
	}
	return peers
}

func TestParsePeers(t *testing.T) {
	peers, err := ParsePeers("n1=http://a:1, n2=http://b:2 ,n3=https://c:3/")
	if err != nil {
		t.Fatalf("ParsePeers: %v", err)
	}
	want := []Peer{
		{ID: "n1", URL: "http://a:1"},
		{ID: "n2", URL: "http://b:2"},
		{ID: "n3", URL: "https://c:3"}, // trailing slash trimmed
	}
	if len(peers) != len(want) {
		t.Fatalf("got %d peers, want %d", len(peers), len(want))
	}
	for i := range want {
		if peers[i] != want[i] {
			t.Errorf("peer %d: %+v, want %+v", i, peers[i], want[i])
		}
	}

	for _, bad := range []string{
		"",
		"  , ",
		"n1",                          // no =
		"=http://a:1",                 // empty id
		"n1=",                         // empty url
		"n1=localhost:8377",           // no scheme
		"n1=http://a:1,n1=http://b:2", // duplicate id
	} {
		if _, err := ParsePeers(bad); err == nil {
			t.Errorf("ParsePeers(%q): want error, got none", bad)
		}
	}
}

// TestRingOrderIndependent: every node must compute the same placement
// from its own (possibly differently ordered) copy of the peer list —
// placement is coordination-free only if this holds.
func TestRingOrderIndependent(t *testing.T) {
	peers := testPeers(5)
	reversed := make([]Peer, len(peers))
	for i, p := range peers {
		reversed[len(peers)-1-i] = p
	}
	a, b := NewRing(peers), NewRing(reversed)
	for i := 0; i < 200; i++ {
		name := fmt.Sprintf("db-%d", i)
		if a.Owner(name) != b.Owner(name) {
			t.Fatalf("owner of %q differs between peer orderings", name)
		}
		ha, hb := a.Holders(name, 3), b.Holders(name, 3)
		for j := range ha {
			if ha[j] != hb[j] {
				t.Fatalf("holder %d of %q differs between peer orderings", j, name)
			}
		}
	}
}

// TestRingHoldersDistinct: holders must be n distinct peers, owner first.
func TestRingHoldersDistinct(t *testing.T) {
	r := NewRing(testPeers(5))
	for i := 0; i < 200; i++ {
		name := fmt.Sprintf("db-%d", i)
		h := r.Holders(name, 3)
		if len(h) != 3 {
			t.Fatalf("holders(%q, 3): %d peers", name, len(h))
		}
		if h[0] != r.Owner(name) {
			t.Fatalf("holders(%q) does not start with the owner", name)
		}
		seen := map[string]bool{}
		for _, p := range h {
			if seen[p.ID] {
				t.Fatalf("holders(%q) repeats %s", name, p.ID)
			}
			seen[p.ID] = true
		}
	}
	// Clamping: asking for more holders than peers returns every peer.
	if h := r.Holders("x", 99); len(h) != 5 {
		t.Fatalf("holders clamp: %d, want 5", len(h))
	}
	if h := r.Holders("x", 0); len(h) != 1 {
		t.Fatalf("holders(n=0): %d, want 1 (the owner)", len(h))
	}
}

// TestRingBalance: with 128 vnodes per peer, ownership of many names
// should be within a loose factor of even — this guards against a broken
// hash or vnode construction, not against statistical drift.
func TestRingBalance(t *testing.T) {
	const names = 10000
	peers := testPeers(4)
	r := NewRing(peers)
	counts := map[string]int{}
	for i := 0; i < names; i++ {
		counts[r.Owner(fmt.Sprintf("db-%d", i)).ID]++
	}
	mean := names / len(peers)
	for _, p := range peers {
		c := counts[p.ID]
		if c < mean/2 || c > mean*2 {
			t.Errorf("peer %s owns %d of %d names (mean %d): ring badly unbalanced", p.ID, c, names, mean)
		}
	}
}

// TestRingStability: adding one peer must not reshuffle names among the
// surviving peers — only moves onto the new peer are allowed. This is
// the property that makes consistent hashing the right placement for
// replica sets.
func TestRingStability(t *testing.T) {
	before := NewRing(testPeers(4))
	after := NewRing(testPeers(5))
	moved := 0
	for i := 0; i < 1000; i++ {
		name := fmt.Sprintf("db-%d", i)
		ob, oa := before.Owner(name), after.Owner(name)
		if ob == oa {
			continue
		}
		moved++
		if oa.ID != "n5" {
			t.Fatalf("%q moved from %s to %s, not to the new peer", name, ob.ID, oa.ID)
		}
	}
	if moved == 0 {
		t.Fatal("no names moved to the new peer at all")
	}
}

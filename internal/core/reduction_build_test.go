package core

import "testing"

// TestSweepSources is the one sweep-size rule, which the materializing
// sweep, a streamed Open's free source positions and the Generic candidate
// enumeration all size themselves by: n^t, refused past 2³² — exactly 2³²
// is still swept — with the empty product 1 and nothing to sweep on the
// empty database.
func TestSweepSources(t *testing.T) {
	for _, tc := range []struct {
		n, t, want int
		refused    bool
	}{
		{n: 0, t: 0, want: 1},
		{n: 0, t: 2, want: 0},
		{n: 1, t: 0, want: 1},
		{n: 1, t: 64, want: 1},
		{n: 5, t: 0, want: 1},
		{n: 5, t: 3, want: 125},
		{n: 65536, t: 2, want: MaxSweepSources},
		{n: 65537, t: 2, refused: true},
		{n: 1626, t: 3, refused: true},
		{n: MaxSweepSources, t: 1, want: MaxSweepSources},
		{n: MaxSweepSources + 1, t: 1, refused: true},
	} {
		got, err := sweepSources(tc.n, tc.t)
		if (err != nil) != tc.refused || got != tc.want {
			t.Errorf("sweepSources(%d, %d) = %d, %v; want %d, refused %v", tc.n, tc.t, got, err, tc.want, tc.refused)
		}
	}
}

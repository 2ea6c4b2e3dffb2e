package server

import (
	"bytes"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
)

// bodyRequest is a request whose Content-Length header and body are set
// independently, as a careless or hostile client can.
func bodyRequest(declared int64, sent []byte) *http.Request {
	r := httptest.NewRequest("POST", "/v1/dbs/g", io.NopCloser(bytes.NewReader(sent)))
	r.ContentLength = declared
	return r
}

// TestReadBodyLyingHeader: the declared length sizes readBody's buffer and
// nothing else. Whatever the header says, the body read is the body sent,
// and only a body past maxBodyBytes is a 413.
func TestReadBodyLyingHeader(t *testing.T) {
	sent := []byte(denseDBText(3000))
	for _, tc := range []struct {
		what     string
		declared int64
	}{
		{"absent (chunked)", -1},
		{"exact", int64(len(sent))},
		{"smaller than the body", 10},
		{"zero", 0},
		{"larger than the body", int64(len(sent)) + 4096},
		{"larger than maxBodyBytes", maxBodyBytes + 1},
	} {
		rec := httptest.NewRecorder()
		got, ok := readBody(rec, bodyRequest(tc.declared, sent))
		if !ok || !bytes.Equal(got, sent) {
			t.Errorf("declared length %s: read %d bytes (ok=%t, status %d), sent %d", tc.what, len(got), ok, rec.Code, len(sent))
		}
	}
	rec := httptest.NewRecorder()
	r := bodyRequest(10, nil)
	r.Body = io.NopCloser(io.LimitReader(zeroReader{}, maxBodyBytes+1))
	if _, ok := readBody(rec, r); ok || rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("a body of maxBodyBytes+1 declared as 10: ok=%t status %d, want 413", ok, rec.Code)
	}
}

type zeroReader struct{}

func (zeroReader) Read(p []byte) (int, error) { clear(p); return len(p), nil }

// TestReadBodyAllocs: a registration body is read into the one buffer its
// header sized, and a header alone reserves at most bodyReserveMax.
func TestReadBodyAllocs(t *testing.T) {
	sent := []byte(denseDBText(6000))
	if len(sent) < 150<<10 {
		t.Fatalf("test body is %d bytes, want at least 150 KiB", len(sent))
	}
	rec := httptest.NewRecorder()
	exact := bodyRequest(int64(len(sent)), sent)
	if n := testing.AllocsPerRun(20, func() {
		exact.Body = io.NopCloser(bytes.NewReader(sent))
		if _, ok := readBody(rec, exact); !ok {
			t.Fatal("readBody failed")
		}
	}); n > 3+2 { // the two are the test's own reader and NopCloser
		t.Errorf("a %d-byte body with an exact Content-Length is read in %.0f allocations, want at most 3", len(sent), n-2)
	}

	if raceEnabled {
		t.Skip("the race detector doubles what the reserved read allocates")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	body, _ := readBody(rec, bodyRequest(maxBodyBytes, []byte("alphabet a")))
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; string(body) != "alphabet a" || got > bodyReserveMax+(16<<10) {
		t.Errorf("a 10-byte body declared as %d bytes: read %q in %d bytes of allocation, want at most %d and change",
			maxBodyBytes, body, got, bodyReserveMax)
	}
}

// TestStatsLedger: the statistics computation runs inside a transient
// reservation. When the broker refuses it the registration still succeeds,
// without a catalog; when it fits, nothing of it stays reserved.
func TestStatsLedger(t *testing.T) {
	var logged strings.Builder
	tight := newTestServer(t, Config{MemBudgetBytes: statsComputeReserve / 2, Logger: log.New(&logged, "", 0)})
	registerDB(t, tight, "g", denseDBText(40))
	if tight.StatsFor("g") != nil {
		t.Error("a catalog was computed under a budget below the compute reservation")
	}
	if !strings.Contains(logged.String(), "event=stats_skipped") {
		t.Errorf("no event=stats_skipped in the log:\n%s", logged.String())
	}
	if rec, _ := doJSON(t, tight, "POST", "/v1/query", map[string]any{"db": "g", "query": quickQuery}); rec.Code != http.StatusOK {
		t.Errorf("query on the catalog-less registration: %d %s", rec.Code, rec.Body.String())
	}

	ample := newTestServer(t, Config{MemBudgetBytes: 64 << 20})
	registerDB(t, ample, "g", denseDBText(40))
	if ample.StatsFor("g") == nil {
		t.Error("no catalog under an ample budget")
	}
	if st := ample.GovernStats(); st.ReservedBytes != 0 || st.PeakBytes < statsComputeReserve {
		t.Errorf("after the registration %d bytes are reserved (peak %d), want 0 (peak at least %d)",
			st.ReservedBytes, st.PeakBytes, statsComputeReserve)
	}
}

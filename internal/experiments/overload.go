package experiments

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"ecrpq/internal/invariant"
	"ecrpq/internal/server"
)

// overloadDBText is a dense two-letter database: every vertex has an a-
// and a b-successor, so the 2-track equality sweep touches all n² source
// pairs.
func overloadDBText(n int) string {
	var sb bytes.Buffer
	sb.WriteString("alphabet a b\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "v%d a v%d\n", i, (i*7+1)%n)
		fmt.Fprintf(&sb, "v%d b v%d\n", i, (i*7+2)%n)
	}
	return sb.String()
}

// overloadHardQuery is a 2-track equality component whose Lemma 4.3
// materialization sweeps the whole database: its four endpoints are
// distinct variables, so R' keeps every pair of destinations the equal
// paths reach. The variable names carry a serial number so every request
// is a distinct plan-cache key: each hard request pays the full
// materialization, which is what makes it a memory- and worker-hungry
// "background" job worth shedding.
func overloadHardQuery(i int) string {
	return fmt.Sprintf("alphabet a b\nx%d -[$p1]-> y%d\nu%d -[$p2]-> z%d\nrel eq(p1, p2)\n", i, i, i, i)
}

// overloadEasyQuery is a plain one-edge reachability query — the
// latency-sensitive "interactive" traffic class.
const overloadEasyQuery = "alphabet a b\nx -[ab]-> y\n"

// overloadOutcome aggregates one mode's run.
type overloadOutcome struct {
	ok, shed429, other429, other int
	easyLatencies                []time.Duration
	elapsed                      time.Duration
	peakReserved                 int64
}

// runOverload drives a saturating mixed workload (clients × iters
// requests, one third hard/low-priority, two thirds easy/normal) against
// an in-process daemon and tallies outcomes per traffic class.
func runOverload(shed bool, clients, iters, dbN int) overloadOutcome {
	s := server.New(server.Config{
		Workers:           4,
		QueueDepth:        8,
		MemBudgetBytes:    16 << 20,
		QueryReserveBytes: 256 << 10,
		ShedEnabled:       shed,
		ShedQueueWait:     5 * time.Millisecond,
		ShedMemFraction:   0.6,
		TraceSampleEvery:  -1,
		Logger:            log.New(io.Discard, "", 0),
	})
	post := func(path, body string, hdr map[string]string) int {
		req := httptest.NewRequest("POST", path, bytes.NewBufferString(body))
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		return rec.Code
	}
	code := post("/v1/dbs/g", overloadDBText(dbN), nil)
	invariant.Assert(code == http.StatusOK, "experiments: A9 database registration failed")

	var (
		mu  sync.Mutex
		out overloadOutcome
		wg  sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				serial := c*iters + i
				hard := serial%3 == 0
				var code int
				var lat time.Duration
				if hard {
					body := fmt.Sprintf(`{"db":"g","query":%q,"strategy":"reduction"}`, overloadHardQuery(serial))
					code = post("/v1/query", body, map[string]string{"X-Ecrpq-Priority": "low"})
				} else {
					t0 := time.Now()
					code = post("/v1/query", fmt.Sprintf(`{"db":"g","query":%q}`, overloadEasyQuery), nil)
					lat = time.Since(t0)
				}
				mu.Lock()
				switch code {
				case http.StatusOK:
					out.ok++
					if !hard {
						out.easyLatencies = append(out.easyLatencies, lat)
					}
				case http.StatusTooManyRequests:
					if hard {
						out.shed429++
					} else {
						out.other429++
					}
				default:
					out.other++
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	out.elapsed = time.Since(start)
	out.peakReserved = s.GovernStats().PeakBytes
	return out
}

// p99 returns the 99th-percentile of the sample set (nearest-rank).
func p99(samples []time.Duration) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := (len(sorted)*99 + 99) / 100
	if idx > len(sorted) {
		idx = len(sorted)
	}
	return sorted[idx-1]
}

// Overload — A9: drive the daemon past saturation with a mixed workload
// (low-priority memory-hungry materializations alongside interactive
// point queries) with overload shedding off and on. Shedding converts
// low-priority work into fast 429s while the interactive class keeps its
// throughput and tail latency under pressure.
func Overload(seed int64) *Table {
	_ = seed // the workload is a fixed schedule; timings vary, counts don't depend on seed
	t := &Table{
		ID:    "A9",
		Title: "Overload shedding: mixed workload past saturation (ecrpqd)",
		Claim: "adaptive shedding sacrifices low-priority work to hold interactive throughput and p99 under overload",
		Headers: []string{"shed", "requests", "ok", "shed/denied 429", "queue 429", "easy p99 (ms)",
			"easy ok/s", "peak reserved (KiB)"},
	}
	const clients, iters, dbN = 10, 18, 26
	for _, shed := range []bool{false, true} {
		o := runOverload(shed, clients, iters, dbN)
		easyOK := len(o.easyLatencies)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(shed),
			fmt.Sprint(clients * iters),
			fmt.Sprint(o.ok),
			fmt.Sprint(o.shed429),
			fmt.Sprint(o.other429),
			fmt.Sprintf("%.1f", float64(p99(o.easyLatencies))/float64(time.Millisecond)),
			fmt.Sprintf("%.1f", float64(easyOK)/o.elapsed.Seconds()),
			fmt.Sprint(o.peakReserved >> 10),
		})
	}
	t.Notes = append(t.Notes,
		"10 clients × 18 requests against a 4-worker daemon (queue depth 8, 16 MiB memory budget); every third request is a cold 2-track materialization sent with X-Ecrpq-Priority: low, the rest are one-edge point queries. \"shed/denied 429\" counts hard requests refused (SHED/RESOURCE_EXHAUSTED/OVERLOADED), \"queue 429\" easy ones. With shedding on, the shedder's queue-wait and reserved-memory signals turn the hard class away at admission instead of letting it fill the queue, so the easy class stops losing requests to queue overflow and completes at several times the effective throughput; the broker keeps the reserved-byte peak under the budget in both modes.")
	return t
}

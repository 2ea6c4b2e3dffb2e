package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// encodeWant is what writeJSON wrote for a *queryResponse before it was
// appended: json.Encoder's bytes, or its error.
func encodeWant(r *queryResponse) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(r)
	return buf.Bytes(), err
}

// checkAppended holds queryResponse.appendJSON to json.Encoder: the same
// bytes, or an error exactly when the encoder refuses the value.
func checkAppended(t *testing.T, r *queryResponse) {
	t.Helper()
	want, werr := encodeWant(r)
	got, gerr := r.appendJSON(nil)
	if (werr != nil) != (gerr != nil) {
		t.Fatalf("appendJSON error %v, encoding/json error %v", gerr, werr)
	}
	if werr != nil {
		if gerr.Error() != werr.Error() {
			t.Fatalf("appendJSON error %q, encoding/json error %q", gerr, werr)
		}
		return
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("appended bytes differ from encoding/json's:\n got  %q\n want %q", got, want)
	}
}

// hostile are strings every escaping rule of encoding/json applies to.
var hostile = []string{
	"", "plain", `<script>&"quoted"\</script>`, "\x00\x01\b\f\n\r\t\x1f\x7f",
	"line\u2028sep\u2029para", "bad\xffutf8\xc2", "\xe2\x80", "é日本🙂", "\ufffd",
}

// fullResponse sets every field, core.Stats' each to a distinct value, so a
// field added to either and not to the appender fails the comparison.
func fullResponse() *queryResponse {
	r := &queryResponse{Sat: true, Strategy: "reduction", Cache: "hit", QueryHash: "q1",
		Nodes:     map[string]string{"y": "v2", "x": "v1", "<&>": "v\u2028"},
		Paths:     map[string]string{"p2": "v1 -b-> v2", "p1": "v1 -a-> v2"},
		Answers:   [][]string{{"v1", "v2"}, {}, nil, {"é"}},
		Free:      []string{"x", "y"},
		ElapsedMs: 0.125, Degraded: true, DegradedReason: "evaluation"}
	st := reflect.ValueOf(&r.Stats).Elem()
	for i := 0; i < st.NumField(); i++ {
		st.Field(i).SetInt(int64(1000*i + 7))
	}
	return r
}

// TestQueryResponseJSON: the appended body is the encoder's, byte for
// byte — over every field, every string-escaping rule, the omitempty
// fields empty and nil, nil and empty answer rows, and floats on both sides
// of encoding/json's exponent thresholds — and a non-finite elapsed_ms is
// the error json.Encoder reports.
func TestQueryResponseJSON(t *testing.T) {
	checkAppended(t, fullResponse())
	checkAppended(t, &queryResponse{})
	checkAppended(t, &queryResponse{Nodes: map[string]string{}, Paths: map[string]string{}, Answers: [][]string{}, Free: []string{}})
	for _, s := range hostile {
		checkAppended(t, &queryResponse{Strategy: s, Cache: s, QueryHash: s, DegradedReason: s,
			Nodes: map[string]string{s: s, s + "x": "y"}, Paths: map[string]string{s: s},
			Answers: [][]string{{s, s}}, Free: []string{s}})
	}
	for _, f := range []float64{0, math.Copysign(0, -1), 1, -1, 0.001, 1e-6, 9.99e-7, 1e-7, 1.5e-9, 1e20, 1e21, 1.5e21, 123456789.125, -2e-10, math.MaxFloat64, math.SmallestNonzeroFloat64} {
		checkAppended(t, &queryResponse{ElapsedMs: f})
	}
	for _, f := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		checkAppended(t, &queryResponse{ElapsedMs: f})
	}
	// Maps larger than the key buffer's stack size.
	big := map[string]string{}
	for _, s := range hostile {
		for _, t := range hostile {
			big[s+"/"+t] = t + s
		}
	}
	checkAppended(t, &queryResponse{Nodes: big, Paths: big})
}

// TestWriteJSONQueryResponse: writeJSON's body for a *queryResponse is the
// appended one, with its length announced; other bodies keep encoding/json.
func TestWriteJSONQueryResponse(t *testing.T) {
	r := fullResponse()
	want, _ := encodeWant(r)
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, r)
	if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("status %d body %q, want 200 %q", rec.Code, rec.Body.String(), want)
	}
	if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(len(want)) {
		t.Fatalf("Content-Length %q for a %d-byte body", got, len(want))
	}
}

// FuzzQueryResponseJSON builds responses from fuzzed strings, counts and
// floats and holds the appended bytes to json.Encoder's.
func FuzzQueryResponseJSON(f *testing.F) {
	for _, s := range hostile {
		f.Add(s, "k\x00"+s, int64(3), 1e-6, uint8(0xff))
	}
	for _, x := range []float64{9.999999e-7, 1.0000001e-6, 1e21, 9.99999999e20, -1e21, math.Inf(1), math.NaN()} {
		f.Add("<&>", "\u2028", int64(-1), x, uint8(0x0f))
	}
	f.Fuzz(func(t *testing.T, a, b string, n int64, x float64, bits uint8) {
		fields := strings.Split(a+"\x00"+b, "\x00") // the embedded separators give map keys and rows
		r := &queryResponse{Sat: bits&1 != 0, Strategy: a, Cache: b, QueryHash: a + b,
			ElapsedMs: x, Degraded: bits&2 != 0}
		if bits&4 != 0 {
			r.DegradedReason = b
		}
		if bits&8 != 0 {
			r.Nodes, r.Paths = map[string]string{}, map[string]string{}
			for i, k := range fields {
				r.Nodes[k] = fields[len(fields)-1-i]
				r.Paths[k+a] = k
			}
		}
		if bits&16 != 0 {
			r.Answers = append(r.Answers, fields, nil, []string{})
		}
		if bits&32 != 0 {
			r.Free = fields
		}
		st := reflect.ValueOf(&r.Stats).Elem()
		for i := 0; i < st.NumField(); i++ {
			st.Field(i).SetInt(n * int64(i+1))
		}
		checkAppended(t, r)
	})
}

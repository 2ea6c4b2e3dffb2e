package server

import (
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"strconv"
	"unicode/utf8"
)

// appendJSON appends r as encoding/json's Encoder writes it — the same
// bytes, newline included — without reflection: a read hit is decided by a
// cache lookup, so sorting the witness maps by reflection was a visible
// share of what it cost. Strings are escaped as the Encoder escapes them
// (HTML-safe, invalid UTF-8 as \ufffd, U+2028/U+2029 escaped), map keys are
// sorted, and floats take encoding/json's format. A non-finite elapsed_ms
// is the error encoding/json reports for it. TestQueryResponseJSON and
// FuzzQueryResponseJSON hold the bytes to json.Encoder's, core.Stats'
// every field included.
func (r *queryResponse) appendJSON(b []byte) ([]byte, error) {
	b = append(b, `{"sat":`...)
	b = strconv.AppendBool(b, r.Sat)
	b = append(b, `,"strategy":`...)
	b = appendJSONString(b, r.Strategy)
	b = append(b, `,"cache":`...)
	b = appendJSONString(b, r.Cache)
	b = append(b, `,"query_hash":`...)
	b = appendJSONString(b, r.QueryHash)
	if len(r.Nodes) > 0 {
		b = append(b, `,"nodes":`...)
		b = appendJSONMap(b, r.Nodes)
	}
	if len(r.Paths) > 0 {
		b = append(b, `,"paths":`...)
		b = appendJSONMap(b, r.Paths)
	}
	if len(r.Answers) > 0 {
		b = append(b, `,"answers":[`...)
		for i, row := range r.Answers {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendJSONStrings(b, row)
		}
		b = append(b, ']')
	}
	if len(r.Free) > 0 {
		b = append(b, `,"free":`...)
		b = appendJSONStrings(b, r.Free)
	}
	st := &r.Stats
	b = append(b, `,"stats":{"StrategyUsed":`...)
	b = strconv.AppendInt(b, int64(st.StrategyUsed), 10)
	for _, f := range [...]struct {
		key string
		v   int
	}{
		{`,"Components":`, st.Components},
		{`,"FreeTracks":`, st.FreeTracks},
		{`,"ProductChecks":`, st.ProductChecks},
		{`,"NodeAssignments":`, st.NodeAssignments},
		{`,"Traversals":`, st.Traversals},
		{`,"ProductStates":`, st.ProductStates},
		{`,"CQTuples":`, st.CQTuples},
		{`,"MergedStatesTotal":`, st.MergedStatesTotal},
	} {
		b = append(b, f.key...)
		b = strconv.AppendInt(b, int64(f.v), 10)
	}
	b = append(b, `},"elapsed_ms":`...)
	var err error
	if b, err = appendJSONFloat(b, r.ElapsedMs); err != nil {
		return b, err
	}
	if r.Degraded {
		b = append(b, `,"degraded":true`...)
	}
	if r.DegradedReason != "" {
		b = append(b, `,"degraded_reason":`...)
		b = appendJSONString(b, r.DegradedReason)
	}
	return append(b, '}', '\n'), nil
}

// appendJSONMap appends m as an object with its keys sorted.
func appendJSONMap(b []byte, m map[string]string) []byte {
	var buf [16]string
	keys := buf[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	b = append(b, '{')
	for i, k := range keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONString(b, k)
		b = append(b, ':')
		b = appendJSONString(b, m[k])
	}
	return append(b, '}')
}

// appendJSONStrings appends ss as an array; a nil slice is null.
func appendJSONStrings(b []byte, ss []string) []byte {
	if ss == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, s := range ss {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONString(b, s)
	}
	return append(b, ']')
}

// appendJSONFloat appends f in encoding/json's format: the shortest 'f'
// form, or 'e' (with a one-digit negative exponent left unpadded) below
// 1e-6 and from 1e21 on.
func appendJSONFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// clean up e-09 to e-9
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// jsonSafe[c] is true when the ASCII byte c stands for itself in an
// HTML-escaping encoding/json string: not a control byte, not `"` or `\`,
// and not `<`, `>` or `&`.
var jsonSafe = func() (safe [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		safe[c] = true
	}
	for _, c := range `"\<>&` {
		safe[c] = false
	}
	return safe
}()

const hexDigits = "0123456789abcdef"

// appendJSONString appends s quoted as encoding/json's Encoder quotes it.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if jsonSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

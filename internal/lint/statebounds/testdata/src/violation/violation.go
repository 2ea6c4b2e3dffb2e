// Package violation exercises every statebounds diagnostic.
package violation

type table struct {
	trans   [][]int
	accept  []bool
	offsets []int32
}

func directArithmetic(t *table, p, off int) []int {
	return t.trans[p+off] // want `state-table index computed by arithmetic`
}

func packedDecode(t *table, v, nsym, sym int) int32 {
	idx := v*nsym + sym
	return t.offsets[idx] // want `state-table index "idx" derives from arithmetic`
}

func loopStride(t *table, workers int) bool {
	acc := false
	for idx := 0; idx < len(t.accept); idx += workers {
		acc = acc || t.accept[idx] // want `state-table index "idx" derives from arithmetic`
	}
	return acc
}

func bareField(offsets []int32, v, k int) int32 {
	return offsets[v*2+k] // want `state-table index computed by arithmetic`
}

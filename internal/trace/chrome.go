package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// WriteChrome writes the snapshots in the Chrome trace_event JSON array
// format, loadable by chrome://tracing and Perfetto. Each trace becomes
// one process (pid = trace id); spans become "X" complete events. Chrome
// nests events on a thread only when their intervals nest, so spans are
// laid out onto the fewest lanes (tids) on which every pair either nests
// or is disjoint — concurrent sibling spans (pool interleavings) land on
// separate lanes instead of rendering garbled.
func WriteChrome(w io.Writer, traces ...TraceData) error {
	events := make([]chromeEvent, 0, 64)
	for i, td := range traces {
		pid := td.ID
		if pid == 0 {
			pid = uint64(i + 1)
		}
		events = append(events, chromeEvent{
			Name: "process_name", Phase: "M", PID: pid, TID: 0,
			Args: map[string]any{"name": fmt.Sprintf("%s #%d (%.2fms)", td.Name, pid, td.DurMs)},
		})
		lanes := assignLanes(td.Spans)
		for si, sp := range td.Spans {
			args := map[string]any{}
			for k, v := range td.Attrs {
				args["trace."+k] = v
			}
			for k, v := range sp.Attrs {
				args[k] = v
			}
			events = append(events, chromeEvent{
				Name:  sp.Name,
				Phase: "X",
				PID:   pid,
				TID:   lanes[si],
				TsUs:  sp.StartUs,
				DurUs: sp.DurUs,
				Args:  args,
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(events)
}

type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	PID   uint64         `json:"pid"`
	TID   int            `json:"tid"`
	TsUs  float64        `json:"ts"`
	DurUs float64        `json:"dur,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// assignLanes maps each span index to a lane (tid) such that every two
// spans on a lane either nest or are disjoint. Greedy: visit spans by
// start time (ties: longer first, so parents precede the children they
// contain); keep a stack of open intervals per lane; a span fits the
// first lane whose stack, after popping finished intervals, is empty or
// has a top that contains it.
func assignLanes(spans []SpanData) map[int]int {
	type iv struct {
		idx        int
		start, end float64
	}
	ivs := make([]iv, len(spans))
	for i, sp := range spans {
		ivs[i] = iv{idx: i, start: sp.StartUs, end: sp.StartUs + sp.DurUs}
	}
	sort.SliceStable(ivs, func(a, b int) bool {
		if ivs[a].start != ivs[b].start {
			return ivs[a].start < ivs[b].start
		}
		return ivs[a].end > ivs[b].end
	})
	lanes := map[int]int{}
	var stacks [][]iv
	for _, v := range ivs {
		placed := false
		for li := range stacks {
			st := stacks[li]
			for len(st) > 0 && st[len(st)-1].end <= v.start {
				st = st[:len(st)-1]
			}
			if len(st) == 0 || (st[len(st)-1].start <= v.start && v.end <= st[len(st)-1].end) {
				stacks[li] = append(st, v)
				lanes[v.idx] = li
				placed = true
				break
			}
			stacks[li] = st
		}
		if !placed {
			stacks = append(stacks, []iv{v})
			lanes[v.idx] = len(stacks) - 1
		}
	}
	return lanes
}

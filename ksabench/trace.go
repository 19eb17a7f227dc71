package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"ksa/internal/sim"
)

// setupOp is the op id of spans recorded while setting up, before the
// first traced op.
const setupOp = -1

// span is one timed call into a layer. Spans of one op share Op; Parent
// indexes the enclosing span (-1 for a root). Times are nanoseconds since
// the tracer was created; Alloc is the heap bytes allocated in the span,
// children included.
type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Alloc  uint64 `json:"alloc_bytes"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer records spans and counters in memory; they are written out only
// when the run ends, so recording costs two clock reads, two heap-counter
// reads and one append per span.
type tracer struct {
	epoch  time.Time
	op     int
	spans  []span
	open   []int
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), op: setupOp, counts: map[string]float64{}}
}

// span runs fn as a span named name, nested in the innermost open span.
func (t *tracer) span(name string, fn func()) {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Op: t.op, ID: id, Parent: parent, Name: name,
		Alloc: heapAllocBytes(), Start: int64(time.Since(t.epoch))})
	t.open = append(t.open, id)
	fn()
	end := int64(time.Since(t.epoch))
	s := &t.spans[id]
	s.End, s.Alloc = end, heapAllocBytes()-s.Alloc
	t.open = t.open[:len(t.open)-1]
}

// opSpan runs fn as the op's root span, named "op", and counts the
// simulated events the op executed. Engines advanced only by Step are not
// counted (sim.TotalExecuted).
func (t *tracer) opSpan(fn func()) {
	e0 := sim.TotalExecuted()
	t.span("op", fn)
	t.count("sim.events", float64(sim.TotalExecuted()-e0))
}

// count adds v to the named counter.
func (t *tracer) count(name string, v float64) { t.counts[name] += v }

// selfTime returns p's duration minus the part of it that its children
// cover. Children may overlap one another or stick out of p; only the union
// of their intervals clipped to p counts.
func selfTime(p span, children []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, p.Start), min(c.End, p.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered int64
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo <= cur.hi:
			cur.hi = max(cur.hi, v.hi)
		default:
			covered += cur.hi - cur.lo
			cur = v
		}
	}
	if len(ivs) > 0 {
		covered += cur.hi - cur.lo
	}
	return p.dur() - covered
}

// layerRow aggregates every span of one name.
type layerRow struct {
	name   string
	inOp   bool  // the spans sit inside an op's "op" span
	calls  int   // spans recorded
	selfNs int64 // summed self time
	alloc  int64 // summed self allocation (bytes)
}

// layerRows aggregates spans by name, the set-up's spans when setup is set
// and the traced ops' otherwise, sorted by self time, largest first.
func layerRows(spans []span, setup bool) []layerRow {
	children := make([][]span, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	inOp := func(s span) bool {
		for s.Parent >= 0 {
			s = spans[s.Parent]
		}
		return s.Name == "op"
	}
	index := map[string]int{}
	var out []layerRow
	for _, s := range spans {
		if (s.Op == setupOp) != setup {
			continue
		}
		k, ok := index[s.Name]
		if !ok {
			k = len(out)
			index[s.Name] = k
			out = append(out, layerRow{name: s.Name, inOp: inOp(s)})
		}
		r := &out[k]
		r.calls++
		r.selfNs += selfTime(s, children[s.ID])
		r.alloc += int64(s.Alloc)
		for _, c := range children[s.ID] {
			r.alloc -= int64(c.Alloc)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].selfNs > out[j].selfNs })
	return out
}

// rowsByName indexes rows by span name; a missing name reads as a zero row.
func rowsByName(rows []layerRow) map[string]layerRow {
	m := make(map[string]layerRow, len(rows))
	for _, r := range rows {
		m[r.name] = r
	}
	return m
}

// opDurations returns the duration of every traced op's "op" span, in ms.
func opDurations(spans []span) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == "op" && s.Parent < 0 && s.Op != setupOp {
			out = append(out, float64(s.dur())/1e6)
		}
	}
	return out
}

// writeLayerTable renders the per-layer split: for each span name, its
// calls and self time per op and its share of the op's time.
func writeLayerTable(w io.Writer, spans []span, ops int) {
	var opNs int64
	for _, s := range spans {
		if s.Name == "op" && s.Parent < 0 && s.Op != setupOp {
			opNs += s.dur()
		}
	}
	fmt.Fprintf(w, "%-28s %5s %10s %12s %9s %12s\n",
		"span", "in op", "calls/op", "self ms/op", "share", "self KiB/op")
	for _, r := range layerRows(spans, false) {
		in := "no"
		if r.inOp {
			in = "yes"
		}
		share := 0.0
		if opNs > 0 {
			share = 100 * float64(r.selfNs) / float64(opNs)
		}
		fmt.Fprintf(w, "%-28s %5s %10.2f %12.4f %8.1f%% %12.1f\n", r.name, in,
			float64(r.calls)/float64(ops), float64(r.selfNs)/1e6/float64(ops),
			share, float64(r.alloc)/1024/float64(ops))
	}
}

// writeReport writes the span dump (one JSON object per line) and the
// per-layer table into dir.
func writeReport(dir string, spans []span, table string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "spans.jsonl"))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "layers.txt"), []byte(strings.TrimLeft(table, "\n")), 0o644)
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	_ "unsafe" // for go:linkname
)

// nanotime is the runtime's monotonic clock. A span reads the clock
// twice; time.Now reads both the wall and the monotonic clock, which
// would double the tracing overhead on the walk's cheapest layers.
//
//go:linkname nanotime runtime.nanotime
func nanotime() int64

// Layers the walk records spans for, named after the package whose
// public function the span times.
const (
	lParse = iota
	lClassify
	lEngine
	lReasmFeed
	lReasmEvict
	lReasmDrain
	lExtract
	lFingerprint
	lAnalyze
	lSketch
	lLineage
	lPublish
	lFlush
	lCheckpoint
	nLayers
)

var layerNames = [nLayers]string{
	lParse:       "netpkt.parse",
	lClassify:    "classify",
	lEngine:      "engine",
	lReasmFeed:   "reasm.feed",
	lReasmEvict:  "reasm.evict",
	lReasmDrain:  "reasm.drain",
	lExtract:     "extract",
	lFingerprint: "core.fingerprint",
	lAnalyze:     "sem.analyze",
	lSketch:      "sem.sketch",
	lLineage:     "lineage.observe",
	lPublish:     "incident.publish",
	lFlush:       "incident.flush",
	lCheckpoint:  "fed.checkpoint",
}

// span is one timed call into a layer. start and end are monotonic
// clock readings in nanoseconds; parent is the index of the enclosing span
// (-1 for a root) and flow the index of the flow it worked on (-1 for
// none).
type span struct {
	start, end int64
	parent     int32
	flow       int32
	layer      uint8
}

// tracer keeps spans in memory until the walk ends. A nil *tracer
// records nothing, which is how the untraced walk runs the same code.
type tracer struct {
	spans []span
	open  int32 // innermost open span, -1 for none
	flows map[flowID]int32
	ids   []flowID
	// last caches the most recent flow lookup: consecutive spans
	// mostly work on the same flow.
	last   flowID
	lastID int32
}

// newTracer returns a tracer with room for about n spans.
func newTracer(n int) *tracer {
	return &tracer{flows: make(map[flowID]int32), spans: make([]span, 0, n), open: -1, lastID: -1}
}

// reset empties the tracer for another walk, keeping its storage.
func (t *tracer) reset() {
	t.spans, t.ids, t.open = t.spans[:0], t.ids[:0], -1
	clear(t.flows)
	t.last, t.lastID = flowID{}, -1
}

// begin opens a span of layer on flow (the zero flowID for none) and
// returns its index.
func (t *tracer) begin(layer int, flow flowID) int32 {
	if t == nil {
		return -1
	}
	fi := int32(-1)
	switch {
	case flow == (flowID{}):
	case flow == t.last && t.lastID >= 0:
		fi = t.lastID
	default:
		var ok bool
		if fi, ok = t.flows[flow]; !ok {
			fi = int32(len(t.ids))
			t.flows[flow] = fi
			t.ids = append(t.ids, flow)
		}
		t.last, t.lastID = flow, fi
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{end: -1, parent: t.open, flow: fi, layer: uint8(layer)})
	t.open = id
	t.spans[id].start = nanotime()
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].end = nanotime()
	t.open = t.spans[id].parent
}

// selfTimes returns each span's duration minus the time its direct
// children cover.
func (t *tracer) selfTimes() []int64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// writeJSON dumps the spans, with times in nanoseconds from the first
// span's start, and the flow table they index.
func (t *tracer) writeJSON(path string, wallNS int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintf(bw, "{\"wall_ns\":%d,\"layers\":", wallNS)
	names, _ := json.Marshal(layerNames) // a string array always encodes
	bw.Write(names)
	bw.WriteString(",\"flows\":[")
	for i, id := range t.ids {
		if i > 0 {
			bw.WriteByte(',')
		}
		fmt.Fprintf(bw, "%q", fmtID(id))
	}
	bw.WriteString("],\"spans\":[")
	var base int64
	if len(t.spans) > 0 {
		base = t.spans[0].start
	}
	for i, s := range t.spans {
		if i > 0 {
			bw.WriteByte(',')
		}
		fmt.Fprintf(bw, "{\"name\":%q,\"start\":%d,\"end\":%d,\"parent\":%d,\"flow\":%d}",
			layerNames[s.layer], s.start-base, s.end-base, s.parent, s.flow)
	}
	bw.WriteString("]}\n")
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

package fed

import (
	"fmt"
	"net/netip"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"semnids/internal/classify"
	"semnids/internal/core"
	"semnids/internal/incident"
	"semnids/internal/netpkt"
)

// steadyPlanes is a correlator and a classifier holding live sources
// with evidence in every exported field, and the reused buffers a sink
// checkpoints them through.
type steadyPlanes struct {
	corr *incident.Correlator
	cls  *classify.Classifier
	ts   uint64

	evBuf  incident.ExportBuffer
	clsBuf classify.StateBuffer
}

func steadyHost(i int) netip.Addr { return netip.AddrFrom4([4]byte{10, 3, byte(i >> 8), byte(i)}) }

func newSteadyPlanes(live int) *steadyPlanes {
	p := &steadyPlanes{
		corr: incident.New(incident.Config{WindowUS: 30e6, FanoutThreshold: 3, MaxSources: 1 << 20}),
		cls: classify.New(classify.Config{
			Honeypots: []netip.Addr{netip.MustParseAddr("10.250.0.1")},
			DarkSpace: []netip.Prefix{netip.MustParsePrefix("10.200.0.0/16")},
		}),
		ts: 1_000_000,
	}
	for i := 0; i < live; i++ {
		p.touch(i)
	}
	p.corr.Flush()
	return p
}

// touch re-observes source i exactly as before, one trace-time step
// later: its evidence changes (spans, last-seen, expiries) while every
// set keeps its size, the shape of steady-state churn.
func (p *steadyPlanes) touch(i int) {
	p.ts += 10
	src := steadyHost(i)
	fp := core.FingerprintOf([]byte(fmt.Sprint("payload-", i%7)))
	for d := 0; d < 2; d++ {
		p.corr.Publish(core.Event{Kind: core.EventFlowOpen, TimestampUS: p.ts, Src: src, Dst: steadyHost(i + d + 1), SrcPort: 1234, DstPort: 80})
	}
	if i%3 == 0 {
		// An alert is a (time, destination, template) set member: the
		// same alert again keeps the set's size.
		p.corr.Publish(core.Event{Kind: core.EventAlert, TimestampUS: 500_000 + uint64(i), Src: src, Dst: steadyHost(i + 1), SrcPort: 1234, DstPort: 80,
			Fingerprint: fp, Template: "code-red-ii", Severity: "high"})
	}
	if i%3 == 1 {
		p.corr.Publish(core.Event{Kind: core.EventFingerprint, TimestampUS: p.ts, Src: src, Dst: steadyHost(i + 2), SrcPort: 4321, DstPort: 80,
			Fingerprint: fp})
	}
	// Classifier plane: a sub-threshold dark-space scanner (two
	// touches) or a honeypot contact (a suspicious mark).
	pkt := &netpkt.Packet{TimestampUS: p.ts, SrcIP: src}
	if i%2 == 0 {
		for d := 0; d < 2; d++ {
			pkt.DstIP = netip.AddrFrom4([4]byte{10, 200, byte(i >> 8), byte(i + d)})
			p.cls.Classify(pkt)
		}
	} else {
		pkt.DstIP = netip.MustParseAddr("10.250.0.1")
		p.cls.Classify(pkt)
	}
}

func (p *steadyPlanes) exportSince(gen uint64) (*incident.EvidenceExport, []netip.Addr, uint64) {
	ex, live, next := p.corr.ExportSinceTo(&p.evBuf, "sensor-a", gen)
	ex.Classifier = p.cls.ExportStateTo(&p.clsBuf)
	return ex, live, next
}

// checkpointAllocs returns the median allocations of one sink
// checkpoint over a table of live sources of which changed are
// re-observed before each checkpoint, after warm-up checkpoints have
// grown every buffer. The median, because the runtime itself
// allocates now and then on the sink goroutine's behalf (a sudog for
// a blocking select when the processor's cache is empty).
func checkpointAllocs(t *testing.T, live, changed int) uint64 {
	p := newSteadyPlanes(live)
	defer p.corr.Stop()
	s, err := OpenSink(SinkConfig{
		Dir:             t.TempDir(),
		RotateBytes:     1 << 40,
		RotateEvery:     time.Hour,
		CheckpointEvery: time.Hour,
		ExportSince:     p.exportSince,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Warm-up re-observes every source twice, so both halves of each
	// double buffer have held the largest snapshot the measured rounds
	// can produce, then runs two rounds of the measured pattern.
	const warm, rounds = 4, 20
	var counts []uint64
	var ms runtime.MemStats
	// No collection during the measured rounds: the runtime's own
	// post-GC cleanups allocate, and would be counted as the sink's.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for r := 0; r < warm+rounds; r++ {
		if r < 2 {
			for i := 0; i < live; i++ {
				p.touch(i)
			}
		} else {
			for i := 0; i < changed; i++ {
				p.touch((r*changed + i) % live)
			}
		}
		p.corr.Flush()
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		if r >= warm {
			counts = append(counts, ms.Mallocs-before)
		}
	}
	m := s.Metrics()
	if want := uint64(2*live + (warm+rounds-2)*changed); m.RecordsEncoded < want {
		t.Fatalf("live %d changed %d: %d records encoded, want every changed source re-encoded", live, changed, m.RecordsEncoded)
	}
	slices.Sort(counts)
	return counts[len(counts)/2]
}

// TestCheckpointSteadyStateAllocs pins the checkpoint's cost model in
// allocations: once warm, a sink checkpoint over both evidence planes
// (correlator and classifier, rendered into reused buffers and framed
// by the hand-rolled encoder) allocates the same small constant at 1k
// and 4k live sources and with 10 or 500 changed sources — nothing per
// source, per record or per address.
func TestCheckpointSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	// The synchronous Checkpoint's reply channel (an hchan and its
	// buffer) is the whole cost.
	const bound = 2
	var first uint64
	for k, c := range []struct{ live, changed int }{{1000, 10}, {1000, 500}, {4000, 10}, {4000, 500}} {
		got := checkpointAllocs(t, c.live, c.changed)
		if got > bound {
			t.Errorf("live %d changed %d: %d allocs per checkpoint, want ≤ %d", c.live, c.changed, got, bound)
		}
		if k == 0 {
			first = got
		} else if got != first {
			t.Errorf("live %d changed %d: %d allocs per checkpoint, want the same as at live 1000 changed 10 (%d)",
				c.live, c.changed, got, first)
		}
	}
}

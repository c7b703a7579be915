package classify

import (
	"math/rand"
	"net/netip"
	"reflect"
	"slices"
	"sync"
	"testing"

	"semnids/internal/netpkt"
)

// sourceScript is one source's traffic: the packets it sends, in
// order, with an alert-driven MarkSuspicious after some of them.
type sourceScript struct {
	src   netip.Addr
	pkts  []*netpkt.Packet
	marks map[int]uint64 // packet index -> MarkSuspicious timestamp
}

// scripts draws per-source traffic touching every kind of state:
// honeypot contacts, sub- and super-threshold dark-space scans,
// ordinary traffic, suspicious marks that expire, and alerts.
func scripts(seed int64, sources int) []sourceScript {
	rng := rand.New(rand.NewSource(seed))
	out := make([]sourceScript, sources)
	for i := range out {
		s := sourceScript{src: netip.AddrFrom4([4]byte{10, 1, byte(i >> 8), byte(i)}), marks: map[int]uint64{}}
		ts := uint64(rng.Intn(1000))
		for n := rng.Intn(12); n >= 0; n-- {
			ts += uint64(rng.Intn(400)) * 1e6 // sometimes past the 10-minute TTL
			var dst netip.Addr
			switch rng.Intn(4) {
			case 0:
				dst = netip.MustParseAddr("192.168.1.250")
			case 1, 2:
				dst = netip.AddrFrom4([4]byte{192, 168, 2, byte(rng.Intn(6))})
			default:
				dst = netip.AddrFrom4([4]byte{192, 168, 1, byte(rng.Intn(200))})
			}
			if rng.Intn(8) == 0 {
				s.marks[len(s.pkts)] = ts
			}
			s.pkts = append(s.pkts, &netpkt.Packet{SrcIP: s.src, DstIP: dst, Proto: netpkt.ProtoTCP, HasTCP: true, TimestampUS: ts})
		}
		out[i] = s
	}
	return out
}

func (s sourceScript) play(c *Classifier) {
	for i, p := range s.pkts {
		c.Classify(p)
		if ts, ok := s.marks[i]; ok {
			c.MarkSuspicious(s.src, ts)
		}
	}
}

// canonical reports whether a snapshot is in canonical order: sources
// strictly ascending, every dark set strictly ascending, no empty
// record.
func canonical(states []SourceState) bool {
	for i, st := range states {
		if i > 0 && states[i-1].Src.Compare(st.Src) >= 0 {
			return false
		}
		if st.SuspiciousUntilUS == 0 && len(st.Dark) == 0 {
			return false
		}
		for j := 1; j < len(st.Dark); j++ {
			if st.Dark[j-1].Compare(st.Dark[j]) >= 0 {
				return false
			}
		}
	}
	return true
}

// referenceState renders the classifier's maps directly, the naive
// way: the value ExportStateTo must produce.
func referenceState(c *Classifier) []SourceState {
	c.mu.Lock()
	defer c.mu.Unlock()
	bySrc := map[netip.Addr]*SourceState{}
	get := func(a netip.Addr) *SourceState {
		if bySrc[a] == nil {
			bySrc[a] = &SourceState{Src: a}
		}
		return bySrc[a]
	}
	for a, exp := range c.suspicious {
		get(a).SuspiciousUntilUS = exp
	}
	for a, seen := range c.darkSeen {
		st := get(a)
		for d := range seen {
			st.Dark = append(st.Dark, d)
		}
		slices.SortFunc(st.Dark, netip.Addr.Compare)
	}
	var out []SourceState
	for _, st := range bySrc {
		out = append(out, *st)
	}
	slices.SortFunc(out, func(x, y SourceState) int { return x.Src.Compare(y.Src) })
	return out
}

// TestExportStateConcurrent runs Classify and MarkSuspicious from
// several goroutines (each owning a disjoint set of sources, so the
// final state is interleaving-independent) while another goroutine
// exports in a loop through one reused buffer. Every snapshot must be
// canonical, and once the traffic is done the export must equal a
// sequential run's and the naive rendering of the classifier's maps.
// Meant for -race.
func TestExportStateConcurrent(t *testing.T) {
	const workers = 4
	all := scripts(1, 600)
	c := newTestClassifier(false)

	done := make(chan struct{})
	var snapshots int
	var exporter sync.WaitGroup
	exporter.Add(1)
	go func() {
		defer exporter.Done()
		var buf StateBuffer
		for {
			if states := c.ExportStateTo(&buf); !canonical(states) {
				t.Error("snapshot not in canonical order")
				return
			}
			snapshots++
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(all); i += workers {
				all[i].play(c)
			}
		}(w)
	}
	wg.Wait()
	close(done)
	exporter.Wait()

	seq := newTestClassifier(false)
	for _, s := range all {
		s.play(seq)
	}
	want := seq.ExportState()
	var buf StateBuffer
	c.ExportStateTo(&buf) // a used buffer must render the same value
	got := c.ExportStateTo(&buf)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("concurrent run exports %d states, sequential run %d; they differ", len(got), len(want))
	}
	if ref := referenceState(c); !reflect.DeepEqual(got, ref) {
		t.Fatal("export differs from the naive rendering of the classifier state")
	}
	if len(want) == 0 || snapshots == 0 {
		t.Fatalf("nothing exercised: %d states, %d snapshots", len(want), snapshots)
	}
}

// TestExportStateReusedBufferAllocs pins the classifier plane of a
// checkpoint: exporting through a warm buffer allocates nothing.
func TestExportStateReusedBufferAllocs(t *testing.T) {
	c := newTestClassifier(false)
	for _, s := range scripts(2, 300) {
		s.play(c)
	}
	var buf StateBuffer
	c.ExportStateTo(&buf)
	if allocs := testing.AllocsPerRun(20, func() { c.ExportStateTo(&buf) }); allocs != 0 {
		t.Fatalf("ExportStateTo through a warm buffer allocates %.1f times, want 0", allocs)
	}
}

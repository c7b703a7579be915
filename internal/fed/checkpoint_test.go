package fed

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/netip"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"semnids/internal/core"
	"semnids/internal/incident"
)

// churnCorrelator is a correlator sized so a short trace exercises
// every way evidence changes or leaves: a small source table (LRU
// finalization, then re-creation at the same address) and a short idle
// window (the sweep).
func churnCorrelator() *incident.Correlator {
	return incident.New(incident.Config{
		WindowUS:        30e6,
		FanoutThreshold: 3,
		MaxSources:      24,
		SourceIdleUS:    2e6,
	})
}

// churnBatch returns one batch of events around trace time base over
// a 40-host pool: flow-opens, alerts carrying fingerprints, victims
// re-emitting those fingerprints (escalation to PROPAGATION) and
// flow-evict bookkeeping.
func churnBatch(rng *rand.Rand, base uint64, n int) []core.Event {
	host := func() netip.Addr { return netip.AddrFrom4([4]byte{10, 2, 0, byte(rng.Intn(40))}) }
	fps := func() core.Fingerprint {
		return core.FingerprintOf([]byte(fmt.Sprintf("payload-%d", rng.Intn(6))))
	}
	evs := make([]core.Event, 0, n)
	for i := 0; i < n; i++ {
		src, dst := host(), host()
		ts := base + uint64(rng.Intn(400_000))
		switch rng.Intn(5) {
		case 0, 1:
			evs = append(evs, core.Event{Kind: core.EventFlowOpen, TimestampUS: ts, Src: src, Dst: dst, SrcPort: 1234, DstPort: 80})
		case 2:
			evs = append(evs, core.Event{Kind: core.EventAlert, TimestampUS: ts, Src: src, Dst: dst, SrcPort: 1234, DstPort: 80,
				Fingerprint: fps(), Template: "code-red-ii", Severity: "high"})
		case 3:
			evs = append(evs, core.Event{Kind: core.EventFingerprint, TimestampUS: ts, Src: src, Dst: dst, SrcPort: 4321, DstPort: 80,
				Fingerprint: fps()})
		case 4:
			evs = append(evs, core.Event{Kind: core.EventFlowEvict, TimestampUS: ts, Src: src, Dst: dst, SrcPort: 1234, DstPort: 80})
		}
	}
	return evs
}

// incrementalSink opens a sink over c's incremental export that rotates
// at every checkpoint, so the newest segment always holds exactly one
// header and one checkpoint group.
func incrementalSink(t *testing.T, dir string, c *incident.Correlator) *Sink {
	t.Helper()
	s, err := OpenSink(SinkConfig{
		Dir:             dir,
		RotateBytes:     1,
		CheckpointEvery: time.Hour, // explicit checkpoints only
		ExportSince: func(gen uint64) (*incident.EvidenceExport, []netip.Addr, uint64) {
			return c.ExportSince("sensor-a", gen)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// newestSegment returns the bytes of the newest segment in dir.
func newestSegment(t *testing.T, dir string) []byte {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s: %v", dir, err)
	}
	data, err := os.ReadFile(filepath.Join(dir, segs[len(segs)-1].name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// wantSegment is the reference for a segment holding checkpoint seq
// of ex: WriteExport's bytes, with its checkpoint marks renumbered
// from 1 to seq (the only bytes a one-checkpoint WriteExport cannot
// know). Frames are rewritten textually, never re-encoded.
func wantSegment(t *testing.T, seq uint64, ex *incident.EvidenceExport) []byte {
	t.Helper()
	ref := encode(t, ex)
	var out []byte
	for len(ref) > 0 {
		sp := bytes.IndexByte(ref, ' ')
		n, err := strconv.Atoi(string(ref[:sp]))
		if err != nil {
			t.Fatal(err)
		}
		data := ref[sp+1 : sp+1+n]
		ref = ref[sp+1+n+1:]
		for _, mark := range []string{`{"k":"ckpt","ckpt":{"seq":1,`, `{"k":"end","end":{"seq":1,`} {
			if bytes.HasPrefix(data, []byte(mark)) {
				renumbered := bytes.Replace([]byte(mark), []byte(`"seq":1,`), []byte(`"seq":`+strconv.FormatUint(seq, 10)+`,`), 1)
				data = append(renumbered, data[len(mark):]...)
			}
		}
		out = strconv.AppendInt(out, int64(len(data)), 10)
		out = append(out, ' ')
		out = append(out, data...)
		out = append(out, '\n')
	}
	return out
}

// TestCheckpointBytesMatchFullExport is the incremental checkpoint's
// contract: at every checkpoint, over a churning trace that changes or
// removes evidence in every way the correlator can — flow-open, alert,
// fingerprint, flow-evict, escalation, Import of foreign evidence, LRU
// finalization and re-creation at the same address, the idle sweep —
// the segment the sink writes is byte-identical to WriteExport of a
// full Export taken at the same instant.
func TestCheckpointBytesMatchFullExport(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			c := churnCorrelator()
			defer c.Stop()
			dir := t.TempDir()
			s := incrementalSink(t, dir, c)
			defer s.Close()

			base := uint64(1_000_000)
			for k := uint64(1); k <= 40; k++ {
				for _, ev := range churnBatch(rng, base, 30) {
					c.Publish(ev)
				}
				c.Flush()
				if k%7 == 0 {
					// Foreign evidence over the same host pool: Import
					// folds into existing sources and creates new ones.
					f := churnCorrelator()
					for _, ev := range churnBatch(rng, base, 20) {
						f.Publish(ev)
					}
					f.Flush()
					if err := c.Import(f.Export("sensor-b")); err != nil {
						t.Fatal(err)
					}
					f.Stop()
				}
				// Trace time outruns the idle window every few batches,
				// so the sweep finalizes whole cohorts of sources.
				base += 300_000
				if k%5 == 0 {
					base += 3_000_000
				}

				if err := s.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				got := newestSegment(t, dir)
				if want := wantSegment(t, k, c.Export("sensor-a")); !bytes.Equal(got, want) {
					t.Fatalf("checkpoint %d: segment differs from the full export\ngot:\n%s\nwant:\n%s", k, got, want)
				}
			}
			m := s.Metrics()
			cm := c.Metrics()
			if m.RecordsReused == 0 || cm.SourcesEvictedLRU == 0 || cm.SourcesEvictedIdle == 0 {
				t.Fatalf("trace did not exercise reuse and both finalizations: sink %+v correlator %+v", m, cm)
			}
		})
	}
}

// TestCheckpointUnchangedEncodesNothing pins the cost model: a
// checkpoint after no evidence change re-encodes no source record,
// reuses every one, and still writes the full snapshot.
func TestCheckpointUnchangedEncodesNothing(t *testing.T) {
	c := churnCorrelator()
	defer c.Stop()
	for _, ev := range churnBatch(rand.New(rand.NewSource(7)), 1_000_000, 40) {
		c.Publish(ev)
	}
	c.Flush()
	dir := t.TempDir()
	s := incrementalSink(t, dir, c)
	defer s.Close()
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	first := s.Metrics()
	tracked := uint64(c.Metrics().SourcesTracked)
	if first.RecordsEncoded != tracked || first.RecordsReused != 0 {
		t.Fatalf("first checkpoint: encoded %d reused %d, want %d and 0", first.RecordsEncoded, first.RecordsReused, tracked)
	}
	// An export by another consumer advances the correlator's
	// generation but must not move the sink's cursor.
	c.Export("sensor-a")
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	second := s.Metrics()
	if second.RecordsEncoded != first.RecordsEncoded || second.RecordsReused != tracked {
		t.Fatalf("unchanged checkpoint: encoded %d reused %d, want 0 new and %d reused",
			second.RecordsEncoded-first.RecordsEncoded, second.RecordsReused, tracked)
	}
	if got, want := newestSegment(t, dir), wantSegment(t, 2, c.Export("sensor-a")); !bytes.Equal(got, want) {
		t.Fatalf("unchanged checkpoint differs from the full export\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestCheckpointConcurrentExport runs Publish, Export and
// Sink.Checkpoint at once (meant for -race): independent cursors must
// not disturb each other, and once publishing stops the next
// checkpoint must equal the full export.
func TestCheckpointConcurrentExport(t *testing.T) {
	c := churnCorrelator()
	defer c.Stop()
	dir := t.TempDir()
	s := incrementalSink(t, dir, c)
	defer s.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				c.Export("sensor-a")
			}
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if err := s.Checkpoint(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	rng := rand.New(rand.NewSource(11))
	base := uint64(1_000_000)
	for i := 0; i < 60; i++ {
		for _, ev := range churnBatch(rng, base, 25) {
			c.Publish(ev)
		}
		base += 400_000
	}
	close(stop)
	wg.Wait()
	c.Flush()

	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	seq := s.Metrics().Checkpoints
	if got, want := newestSegment(t, dir), wantSegment(t, seq, c.Export("sensor-a")); !bytes.Equal(got, want) {
		t.Fatalf("final checkpoint differs from the full export\ngot:\n%s\nwant:\n%s", got, want)
	}
}

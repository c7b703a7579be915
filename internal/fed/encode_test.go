package fed

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/netip"
	"strconv"
	"strings"
	"testing"

	"semnids/internal/core"
	"semnids/internal/incident"
	"semnids/internal/lineage"
)

// recordGen draws randomized record values that reach every branch of
// the hand-rolled encoder: zero and set scalars, nil, empty and full
// slices, every address form, and strings holding everything
// encoding/json escapes.
type recordGen struct{ rng *rand.Rand }

var genPieces = []string{
	"a", "sensor-7", "code-red-ii", "<", ">", "&", `"`, `\`, "/", "\x00", "\x01", "\x1f", "\x7f",
	"\b", "\f", "\n", "\r", "\t", " ", "\u00a0", "\u0085", "\u00e9", "\u2028", "\u2029", "\U0001F600",
	"\xff", "\xc3", "\xe2\x80", "\xed\xa0\x80", "\ufffd", "%",
}

func (g recordGen) str() string {
	var b strings.Builder
	for n := g.rng.Intn(6); n > 0; n-- {
		b.WriteString(genPieces[g.rng.Intn(len(genPieces))])
	}
	return b.String()
}

func (g recordGen) strs() []string {
	switch g.rng.Intn(4) {
	case 0:
		return nil
	case 1:
		return []string{}
	}
	out := make([]string, 1+g.rng.Intn(3))
	for i := range out {
		out[i] = g.str()
	}
	return out
}

func (g recordGen) addr() netip.Addr {
	var a16 [16]byte
	g.rng.Read(a16[:])
	switch g.rng.Intn(7) {
	case 0:
		return netip.Addr{}
	case 1:
		return netip.AddrFrom4([4]byte(a16[:4]))
	case 2:
		return netip.AddrFrom16(a16)
	case 3:
		return netip.AddrFrom4([4]byte(a16[:4])).Unmap() // plain IPv4 again
	case 4:
		return netip.AddrFrom16(netip.AddrFrom4([4]byte(a16[:4])).As16()) // IPv4-mapped
	case 5:
		a16[2], a16[3], a16[4] = 0, 0, 0 // runs of zero groups: "::" compression
		return netip.AddrFrom16(a16).WithZone("eth" + g.str())
	default:
		return netip.AddrFrom16(netip.AddrFrom4([4]byte(a16[:4])).As16()).WithZone(g.str() + "x")
	}
}

func (g recordGen) u64() uint64 {
	switch g.rng.Intn(3) {
	case 0:
		return 0
	case 1:
		return uint64(g.rng.Intn(1000))
	}
	return g.rng.Uint64()
}

func (g recordGen) int() int {
	switch g.rng.Intn(3) {
	case 0:
		return 0
	case 1:
		return g.rng.Intn(100) - 50
	}
	return int(g.rng.Uint64())
}

func (g recordGen) fp() core.Fingerprint {
	return core.Fingerprint{A: g.u64(), B: g.u64(), N: g.int()}
}

// n returns a slice length; -1 means a nil slice.
func (g recordGen) n() int { return g.rng.Intn(5) - 1 }

func (g recordGen) source() *incident.SourceEvidence {
	ev := &incident.SourceEvidence{
		Src: g.addr(), Sensors: g.strs(), Stage: g.str(),
		FirstUS: g.u64(), LastUS: g.u64(), LastSeenUS: g.u64(),
		ExploitAtUS: g.u64(), Severity: g.str(), Templates: g.strs(),
		PropagationAtUS: g.u64(),
	}
	if n := g.n(); n >= 0 {
		ev.Dests = make([]incident.DestEvidence, n)
		for i := range ev.Dests {
			ev.Dests[i] = incident.DestEvidence{Addr: g.addr(), FirstUS: g.u64(), LastUS: g.u64()}
		}
	}
	if n := g.n(); n >= 0 {
		ev.Alerts = make([]incident.AlertEvidence, n)
		for i := range ev.Alerts {
			ev.Alerts[i] = incident.AlertEvidence{TsUS: g.u64(), Dst: g.addr(), Template: g.str()}
		}
	}
	if n := g.n(); n >= 0 {
		ev.TargetedBy = make([]incident.FingerprintAttackers, n)
		for i := range ev.TargetedBy {
			fa := incident.FingerprintAttackers{Fingerprint: g.fp()}
			if m := g.n(); m >= 0 {
				fa.Refs = make([]incident.AttackerRef, m)
				for j := range fa.Refs {
					fa.Refs[j] = incident.AttackerRef{Attacker: g.addr(), TsUS: g.u64()}
				}
			}
			ev.TargetedBy[i] = fa
		}
	}
	if n := g.n(); n >= 0 {
		ev.Emitted = make([]incident.FingerprintSpan, n)
		for i := range ev.Emitted {
			ev.Emitted[i] = incident.FingerprintSpan{Fingerprint: g.fp(), FirstUS: g.u64(), LastUS: g.u64()}
		}
	}
	if n := g.n(); n >= 0 {
		ev.Victims = make([]incident.VictimEvidence, n)
		for i := range ev.Victims {
			ev.Victims[i] = incident.VictimEvidence{Addr: g.addr(), EchoUS: g.u64()}
		}
	}
	return ev
}

func (g recordGen) classifier() *incident.ClassifierEvidence {
	c := &incident.ClassifierEvidence{Src: g.addr(), SuspiciousUntilUS: g.u64()}
	if n := g.n(); n >= 0 {
		c.Dark = make([]netip.Addr, n)
		for i := range c.Dark {
			c.Dark[i] = g.addr()
		}
	}
	return c
}

func (g recordGen) observation() *lineage.Observation {
	return &lineage.Observation{
		Exact: g.fp(), Tail: g.fp(), TemplateSym: g.u64(), StmtsSym: g.u64(),
		FirstUS: g.u64(), Src: g.addr(), Dst: g.addr(), Sensors: g.strs(),
	}
}

func (g recordGen) header() *header {
	return &header{
		Format: g.str(), Version: g.int(), Sensors: g.strs(), WindowUS: g.u64(), FanoutThreshold: g.int(),
		Limits: incident.EvidenceLimits{MaxDestinations: g.int(), MaxAlerts: g.int(), MaxFingerprints: g.int(), MaxVictims: g.int()},
	}
}

func (g recordGen) mark() *checkpointMark {
	return &checkpointMark{Seq: g.u64(), Count: g.int(), Cls: g.int(), Lin: g.int(), Sensors: g.strs()}
}

// checkRecord holds appendRecord to json.Marshal on one record, and
// appendFrame to the frame around it.
func checkRecord(t *testing.T, rec *wireRecord) {
	t.Helper()
	want, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if got := appendRecord(nil, rec); !bytes.Equal(got, want) {
		t.Fatalf("hand-rolled encoding differs from encoding/json\ngot:  %s\nwant: %s", got, want)
	}
	var fe frameEncoder
	frame, err := fe.appendFrame([]byte("prefix"), rec)
	if err != nil {
		t.Fatal(err)
	}
	wantFrame := append([]byte("prefix"), strconv.Itoa(len(want))+" "+string(want)+"\n"...)
	if !bytes.Equal(frame, wantFrame) {
		t.Fatalf("frame differs\ngot:  %q\nwant: %q", frame, wantFrame)
	}
}

// TestAppendRecordMatchesJSON is the encoder's property test: for every
// record kind the writer emits (hdr, ckpt, src, cls, lin, end), over
// randomized values covering omitempty, nil-versus-empty slices, every
// netip.Addr form (zero, IPv4, IPv6, IPv4-mapped, zoned) and strings
// with HTML characters, control bytes, U+2028/U+2029 and invalid
// UTF-8, the hand-rolled bytes equal json.Marshal's.
func TestAppendRecordMatchesJSON(t *testing.T) {
	g := recordGen{rand.New(rand.NewSource(1))}
	for i := 0; i < 3000; i++ {
		checkRecord(t, &wireRecord{Kind: kindHeader, Hdr: g.header()})
		checkRecord(t, &wireRecord{Kind: kindCheckpoint, Ckpt: g.mark()})
		checkRecord(t, &wireRecord{Kind: kindSource, Src: g.source()})
		checkRecord(t, &wireRecord{Kind: kindClassifier, Cls: g.classifier()})
		checkRecord(t, &wireRecord{Kind: kindLineage, Lin: g.observation()})
		checkRecord(t, &wireRecord{Kind: kindCommit, End: g.mark()})
		// The envelope itself: an arbitrary kind, several payloads.
		checkRecord(t, &wireRecord{Kind: g.str(), Src: g.source(), Cls: g.classifier(), End: g.mark()})
	}
}

// FuzzAppendRecord decodes each input as a record envelope and holds
// the hand-rolled encoding of whatever decodes to json.Marshal; extra
// is spliced into the record's string fields and zones, so the fuzzer
// also reaches bytes a JSON decode never yields (invalid UTF-8).
func FuzzAppendRecord(f *testing.F) {
	for _, seed := range []int64{1, 2, 3} {
		ex := synthLineage(synthExport(f, "sensor-a", seed, 200), "sensor-a", seed, 10)
		ex.Classifier = []incident.ClassifierEvidence{
			{Src: netip.MustParseAddr("10.9.0.1"), SuspiciousUntilUS: 5, Dark: []netip.Addr{netip.MustParseAddr("10.200.0.1")}},
			{Src: netip.MustParseAddr("fe80::1%eth0")},
		}
		data := encode(f, ex)
		for len(data) > 0 {
			sp := bytes.IndexByte(data, ' ')
			n := 0
			for _, d := range data[:sp] {
				n = n*10 + int(d-'0')
			}
			f.Add(data[sp+1:sp+1+n], "")
			data = data[sp+1+n+1:]
		}
	}
	f.Add([]byte(`{"k":"src","src":{"src":"::ffff:1.2.3.4","stage":"<&>"}}`), "\xff\u2028")
	f.Fuzz(func(t *testing.T, doc []byte, extra string) {
		var rec wireRecord
		if json.Unmarshal(doc, &rec) != nil {
			return
		}
		if extra != "" {
			rec.Kind += extra
			if rec.Src != nil {
				rec.Src.Severity += extra
				rec.Src.Sensors = append(rec.Src.Sensors, extra)
				rec.Src.Src = rec.Src.Src.WithZone(extra)
			}
			if rec.Hdr != nil {
				rec.Hdr.Format += extra
			}
			if rec.Lin != nil {
				rec.Lin.Sensors = append(rec.Lin.Sensors, extra)
			}
		}
		checkRecord(t, &rec)
	})
}

// TestAppendRecordAllocs pins the encoder at zero allocations per
// frame once its buffers have grown.
func TestAppendRecordAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	ex := synthLineage(synthExport(t, "sensor-a", 1, 400), "sensor-a", 1, 10)
	var fe frameEncoder
	var dst []byte
	frames := func() {
		dst = dst[:0]
		for i := range ex.Sources {
			dst, _ = fe.appendFrame(dst, &wireRecord{Kind: kindSource, Src: &ex.Sources[i]})
		}
		for i := range ex.Lineage {
			dst, _ = fe.appendFrame(dst, &wireRecord{Kind: kindLineage, Lin: &ex.Lineage[i]})
		}
	}
	if allocs := testing.AllocsPerRun(20, frames); allocs != 0 {
		t.Fatalf("framing %d records allocates %.1f times, want 0", len(ex.Sources)+len(ex.Lineage), allocs)
	}
}

package engine

import (
	"net/netip"
	"strings"
	"testing"

	"semnids/internal/classify"
	"semnids/internal/netpkt"
	"semnids/internal/telemetry"
)

// TestClassifierSourceGauges checks the classifier-state gauges: one
// honeypot contact puts one source on the suspicious list, and a
// sub-threshold dark-space scanner holds dark state without being
// suspicious. Both gauges read the classifier's tables at scrape time
// without allocating.
func TestClassifierSourceGauges(t *testing.T) {
	reg := telemetry.NewRegistry()
	e := New(Config{
		Classify: classify.Config{
			Honeypots: []netip.Addr{netip.MustParseAddr("192.168.1.250")},
			DarkSpace: []netip.Prefix{netip.MustParsePrefix("192.168.2.0/24")},
		},
		Shards:    1,
		Telemetry: reg,
	})
	defer e.Stop()
	pkt := func(src, dst string, ts uint64) *netpkt.Packet {
		return &netpkt.Packet{SrcIP: netip.MustParseAddr(src), DstIP: netip.MustParseAddr(dst),
			Proto: netpkt.ProtoTCP, HasTCP: true, SrcPort: 4000, DstPort: 80, TimestampUS: ts}
	}
	e.Process(pkt("10.0.0.5", "192.168.1.250", 1))
	e.Process(pkt("10.0.0.6", "192.168.2.1", 2))
	e.Process(pkt("10.0.0.6", "192.168.2.2", 3))
	e.Drain()

	var sb strings.Builder
	if err := telemetry.WritePrometheus(&sb, reg); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`semnids_classify_sources{kind="suspicious"} 1`,
		`semnids_classify_sources{kind="dark"} 1`,
	} {
		if !strings.Contains(sb.String(), want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, sb.String())
		}
	}
	cl := e.Classifier()
	if allocs := testing.AllocsPerRun(10, func() { cl.SuspiciousCount(); cl.DarkCount() }); allocs != 0 {
		t.Errorf("classifier gauges allocate %.1f times per scrape, want 0", allocs)
	}
}

package engine

import (
	"fmt"
	"net/netip"
	"testing"

	"semnids/internal/classify"
	"semnids/internal/netpkt"
	"semnids/internal/traffic"
)

// ingestTrafficPackets builds a benign mixed workload: nFlows TCP
// sessions (several text segments, then FIN) plus a UDP datagram per
// flow — the shapes the ingest path sees constantly and must handle
// without per-packet allocation.
func ingestTrafficPackets(nFlows int) []*netpkt.Packet {
	payload := []byte("GET /index.html HTTP/1.1\r\nHost: bench.example.com\r\nAccept: */*\r\n\r\n")
	var pkts []*netpkt.Packet
	ts := uint64(1000)
	for f := 0; f < nFlows; f++ {
		src := netip.AddrFrom4([4]byte{10, 9, byte(f >> 8), byte(f)})
		seq := uint32(100)
		for s := 0; s < 3; s++ {
			pkts = append(pkts, &netpkt.Packet{
				SrcIP: src, DstIP: netip.AddrFrom4([4]byte{10, 9, 255, 1}),
				SrcPort: uint16(2000 + f), DstPort: 80,
				Proto: netpkt.ProtoTCP, HasTCP: true, Flags: netpkt.FlagACK,
				Seq: seq, Payload: payload, TimestampUS: ts,
			})
			seq += uint32(len(payload))
			ts += 50
		}
		pkts = append(pkts, &netpkt.Packet{
			SrcIP: src, DstIP: netip.AddrFrom4([4]byte{10, 9, 255, 1}),
			SrcPort: uint16(2000 + f), DstPort: 80,
			Proto: netpkt.ProtoTCP, HasTCP: true, Flags: netpkt.FlagFIN | netpkt.FlagACK,
			Seq: seq, TimestampUS: ts,
		})
		pkts = append(pkts, &netpkt.Packet{
			SrcIP: src, DstIP: netip.AddrFrom4([4]byte{10, 9, 255, 2}),
			SrcPort: uint16(3000 + f), DstPort: 53,
			Proto: netpkt.ProtoUDP, HasUDP: true,
			Payload: []byte("benign datagram content............."), TimestampUS: ts,
		})
		ts += 50
	}
	return pkts
}

// coapBlockConversations builds nConv benign CoAP Block1 uploads, one
// device each: every upload is a multi-datagram conversation (16-byte
// blocks, each acknowledged) followed by a quiet gap longer than the
// datagram idle window, so conversations expire through the window
// while later ones arrive.
func coapBlockConversations(nConv int) []*netpkt.Packet {
	g := traffic.NewGen(5)
	gateway := netip.AddrFrom4([4]byte{172, 18, 0, 1})
	var pkts []*netpkt.Packet
	for c := 0; c < nConv; c++ {
		dev := netip.AddrFrom4([4]byte{10, 18, byte(c >> 8), byte(c)})
		body := fmt.Appendf(nil, `{"dev":%d,"t":21.%d,"h":5%d,"fw":"1.4.%d","batt":"ok","uptime":%d}`, c, c%10, c%7, c%5, 1000+c)
		pkts = append(pkts, g.CoAPBlockPut(dev, gateway, "telemetry", body)...)
		g.Advance(4 * coapIdleUS)
	}
	return pkts
}

// coapIdleUS is the datagram idle window of the CoAP ingest case.
const coapIdleUS = 5_000

// TestEngineIngestAllocs is the ingest-path allocation-regression
// guard, mirroring sem's analyzer pin: a warm engine fed a benign
// trace (batch dispatch, reassembly, extraction, analysis, drain) must
// stay far below one allocation per packet. A regression to
// per-packet channel messages, per-packet Stream views or per-frame
// decode caches trips this immediately. The datagram case covers the
// same path with DatagramFlows on: per-conversation buffers, the idle
// window's tick-driven eviction and the tail analysis it triggers.
func TestEngineIngestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates; allocation pin not meaningful")
	}
	cases := []struct {
		name string
		pkts []*netpkt.Packet
		cfg  Config
		// shift moves the trace forward by its own span every run, so
		// repeated runs keep advancing the shard clock (and expiring
		// the previous run's conversations) instead of replaying the
		// same instants.
		shift bool
	}{
		{name: "tcp-mix", pkts: ingestTrafficPackets(40), cfg: Config{
			Classify:         classify.Config{Disabled: true},
			Shards:           1,
			VerdictCacheSize: -1,
		}},
		{name: "coap-block1", pkts: coapBlockConversations(40), shift: true, cfg: Config{
			Classify:         classify.Config{Disabled: true},
			Shards:           1,
			VerdictCacheSize: -1,
			DatagramFlows:    true,
			DatagramIdleUS:   coapIdleUS,
			TickIntervalUS:   coapIdleUS / 5,
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := New(c.cfg)
			defer e.Stop()
			base := make([]uint64, len(c.pkts))
			for i, p := range c.pkts {
				base[i] = p.TimestampUS
			}
			span := base[len(base)-1] - base[0] + 1
			runs := uint64(0)
			run := func() {
				if c.shift {
					runs++
					for i, p := range c.pkts {
						p.TimestampUS = base[i] + runs*span
					}
				}
				for _, p := range c.pkts {
					e.Process(p)
				}
				e.Drain()
			}
			// Warm: grows shard maps, reassembly pools, analyzer scratch.
			for i := 0; i < 3; i++ {
				run()
			}
			allocs := testing.AllocsPerRun(20, run)
			perPacket := allocs / float64(len(c.pkts))
			if c.cfg.DatagramFlows && e.Snapshot().FlowsEvictedUDPIdle == 0 {
				t.Fatal("no datagram conversation expired through the idle window")
			}
			// Steady state measures ~0.1 allocs/packet on the TCP mix
			// (drain barriers, map growth churn, pool refills after
			// GC). The budget is 0.5: loose enough for runtime noise,
			// tight enough that any per-packet allocation on the
			// ingest path (1.0+/packet) fails.
			if perPacket > 0.5 {
				t.Errorf("ingest path allocates %.2f objects/packet over %d packets (%.0f/run), budget 0.5",
					perPacket, len(c.pkts), allocs)
			}
			t.Logf("%.3f allocs/packet over %d packets", perPacket, len(c.pkts))
		})
	}
}

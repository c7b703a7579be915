package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/netip"
	"syscall"
	"time"

	nids "semnids"
	"semnids/internal/exploits"
	"semnids/internal/netpkt"
	"semnids/internal/polymorph"
	"semnids/internal/shellcode"
	"semnids/internal/traffic"
)

// Traffic classes of a labelled flow. The per-class analyzer rows use
// the same names.
const (
	classHTTP    = "http"
	classDNS     = "dns"
	classCoAP    = "coap"
	classText    = "text" // SMTP, FTP and POP3 dialogues
	classExploit = "exploit"
)

// perClass lists the classes reported as per-layer rows: every
// workload analyzes frames of each. HTTP and the text protocols are
// printed but are not rows: extraction prunes the generator's
// requests and does not extract response bodies, so their frames
// never reach the analyzer.
var perClass = []string{classDNS, classCoAP, classExploit}

// flowID identifies one direction of a flow as an alert names it.
type flowID struct {
	src, dst     netip.Addr
	sport, dport uint16
}

func idOf(k netpkt.FlowKey) flowID {
	return flowID{k.SrcIP, k.DstIP, k.SrcPort, k.DstPort}
}

// label is the ground truth of one payload-bearing flow direction.
type label struct {
	// hostile flows carry exploit code: the sensor must alert on
	// them, and on no other flow.
	hostile bool
	class   string
	// first is the index of the flow's first packet in the trace; its
	// due time in the open loop is first/rate.
	first int
}

// frameRef locates one captured frame inside the workload's pcap.
type frameRef struct {
	off, n int
	tsUS   uint64
}

// workload is one generated capture plus its ground truth and the
// sensor configuration it runs under.
type workload struct {
	name string
	seed int64
	// rate is the open loop's fixed offered rate in packets per
	// second. It never depends on measured capacity.
	rate float64
	// config returns the sensor configuration with its evidence sink
	// in dir.
	config func(dir string) nids.EngineConfig

	pcap       []byte
	frames     []frameRef
	wireBytes  int64 // sum of captured frame lengths
	labels     map[flowID]*label
	hostile    int // labelled hostile flows
	trailingUS uint64
}

// session is one generated exchange before it is placed in the trace.
type session struct {
	pkts []*netpkt.Packet
	// hostile marks the initiator's payload as exploit code; the
	// responder's direction is never hostile.
	hostile bool
	class   string
}

// baseTS is the trace time of the first packet. Nonzero, so that no
// trace-time arithmetic in the sensor starts at its zero value.
const baseTS = 1_000_000

var workloadNames = []string{"sensor-mixed", "scan-all", "iot-gateway"}

// makeWorkload generates the named workload from seed. The same seed
// gives the same bytes.
func makeWorkload(name string, seed int64) (*workload, error) {
	var w *workload
	var ss []session
	switch name {
	case "sensor-mixed":
		w, ss = sensorMixed(seed)
	case "scan-all":
		w, ss = scanAll(seed)
	case "iot-gateway":
		w, ss = iotGateway(seed)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	w.seed = seed
	if err := w.render(ss); err != nil {
		return nil, err
	}
	return w, nil
}

// Shared sensor settings: a deployed sensor with the incident
// correlator, lineage tracing and the durable evidence sink.
func sensorBase(dir string) nids.EngineConfig {
	return nids.EngineConfig{
		Correlate:         true,
		Lineage:           true,
		SensorID:          "bench",
		IncidentExportDir: dir,
	}
}

func sensorMixed(seed int64) (*workload, []session) {
	const (
		background = 50000
		codeRed    = 300
		// One honeypot session per this many background sessions:
		// crawlers, stray resolvers and CoAP discovery sweeps that
		// reach the decoy. They keep selected traffic flowing after the
		// last Code Red source, so the batches it sits in keep filling
		// at about the rate they filled before; with sparse noise
		// those last batches wait far longer than the rest, and where
		// p95 falls relative to them varies from seed to seed.
		honeypotEvery = 50
	)
	g := traffic.NewGen(seed)
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	crii := exploits.CodeRedIIRequest()
	var ss []session
	malAt := spread(codeRed, background, 0.5)
	for i := 0; i < background; i++ {
		ss = append(ss, benign(g, rng, 0))
		if i%honeypotEvery == honeypotEvery/2 {
			ss = append(ss, honeypotNoise(g, rng))
		}
		for ; malAt[i] > 0; malAt[i]-- {
			ss = append(ss, session{
				pkts:    g.ScanThenExploit(g.RandClient(), traffic.WebServer, 80, crii, 4),
				hostile: true, class: classExploit,
			})
		}
	}
	w := &workload{
		name: "sensor-mixed",
		rate: 100_000,
		config: func(dir string) nids.EngineConfig {
			cfg := sensorBase(dir)
			cfg.Honeypots = []string{traffic.HoneypotAddr.String()}
			cfg.DarkSpace = []string{traffic.DarkNet.String()}
			return cfg
		},
	}
	return w, ss
}

func scanAll(seed int64) (*workload, []session) {
	const (
		background = 9000
		deliveries = 300
	)
	g := traffic.NewGen(seed)
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	payloads := exploitPayloads(seed, deliveries)
	var ss []session
	malAt := spread(deliveries, background, 0.8)
	next := 0
	for i := 0; i < background; i++ {
		ss = append(ss, benign(g, rng, 8))
		for ; malAt[i] > 0; malAt[i]-- {
			p := payloads[next]
			next++
			ss = append(ss, session{
				pkts:    g.ScanThenExploit(g.RandClient(), traffic.WebServer, p.port, p.data, 4),
				hostile: true, class: classExploit,
			})
		}
	}
	w := &workload{
		name: "scan-all",
		rate: 25_000,
		config: func(dir string) nids.EngineConfig {
			cfg := sensorBase(dir)
			cfg.DisableClassification = true
			return cfg
		},
	}
	return w, ss
}

// iotIdle is the gateway's datagram idle window. The block-split
// firmware deliveries stay below the first-analysis watermark, so the
// idle window is what triggers their analysis.
const iotIdle = time.Second

func iotGateway(seed int64) (*workload, []session) {
	const (
		generations = 2
		fanout      = 15 // 15 + 225 deliveries, one alert each
		chatter     = 10 // sensor exchanges before each delivery
		trailing    = 18000
	)
	g := traffic.NewGen(seed)
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	firmware := exploits.CoAPFirmware()
	var ss []session
	sensorChatter := func() {
		if rng.Intn(10) == 0 {
			// The gateway's own uplink: web and DNS lookups.
			ss = append(ss, benign(g, rng, -1))
			return
		}
		ss = append(ss, coapChatter(g, rng))
	}
	nextVictim := 0
	victim := func() netip.Addr {
		nextVictim++
		return netip.AddrFrom4([4]byte{172, 17, byte(nextVictim >> 8), byte(nextVictim)})
	}
	infected := []netip.Addr{g.RandClient()}
	for gen := 0; gen < generations; gen++ {
		var nextGen []netip.Addr
		for _, host := range infected {
			for v := 0; v < fanout; v++ {
				for c := 0; c < chatter; c++ {
					sensorChatter()
				}
				target := victim()
				ss = append(ss, session{pkts: g.CoAPScan(host, 4), class: classCoAP})
				ss = append(ss, session{
					pkts:    g.CoAPBlockPut(host, target, "firmware", firmware),
					hostile: true, class: classExploit,
				})
				nextGen = append(nextGen, target)
			}
		}
		infected = nextGen
	}
	for c := 0; c < trailing; c++ {
		sensorChatter()
	}
	w := &workload{
		name: "iot-gateway",
		rate: 15_000,
		config: func(dir string) nids.EngineConfig {
			cfg := sensorBase(dir)
			cfg.DisableClassification = true
			cfg.DatagramFlows = true
			cfg.DatagramIdle = iotIdle
			return cfg
		},
	}
	return w, ss
}

// spread places n malicious sessions evenly over the first share of
// `slots` background sessions, leaving the rest of the trace as
// trailing time in which tick- and idle-driven analysis completes.
func spread(n, slots int, share float64) []int {
	at := make([]int, slots)
	span := int(float64(slots) * share)
	for i := 0; i < n; i++ {
		at[(i*span)/n]++
	}
	return at
}

// benign emits one background session. coapOneIn > 0 mixes CoAP
// sensor chatter in at that rate; a negative value restricts the
// session to HTTP and DNS.
func benign(g *traffic.Gen, rng *rand.Rand, coapOneIn int) session {
	if coapOneIn > 0 && rng.Intn(coapOneIn) == 0 {
		return coapChatter(g, rng)
	}
	client := g.RandClient()
	if coapOneIn < 0 {
		if rng.Intn(3) == 0 {
			return session{pkts: g.DNSQuery(client), class: classDNS}
		}
		return session{pkts: g.HTTPSession(client), class: classHTTP}
	}
	switch rng.Intn(12) {
	case 0, 1:
		return session{pkts: g.DNSQuery(client), class: classDNS}
	case 2:
		return session{pkts: g.SMTPSession(client), class: classText}
	case 3:
		return session{pkts: g.FTPSession(client), class: classText}
	case 4:
		return session{pkts: g.POP3Session(client), class: classText}
	default:
		return session{pkts: g.HTTPSession(client), class: classHTTP}
	}
}

// sensorAddr draws a device from the benign sensor pool.
func sensorAddr(rng *rand.Rand) netip.Addr {
	return netip.AddrFrom4([4]byte{172, 18, byte(rng.Intn(4)), byte(rng.Intn(250) + 1)})
}

// coapChatter is one exchange between a sensor and the gateway.
func coapChatter(g *traffic.Gen, rng *rand.Rand) session {
	dev := sensorAddr(rng)
	if rng.Intn(3) == 0 {
		return session{pkts: g.CoAPDiscovery(dev), class: classCoAP}
	}
	return session{pkts: g.CoAPSensorReading(dev), class: classCoAP}
}

// honeypotNoise is a benign exchange that reaches the decoy: the
// generator's web, DNS or CoAP exchange with its server replaced by
// the honeypot.
func honeypotNoise(g *traffic.Gen, rng *rand.Rand) session {
	var s session
	var server netip.Addr
	switch rng.Intn(3) {
	case 0:
		s, server = session{pkts: g.HTTPSession(g.RandClient()), class: classHTTP}, traffic.WebServer
	case 1:
		s, server = session{pkts: g.DNSQuery(g.RandClient()), class: classDNS}, traffic.DNSServer
	default:
		s, server = session{pkts: g.CoAPDiscovery(sensorAddr(rng)), class: classCoAP}, traffic.IoTGateway
	}
	for _, p := range s.pkts {
		if p.SrcIP == server {
			p.SrcIP = traffic.HoneypotAddr
		}
		if p.DstIP == server {
			p.DstIP = traffic.HoneypotAddr
		}
	}
	return s
}

// delivery is one exploit request and the port it is sent to.
type delivery struct {
	data []byte
	port uint16
}

// exploitPayloads builds n exploit requests cycling through
// ADMmutate and CLET encodings of the classic shell-spawning payload
// (a fresh encoding each) and the paper's Table 1 exploits.
func exploitPayloads(seed int64, n int) []delivery {
	table1 := exploits.Table1Exploits()
	clear := shellcode.ClassicPush().Bytes
	out := make([]delivery, 0, n)
	t := 0
	for i := 0; i < n; i++ {
		hop := seed*1000003 + int64(i)
		switch i % 4 {
		case 0, 1:
			var (
				enc []byte
				err error
			)
			if i%4 == 0 {
				enc, _, err = polymorph.NewADMmutate(hop).Encode(clear)
			} else {
				enc, _, err = polymorph.NewClet(hop).Encode(clear)
			}
			if err != nil {
				panic(fmt.Sprintf("encode delivery %d: %v", i, err))
			}
			out = append(out, delivery{exploits.PackOverflow(enc, exploits.OverflowOpts{}), 80})
		default:
			e := table1[t%len(table1)]
			t++
			out = append(out, delivery{e.Payload, e.DstPort})
		}
	}
	return out
}

// render restamps the sessions onto the open loop's send schedule —
// packet i at baseTS + i/rate — writes them as one pcap and records
// each payload-bearing flow's label.
func (w *workload) render(ss []session) error {
	var buf bytes.Buffer
	pw, err := netpkt.NewPcapWriter(&buf)
	if err != nil {
		panic(err) // a bytes.Buffer does not fail
	}
	w.labels = make(map[flowID]*label)
	usPerPkt := 1e6 / w.rate
	i := 0
	lastHostile := 0
	for _, s := range ss {
		if len(s.pkts) == 0 {
			continue
		}
		initiator := s.pkts[0].SrcIP
		for _, p := range s.pkts {
			p.TimestampUS = baseTS + uint64(float64(i)*usPerPkt)
			if len(p.Payload) > 0 {
				hostile := s.hostile && p.SrcIP == initiator
				id := idOf(p.Flow())
				if l, ok := w.labels[id]; !ok {
					w.labels[id] = &label{hostile: hostile, class: s.class, first: i}
				} else if hostile && !l.hostile {
					// A reused 5-tuple: the hostile session decides.
					l.hostile, l.class = true, s.class
				}
				if hostile {
					lastHostile = i
				}
			}
			frame := p.Serialize()
			w.frames = append(w.frames, frameRef{off: buf.Len() + 16, n: len(frame), tsUS: p.TimestampUS})
			w.wireBytes += int64(len(frame))
			if err := pw.WriteFrame(frame, p.TimestampUS); err != nil {
				panic(err)
			}
			i++
		}
	}
	// The capture lives outside the Go heap, as a sensor's capture
	// buffer would: on the heap it would set the collector's pacing,
	// and so the engine's peak heap, in proportion to the input size.
	pcap, err := syscall.Mmap(-1, 0, buf.Len(), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return fmt.Errorf("map %d bytes for the capture: %w", buf.Len(), err)
	}
	copy(pcap, buf.Bytes())
	w.pcap = pcap
	for _, l := range w.labels {
		if l.hostile {
			w.hostile++
		}
	}
	w.trailingUS = uint64(float64(i-1-lastHostile) * usPerPkt)
	return nil
}

// release unmaps the capture. Nothing may use the workload after.
func (w *workload) release() {
	if err := syscall.Munmap(w.pcap); err != nil {
		panic(fmt.Sprintf("unmap the capture: %v", err))
	}
	w.pcap = nil
}

// frame returns the bytes of captured frame i.
func (w *workload) frame(i int) []byte {
	f := w.frames[i]
	return w.pcap[f.off : f.off+f.n]
}

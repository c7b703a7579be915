package main

import (
	"bytes"
	"fmt"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	nids "semnids"
	"semnids/internal/classify"
	"semnids/internal/core"
	"semnids/internal/engine"
	"semnids/internal/extract"
	"semnids/internal/fed"
	"semnids/internal/incident"
	"semnids/internal/lineage"
	"semnids/internal/netpkt"
	"semnids/internal/reasm"
	"semnids/internal/sem"
)

// The engine's defaults for the settings the benchmark's
// configurations leave unset (internal/engine.New).
const (
	flowIdleUS      = 60e6
	tickUS          = 1e6
	shardByteBudget = 64 << 20
	minAnalyzeBytes = 256
	// decodeSampleBytes bounds the frames kept for the separate x86
	// decode and IR lift pass.
	decodeSampleBytes = 8 << 20
)

// walker runs the engine's composition on one goroutine, calling each
// layer's public functions directly, so every call can be timed. It
// keeps one reassembly shard per engine shard, dispatched with the
// engine's flow hash, so flow state, ticks and evictions follow the
// engine's. The correlator and sink keep their own goroutines but are
// driven in lockstep: every packet's events are flushed before the
// next packet, and each incident rise is checkpointed synchronously.
type walker struct {
	w   *workload
	cfg nids.EngineConfig
	tr  *tracer

	cl     *classify.Classifier
	an     *sem.Analyzer
	shards []*walkShard
	cache  map[core.Fingerprint]verdict
	corr   *incident.Correlator
	lin    *lineage.Store
	sink   *fed.Sink
	dir    string

	rose      atomic.Bool
	published bool
	// The engine's sink coalesces checkpoint requests that arrive
	// while it is writing one. The walk models that: a rise marks a
	// checkpoint pending, and it is written once the previous
	// checkpoint's duration has passed in walk time.
	t0        time.Time
	pending   bool
	busyUntil time.Duration
	// events records every published event for the correlator's own
	// timing pass (the first traced walk only).
	events     []core.Event
	keepEvents bool
	alerts     []core.Alert
	err        error // first checkpoint failure

	c walkCounts
	// kept holds copies of analyzed frames for the decode/lift pass.
	kept      [][]byte
	keptBytes int
}

// walkCounts are the work counts the per-layer ratios divide by.
type walkCounts struct {
	packets, selected     int
	selectedPayload       int64 // payload bytes of selected packets
	streams               int
	streamBytes           int64 // bytes handed to extraction
	frames, misses        int
	frameBytes, missBytes int64
	classBytes            map[string]int64 // analyzed (miss) bytes per class
	sketches              int
	events                int
	checkpoints           int
	checkpointBytes       int64
	unclosed              int   // flows leaving reassembly without a FIN
	shardPackets          []int // selected packets per shard
}

type verdict struct {
	ds []sem.Detection
	sk sem.Sketch
}

type flowMeta struct {
	reason classify.Reason
	ts     uint64
}

type alertKey struct {
	flow     netpkt.FlowKey
	template string
}

// walkShard mirrors one engine shard's flow state.
type walkShard struct {
	k            *walker
	asm          *reasm.Assembler
	lastAnalyzed map[netpkt.FlowKey]int
	meta         map[netpkt.FlowKey]flowMeta
	seen         map[alertKey]bool
	dgramSeen    map[netpkt.FlowKey]uint64
	maxTS        uint64
	lastTick     uint64
}

// classifyConfig translates the public configuration the way
// nids.NewEngine does.
func classifyConfig(cfg nids.EngineConfig) (classify.Config, error) {
	cc := classify.Config{ScanThreshold: cfg.ScanThreshold, Disabled: cfg.DisableClassification}
	for _, h := range cfg.Honeypots {
		a, err := netip.ParseAddr(h)
		if err != nil {
			return cc, err
		}
		cc.Honeypots = append(cc.Honeypots, a)
	}
	for _, d := range cfg.DarkSpace {
		p, err := netip.ParsePrefix(d)
		if err != nil {
			return cc, err
		}
		cc.DarkSpace = append(cc.DarkSpace, p)
	}
	return cc, nil
}

func newWalker(w *workload, dir string, tr *tracer, keep bool) (*walker, error) {
	cfg := w.config(dir)
	cc, err := classifyConfig(cfg)
	if err != nil {
		return nil, err
	}
	k := &walker{
		w: w, cfg: cfg, tr: tr, dir: dir,
		cl:    classify.New(cc),
		an:    sem.NewAnalyzer(sem.BuiltinTemplates()),
		cache: make(map[core.Fingerprint]verdict),
	}
	k.c.classBytes = make(map[string]int64)
	if !keep {
		k.keptBytes = decodeSampleBytes
	}
	k.keepEvents = keep
	n := cfg.Shards
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	for i := 0; i < n; i++ {
		s := &walkShard{
			k:            k,
			asm:          reasm.New(),
			lastAnalyzed: make(map[netpkt.FlowKey]int),
			meta:         make(map[netpkt.FlowKey]flowMeta),
			seen:         make(map[alertKey]bool),
			dgramSeen:    make(map[netpkt.FlowKey]uint64),
		}
		s.asm.SetEvictHandler(s.evicted)
		k.shards = append(k.shards, s)
	}
	k.c.shardPackets = make([]int, n)
	k.corr = incident.New(incident.Config{
		WindowUS:        uint64(cfg.IncidentWindow / time.Microsecond),
		FanoutThreshold: cfg.IncidentFanout,
		MaxSources:      cfg.MaxIncidentSources,
		OnIncident:      func(incident.Incident) { k.rose.Store(true) },
	})
	k.lin = lineage.NewStore(lineage.StoreConfig{Sensor: cfg.SensorID})
	sink, err := fed.OpenSink(fed.SinkConfig{
		Dir:    dir,
		Export: k.export,
		// The walk checkpoints synchronously at each incident rise; a
		// wall-clock safety-net checkpoint would run concurrently.
		CheckpointEvery: time.Hour,
	})
	if err != nil {
		k.corr.Stop()
		return nil, err
	}
	k.sink = sink
	return k, nil
}

// export is the evidence snapshot nids.Engine checkpoints: correlator
// evidence, classifier state and lineage observations.
func (k *walker) export() *incident.EvidenceExport {
	ex := k.corr.Export(k.cfg.SensorID)
	for _, st := range k.cl.ExportState() {
		ex.Classifier = append(ex.Classifier, incident.ClassifierEvidence{
			Src: st.Src, SuspiciousUntilUS: st.SuspiciousUntilUS, Dark: st.Dark,
		})
	}
	ex.Lineage = k.lin.Export()
	return ex
}

func (k *walker) stop() {
	k.sink.Close()
	k.corr.Stop()
}

// run walks the whole capture and ends as Engine.Run does, with a
// drain of every shard, a correlator flush and a checkpoint.
func (k *walker) run() error {
	k.t0 = time.Now()
	sp := k.tr.begin(lParse, flowID{})
	tr, err := netpkt.NewTraceReader(bytes.NewReader(k.w.pcap))
	k.tr.end(sp)
	if err != nil {
		return err
	}
	tr.SetPool(netpkt.NewPacketPool())
	var prev *netpkt.Packet
	for {
		// One engine span per packet, as Engine.Run's loop reads a
		// packet and processes it. The parse span also covers returning
		// the previous packet to the pool, the other half of netpkt's
		// per-packet work.
		sp := k.tr.begin(lEngine, flowID{})
		psp := k.tr.begin(lParse, flowID{})
		prev.Release()
		p, err := tr.NextPacket(nil)
		k.tr.end(psp)
		if err != nil {
			k.tr.end(sp)
			if err == io.EOF {
				break
			}
			return err
		}
		k.packet(p)
		k.tr.end(sp)
		prev = p
	}
	for _, s := range k.shards {
		s.drain()
	}
	k.published = true
	k.rose.Store(true)
	k.busyUntil = 0
	k.settle()
	return k.err
}

// packet is the engine's per-packet path: the feeder classifies and
// dispatches, the owning shard handles the packet, and the events it
// published are settled. The engine span's self time is the feeder's
// and shards' own bookkeeping.
func (k *walker) packet(p *netpkt.Packet) {
	k.c.packets++
	defer k.settle()
	sp := k.tr.begin(lClassify, flowID{})
	ok, reason := k.cl.Classify(p)
	k.tr.end(sp)
	if !ok {
		return
	}
	k.c.selected++
	k.c.selectedPayload += int64(len(p.Payload))
	key := p.Flow()
	if p.HasUDP {
		key = key.Canonical()
	}
	si := 0
	if len(k.shards) > 1 {
		si = engine.FlowHash(key, len(k.shards))
	}
	k.c.shardPackets[si]++
	k.shards[si].handle(p, reason)
}

// settle applies the events published for the last packet, and
// writes a checkpoint when one is pending and the sink is free.
func (k *walker) settle() {
	if k.published {
		k.published = false
		sp := k.tr.begin(lFlush, flowID{})
		k.corr.Flush()
		k.tr.end(sp)
	}
	if k.rose.Swap(false) {
		k.pending = true
	}
	if !k.pending || time.Since(k.t0) < k.busyUntil {
		return
	}
	k.pending = false
	seg0, size0 := k.newestSegment()
	t0 := time.Now()
	sp := k.tr.begin(lCheckpoint, flowID{})
	err := k.sink.Checkpoint()
	k.tr.end(sp)
	if err != nil {
		k.err = fmt.Errorf("walk checkpoint: %w", err)
		return
	}
	k.busyUntil = time.Since(k.t0) + time.Since(t0)
	k.c.checkpoints++
	seg1, size1 := k.newestSegment()
	if seg1 == seg0 {
		size1 -= size0
	}
	k.c.checkpointBytes += size1
}

// newestSegment returns the name and size of the newest evidence
// segment. A checkpoint appends to it or rotates to a new one.
func (k *walker) newestSegment() (string, int64) {
	ents, err := os.ReadDir(k.dir)
	if err != nil || len(ents) == 0 {
		return "", 0
	}
	name := ents[len(ents)-1].Name() // ReadDir sorts by name
	fi, err := os.Stat(filepath.Join(k.dir, name))
	if err != nil {
		return name, 0
	}
	return name, fi.Size()
}

func (k *walker) tap(ev core.Event, flow flowID) {
	k.c.events++
	k.published = true
	if k.keepEvents {
		k.events = append(k.events, ev)
	}
	sp := k.tr.begin(lLineage, flow)
	k.lin.Observe(ev)
	k.tr.end(sp)
	sp = k.tr.begin(lPublish, flow)
	k.corr.Publish(ev)
	k.tr.end(sp)
}

func (s *walkShard) handle(p *netpkt.Packet, reason classify.Reason) {
	if p.TimestampUS > s.maxTS {
		s.maxTS = p.TimestampUS
	}
	defer s.maybeTick()
	if !p.HasTCP {
		s.handleDatagram(p, reason)
		return
	}
	flow := p.Flow()
	if _, tracked := s.meta[flow]; !tracked {
		s.flowOpen(flow, p.TimestampUS)
	}
	s.meta[flow] = flowMeta{reason, p.TimestampUS}
	sp := s.k.tr.begin(lReasmFeed, idOf(flow))
	stream := s.asm.Feed(p)
	s.k.tr.end(sp)
	if stream == nil {
		return
	}
	if stream.Rewritten {
		delete(s.lastAnalyzed, flow)
	}
	if core.ShouldAnalyze(stream.Finished, len(stream.Data), s.lastAnalyzed[flow], minAnalyzeBytes) {
		s.lastAnalyzed[flow] = len(stream.Data)
		s.analyze(stream.Data, false, nil, flow, reason, p.TimestampUS)
	}
	if stream.Finished {
		if closed := s.asm.Close(flow); closed != nil {
			s.asm.Recycle(closed.Data)
		}
		delete(s.lastAnalyzed, flow)
		delete(s.meta, flow)
	}
}

func (s *walkShard) handleDatagram(p *netpkt.Packet, reason classify.Reason) {
	if len(p.Payload) == 0 {
		return
	}
	flow := p.Flow()
	if !s.k.cfg.DatagramFlows {
		if _, seen := s.dgramSeen[flow]; !seen {
			s.flowOpen(flow, p.TimestampUS)
		}
		if len(s.dgramSeen) >= 1<<16 {
			clear(s.dgramSeen)
		}
		s.dgramSeen[flow] = p.TimestampUS
		s.analyze(p.Payload, false, nil, flow, reason, p.TimestampUS)
		return
	}
	if _, tracked := s.meta[flow]; !tracked {
		s.flowOpen(flow, p.TimestampUS)
	}
	s.meta[flow] = flowMeta{reason, p.TimestampUS}
	sp := s.k.tr.begin(lReasmFeed, idOf(flow))
	stream := s.asm.FeedDatagram(flow, p.Payload, p.TimestampUS)
	s.k.tr.end(sp)
	if stream == nil {
		return
	}
	if core.ShouldAnalyze(false, len(stream.Data), s.lastAnalyzed[flow], minAnalyzeBytes) {
		s.lastAnalyzed[flow] = len(stream.Data)
		s.analyze(stream.Data, true, stream.Bounds, flow, reason, p.TimestampUS)
	}
}

// datagramIdleUS is the engine's datagram window after defaulting.
func (k *walker) datagramIdleUS() uint64 {
	if d := uint64(k.cfg.DatagramIdle / time.Microsecond); d > 0 {
		return d
	}
	return flowIdleUS
}

func (s *walkShard) maybeTick() {
	if s.maxTS-s.lastTick < tickUS {
		return
	}
	s.lastTick = s.maxTS
	idle := s.k.datagramIdleUS()
	sp := s.k.tr.begin(lReasmEvict, flowID{})
	if s.maxTS > flowIdleUS {
		s.asm.EvictIdle(s.maxTS - flowIdleUS)
	}
	if s.k.cfg.DatagramFlows && idle < flowIdleUS && s.maxTS > idle {
		s.asm.EvictDgramIdle(s.maxTS - idle)
	}
	if len(s.dgramSeen) > 0 && s.maxTS > idle {
		cutoff := s.maxTS - idle
		for k, last := range s.dgramSeen {
			if last < cutoff {
				delete(s.dgramSeen, k)
			}
		}
	}
	s.asm.EvictLRUUntil(shardByteBudget)
	s.k.tr.end(sp)
}

// evicted is the assembler's evict handler: the flow's unanalyzed
// tail is analyzed before its state is dropped.
func (s *walkShard) evicted(st *reasm.Stream) {
	s.k.c.unclosed++
	if len(st.Data) > s.lastAnalyzed[st.Key] {
		info := s.meta[st.Key]
		s.analyze(st.Data, st.Dgram, st.Bounds, st.Key, info.reason, info.ts)
	}
	delete(s.lastAnalyzed, st.Key)
	delete(s.meta, st.Key)
	s.k.tap(core.Event{
		Kind: core.EventFlowEvict, TimestampUS: s.maxTS,
		Src: st.Key.SrcIP, Dst: st.Key.DstIP, SrcPort: st.Key.SrcPort, DstPort: st.Key.DstPort,
	}, idOf(st.Key))
	s.asm.Recycle(st.Data)
}

// drain is the shard's part of Engine.Drain: every tracked flow's
// unanalyzed tail is analyzed and flow state reset.
func (s *walkShard) drain() {
	sp := s.k.tr.begin(lReasmDrain, flowID{})
	s.k.c.unclosed += s.asm.FlowCount()
	for _, st := range s.asm.Drain() {
		if len(st.Data) > s.lastAnalyzed[st.Key] {
			info := s.meta[st.Key]
			s.analyze(st.Data, st.Dgram, st.Bounds, st.Key, info.reason, info.ts)
		}
		s.asm.Recycle(st.Data)
	}
	s.k.tr.end(sp)
	clear(s.lastAnalyzed)
	clear(s.meta)
	clear(s.seen)
	clear(s.dgramSeen)
}

func (s *walkShard) flowOpen(flow netpkt.FlowKey, ts uint64) {
	s.k.tap(core.Event{
		Kind: core.EventFlowOpen, TimestampUS: ts,
		Src: flow.SrcIP, Dst: flow.DstIP, SrcPort: flow.SrcPort, DstPort: flow.DstPort,
	}, idOf(flow))
}

// analyze extracts frames from one stream view — walking datagram
// boundaries for a datagram flow — and resolves each.
func (s *walkShard) analyze(data []byte, dgram bool, bounds []int, flow netpkt.FlowKey, reason classify.Reason, ts uint64) {
	if len(data) == 0 {
		return
	}
	k := s.k
	k.c.streams++
	k.c.streamBytes += int64(len(data))
	id := idOf(flow)
	sp := k.tr.begin(lExtract, id)
	var frames []extract.Frame
	if dgram {
		frames = extract.ExtractDatagrams(data, bounds)
	} else {
		frames = extract.Extract(data)
	}
	k.tr.end(sp)
	for _, f := range frames {
		s.resolve(f, flow, id, reason, ts)
	}
}

// resolve is the engine's analyzeFrame: fingerprint, verdict (memoized
// per fingerprint), sketch, events and alerts.
func (s *walkShard) resolve(f extract.Frame, flow netpkt.FlowKey, id flowID, reason classify.Reason, ts uint64) {
	k := s.k
	k.c.frames++
	k.c.frameBytes += int64(len(f.Data))
	sp := k.tr.begin(lFingerprint, id)
	fp := core.FingerprintOf(f.Data)
	k.tr.end(sp)
	v, hit := k.cache[fp]
	if !hit {
		k.c.misses++
		k.c.missBytes += int64(len(f.Data))
		class := "other"
		if l := k.w.labels[id]; l != nil {
			class = l.class
		}
		k.c.classBytes[class] += int64(len(f.Data))
		sp = k.tr.begin(lAnalyze, id)
		v.ds = k.an.AnalyzeFrameCached(f.Data, f.Code)
		k.tr.end(sp)
		if len(v.ds) > 0 {
			k.c.sketches++
			sp = k.tr.begin(lSketch, id)
			v.sk = k.an.Sketch(f.Data, v.ds)
			k.tr.end(sp)
		}
		k.cache[fp] = v
		if k.keptBytes < decodeSampleBytes {
			k.kept = append(k.kept, append([]byte(nil), f.Data...))
			k.keptBytes += len(f.Data)
		}
	}
	k.tap(core.Event{
		Kind: core.EventFingerprint, TimestampUS: ts,
		Src: flow.SrcIP, Dst: flow.DstIP, SrcPort: flow.SrcPort, DstPort: flow.DstPort,
		Fingerprint: fp, Sketch: v.sk,
	}, id)
	for _, d := range v.ds {
		key := alertKey{flow, d.Template}
		if s.seen[key] {
			continue
		}
		s.seen[key] = true
		k.alerts = append(k.alerts, core.Alert{
			TimestampUS: ts,
			Src:         flow.SrcIP, Dst: flow.DstIP, SrcPort: flow.SrcPort, DstPort: flow.DstPort,
			Reason: reason, FrameSource: f.Source, Detection: d,
		})
		sp = k.tr.begin(lClassify, id)
		k.cl.MarkSuspicious(flow.SrcIP, ts)
		k.tr.end(sp)
		k.tap(core.Event{
			Kind: core.EventAlert, TimestampUS: ts,
			Src: flow.SrcIP, Dst: flow.DstIP, SrcPort: flow.SrcPort, DstPort: flow.DstPort,
			Fingerprint: fp, Sketch: v.sk, Template: d.Template, Severity: d.Severity,
		}, id)
	}
}

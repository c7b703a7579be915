// Package engine is the continuously-running streaming layer over the
// paper's five-stage pipeline. Where internal/core is a one-shot batch
// detector (single feeder, analyze-at-Flush, dies after Flush), the
// engine is built to run forever under load:
//
//   - Ingestion is sharded: packets are dispatched by FlowKey hash to
//     N shards, each owning its flow table, reassembler slice and
//     analysis bookkeeping, so shards run lock-free and scale across
//     cores. The cheap classification stage runs on the ingest
//     goroutine; only selected packets cross a shard queue.
//   - Flow lifecycles are managed: a periodic tick (driven by trace
//     time) analyzes-then-evicts idle streams and enforces a byte
//     budget per shard with LRU eviction, so abandoned and long-lived
//     flows cannot grow state without bound.
//   - Verdicts are cached by payload fingerprint: a worm outbreak
//     delivering millions of identical payloads hits the semantic
//     analyzer once.
//   - Shard queues are bounded with an explicit overload policy:
//     block (backpressure) or shed (drop + count), never silent
//     unbounded buffering.
//   - Drain flushes all in-progress flows and leaves the engine live
//     for the next trace; Stop terminates it. Both are idempotent and
//     safe alongside concurrent Alerts/Snapshot reads.
package engine

import (
	"cmp"
	"math"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"semnids/internal/classify"
	"semnids/internal/core"
	"semnids/internal/netpkt"
	"semnids/internal/sem"
	"semnids/internal/telemetry"
)

// OverloadPolicy selects what Process does when a shard queue is full.
type OverloadPolicy uint8

const (
	// PolicyBlock applies backpressure: Process blocks until the
	// owning shard has queue room. No packet is lost; ingestion slows
	// to the analysis rate.
	PolicyBlock OverloadPolicy = iota
	// PolicyShed drops the packet and counts it in Metrics.Dropped.
	// Ingestion never blocks; a saturated sensor degrades by sampling
	// instead of stalling the capture loop.
	PolicyShed
)

// Config parameterizes the streaming engine.
type Config struct {
	// Classify configures the traffic classification stage (shared by
	// all shards; it runs on the ingest goroutine).
	Classify classify.Config

	// Templates is the semantic template set (default: the built-in
	// set).
	Templates []*sem.Template

	// SensorID names this engine instance in exported incident
	// evidence: every evidence record a tap-fed correlator exports
	// carries it as provenance, so federated merges stay traceable to
	// the sensor that observed each piece (default "sensor").
	SensorID string

	// Shards is the number of ingest shards (default: GOMAXPROCS).
	Shards int

	// QueueDepth bounds each shard's packet queue (default 1024).
	QueueDepth int

	// BatchSize is the shard dispatch granularity: selected packets
	// accumulate into per-shard batches of this many packets and cross
	// the shard queue in one send, amortizing the handoff (and its
	// consumer wakeup) that used to be paid per packet. Batches also
	// flush when trace time advances a tick, so latency is bounded by
	// TickIntervalUS. Default 64, capped at QueueDepth so tiny queues
	// keep per-packet overload semantics.
	BatchSize int

	// Overload selects the full-queue policy (default PolicyBlock).
	Overload OverloadPolicy

	// FlowIdleTimeoutUS evicts flows idle for this many trace
	// microseconds; their unanalyzed tail is still analyzed (default
	// 60s).
	FlowIdleTimeoutUS uint64

	// TickIntervalUS is how often, in trace time, each shard runs its
	// eviction tick (default 1s). Ticks advance with selected
	// traffic; Drain covers quiet periods.
	TickIntervalUS uint64

	// ShardByteBudget caps reassembly buffering per shard;
	// least-recently-active flows are evicted (and tail-analyzed)
	// beyond it (default 64 MiB).
	ShardByteBudget int

	// DatagramFlows enables conversation tracking for non-TCP traffic:
	// each direction of a datagram exchange accumulates into an
	// idle-windowed buffer (with per-datagram boundaries preserved)
	// that is concatenated-and-swept like a TCP stream, so payload
	// spread across many datagrams — CoAP block transfers, chunked DNS
	// abuse — is analyzed whole. Off by default: single-datagram
	// analysis behavior is then byte-identical to prior releases.
	DatagramFlows bool

	// DatagramIdleUS is the idle window for datagram conversations in
	// trace microseconds: a datagram flow quiet this long is evicted
	// (its buffered tail analyzed first). Defaults to
	// FlowIdleTimeoutUS; set lower to expire chatty short exchanges
	// ahead of TCP flows. Also bounds the flow-open dedup window when
	// DatagramFlows is off.
	DatagramIdleUS uint64

	// VerdictCacheSize is the payload-fingerprint cache capacity in
	// entries: 0 selects the default (8192), negative disables the
	// cache.
	VerdictCacheSize int

	// MinAnalyzeBytes is the stream size that triggers a first
	// analysis before the connection closes (default 256).
	MinAnalyzeBytes int

	// FullScan disables classification pruning and binary extraction
	// (the exhaustive baseline).
	FullScan bool

	// SweepOffsets overrides the analyzer's disassembly offsets.
	SweepOffsets []int

	// Lineage enables structural-fingerprint computation: frames whose
	// analysis produced detections are additionally sketched
	// (template/statement symbols plus the emulator-decoded tail, see
	// sem.Sketch) and the sketch rides the alert/fingerprint events —
	// the input to payload lineage tracing. Sketches are memoized in
	// the verdict cache alongside detections, so the emulation cost is
	// paid once per distinct hostile payload, never for benign frames.
	Lineage bool

	// OnAlert, when non-nil, is invoked synchronously for each alert
	// (from shard goroutines).
	OnAlert func(core.Alert)

	// Telemetry receives the engine's live metric series (counters and
	// gauges bridged at scrape time, latency histograms fed from the
	// hot path). Nil creates a private registry, so instrumentation
	// handles are always valid and the hot path carries no nil checks;
	// pass a shared registry to expose the series over HTTP. Each
	// engine needs its own registry (per-shard series are named by
	// shard id).
	Telemetry *telemetry.Registry

	// OnEvent, when non-nil, taps the shard hot path: flow opens,
	// alerts (with payload fingerprints), per-frame fingerprint
	// observations and flow evictions are published as typed events —
	// the feed the incident correlator consumes. Events are plain
	// values; a nil tap costs a single branch and no allocation.
	// Invoked from shard goroutines; alert/fingerprint events carry
	// fingerprints even when the verdict cache is disabled.
	OnEvent func(core.Event)
}

// Metrics is a snapshot of engine counters and gauges.
type Metrics struct {
	// Packets offered to the engine; Selected passed classification;
	// Dropped were shed under overload (PolicyShed only).
	Packets, Selected, Dropped uint64

	// StreamsAnalyzed, Frames, FrameBytes and Alerts mirror the batch
	// pipeline's counters.
	StreamsAnalyzed, Frames, FrameBytes, Alerts uint64

	// CacheHits and CacheMisses count verdict-cache lookups; a hit
	// skips disassembly, lifting and matching entirely.
	CacheHits, CacheMisses uint64

	// FlowsEvictedIdle and FlowsEvictedLRU count tick evictions (the
	// evicted flows' unanalyzed tails were analyzed first).
	// FlowsEvictedUDPIdle counts datagram flows expired by the
	// dedicated datagram idle window (DatagramIdleUS tighter than
	// FlowIdleTimeoutUS).
	FlowsEvictedIdle, FlowsEvictedLRU, FlowsEvictedUDPIdle uint64

	// CacheRejected counts inserts the verdict cache's TinyLFU
	// admission policy refused (one-shot payloads kept from churning
	// hot entries).
	CacheRejected uint64

	// Sketches counts structural-fingerprint computations (lineage
	// mode: detected frames emulated and sketched; cache hits reuse
	// the memoized sketch and are not counted).
	Sketches uint64

	// FlowsActive and BufferedBytes are gauges summed over shards;
	// CacheEntries is the verdict cache's current size.
	// UDPFlowsActive and UDPBufferedBytes are the datagram-flow subset
	// of those gauges (zero with DatagramFlows off).
	FlowsActive      int
	BufferedBytes    int
	UDPFlowsActive   int
	UDPBufferedBytes int
	CacheEntries     int

	// Shards holds per-shard load gauges, indexed by shard id — the
	// overload early-warning: queue depth climbing toward capacity
	// (or EWMA throughput flattening) is visible before Dropped
	// increments.
	Shards []ShardMetrics
}

// ShardMetrics is one shard's load view.
type ShardMetrics struct {
	// QueueLen counts the packets currently dispatched to the shard
	// and not yet processed (including the batch in progress);
	// QueueCap is the configured QueueDepth.
	QueueLen, QueueCap int

	// PacketsPerSec is an exponentially-weighted moving average of the
	// shard's processing rate in trace time, updated at each lifecycle
	// tick.
	PacketsPerSec float64
}

// Engine is a running streaming detector. Feed packets with Process
// (or the public wrappers) from one goroutine; analysis runs on the
// shard goroutines.
type Engine struct {
	cfg        Config
	classifier *classify.Classifier
	analyzer   *sem.Analyzer
	cache      *verdictCache
	shards     []*shard

	// feeder is the default ingestion handle behind Engine.Process;
	// parallel capture loops create their own with NewFeeder. feedMu
	// serializes its batching state so Drain/Stop (which flush it) can
	// run concurrently with a Process loop, as they always could — an
	// uncontended lock costs nanoseconds against the per-packet
	// classification work.
	feedMu sync.Mutex
	feeder *Feeder

	mu     sync.Mutex
	alerts []core.Alert

	stopOnce sync.Once
	stopped  atomic.Bool

	m struct {
		packets, selected, dropped          atomic.Uint64
		streams, frames, frameBytes, alerts atomic.Uint64
		cacheHits, cacheMisses              atomic.Uint64
		evictedIdle, evictedLRU             atomic.Uint64
		evictedDgram                        atomic.Uint64
		sketches                            atomic.Uint64
	}

	// tel holds the hot-path telemetry handles. The registry itself
	// mostly bridges the m counters via scrape-time funcs; only the
	// latency histograms are written from the packet path, and each
	// write is a handful of atomic adds (0 allocs, pinned by
	// TestEngineTelemetryAllocs).
	tel struct {
		reg *telemetry.Registry

		// ingestNS: batch first-append to batch fully analyzed (the
		// ingest→verdict pipeline latency, batch-amortized so the hot
		// path pays one clock read per batch, not per packet).
		// dispatchWaitNS: time a feeder spent blocked handing a batch
		// to a full shard queue (backpressure wait; ~0 when healthy).
		// frameNS: one semantic analysis of one frame (cache misses
		// and uncached runs; hits bypass analysis and the clock).
		ingestNS       *telemetry.Histogram
		dispatchWaitNS *telemetry.Histogram
		frameNS        *telemetry.Histogram
	}
}

// New builds and starts an engine: its shard goroutines run until
// Stop.
func New(cfg Config) *Engine {
	if cfg.SensorID == "" {
		cfg.SensorID = "sensor"
	}
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 1024
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 64
	}
	if cfg.BatchSize > cfg.QueueDepth {
		cfg.BatchSize = cfg.QueueDepth
	}
	if cfg.FlowIdleTimeoutUS == 0 {
		cfg.FlowIdleTimeoutUS = 60e6
	}
	if cfg.DatagramIdleUS == 0 {
		cfg.DatagramIdleUS = cfg.FlowIdleTimeoutUS
	}
	if cfg.TickIntervalUS == 0 {
		cfg.TickIntervalUS = 1e6
	}
	if cfg.ShardByteBudget <= 0 {
		cfg.ShardByteBudget = 64 << 20
	}
	if cfg.MinAnalyzeBytes <= 0 {
		cfg.MinAnalyzeBytes = 256
	}
	if cfg.FullScan {
		cfg.Classify.Disabled = true
	}
	if cfg.Templates == nil {
		cfg.Templates = sem.BuiltinTemplates()
	}
	e := &Engine{
		cfg:        cfg,
		classifier: classify.New(cfg.Classify),
		analyzer:   sem.NewAnalyzer(cfg.Templates),
	}
	if cfg.SweepOffsets != nil {
		e.analyzer.SweepOffsets = cfg.SweepOffsets
	} else if cfg.FullScan {
		e.analyzer.SweepOffsets = []int{0, 1, 2, 3, 4, 5, 6, 7}
	}
	if cfg.VerdictCacheSize >= 0 {
		size := cfg.VerdictCacheSize
		if size == 0 {
			size = 8192
		}
		e.cache = newVerdictCache(size)
	}
	e.shards = make([]*shard, cfg.Shards)
	for i := range e.shards {
		e.shards[i] = newShard(e, i)
	}
	e.registerTelemetry()
	for _, s := range e.shards {
		go s.run()
	}
	e.feeder = e.NewFeeder()
	return e
}

// registerTelemetry installs the engine's metric series. Counters the
// engine already maintains are bridged with scrape-time funcs (zero
// hot-path cost); only the latency histograms are recorded inline.
func (e *Engine) registerTelemetry() {
	if e.cfg.Telemetry == nil {
		e.cfg.Telemetry = telemetry.NewRegistry()
	}
	reg := e.cfg.Telemetry
	e.tel.reg = reg

	cf := func(name, help string, v *atomic.Uint64) {
		reg.CounterFunc(name, help, v.Load)
	}
	cf("semnids_engine_packets_total", "Packets offered to the engine.", &e.m.packets)
	cf("semnids_engine_selected_total", "Packets passing classification into shard analysis.", &e.m.selected)
	cf("semnids_engine_dropped_total", "Packets shed under overload (PolicyShed).", &e.m.dropped)
	cf("semnids_engine_streams_analyzed_total", "Stream views handed to extraction+analysis.", &e.m.streams)
	cf("semnids_engine_frames_total", "Frames extracted and resolved.", &e.m.frames)
	cf("semnids_engine_frame_bytes_total", "Bytes across resolved frames.", &e.m.frameBytes)
	cf("semnids_engine_alerts_total", "Deduplicated detections emitted.", &e.m.alerts)
	cf("semnids_engine_cache_hits_total", "Verdict-cache hits (analysis skipped).", &e.m.cacheHits)
	cf("semnids_engine_cache_misses_total", "Verdict-cache misses (analysis ran).", &e.m.cacheMisses)
	cf(`semnids_engine_flows_evicted_total{reason="idle"}`, "Flows evicted by lifecycle ticks.", &e.m.evictedIdle)
	cf(`semnids_engine_flows_evicted_total{reason="lru"}`, "Flows evicted by lifecycle ticks.", &e.m.evictedLRU)
	if e.cfg.DatagramFlows {
		cf(`semnids_engine_flows_evicted_total{reason="udp-idle"}`, "Datagram flows expired by the datagram idle window.", &e.m.evictedDgram)
	}
	if e.cfg.Lineage {
		cf("semnids_lineage_sketches_total", "Structural-fingerprint computations (detected frames sketched).", &e.m.sketches)
	}
	if e.cache != nil {
		reg.CounterFunc("semnids_engine_cache_rejected_total", "Verdict-cache inserts refused by TinyLFU admission.", e.cache.rejects)
		reg.GaugeFunc("semnids_engine_cache_entries", "Verdict-cache occupancy.", func() int64 { return int64(e.cache.len()) })
	}
	reg.GaugeFunc(`semnids_classify_sources{kind="suspicious"}`, "Sources on the classifier's suspicious list.", func() int64 {
		return int64(e.classifier.SuspiciousCount())
	})
	reg.GaugeFunc(`semnids_classify_sources{kind="dark"}`, "Sources holding dark-space scan state.", func() int64 {
		return int64(e.classifier.DarkCount())
	})
	reg.GaugeFunc("semnids_engine_flows_active", "Tracked flows summed over shards.", func() int64 {
		var n int64
		for _, s := range e.shards {
			n += s.flows.Load()
		}
		return n
	})
	reg.GaugeFunc("semnids_engine_buffered_bytes", "Reassembly bytes buffered, summed over shards.", func() int64 {
		var n int64
		for _, s := range e.shards {
			n += s.bytes.Load()
		}
		return n
	})
	if e.cfg.DatagramFlows {
		reg.GaugeFunc("semnids_engine_udp_flows_active", "Tracked datagram flows summed over shards.", func() int64 {
			var n int64
			for _, s := range e.shards {
				n += s.dgramFlows.Load()
			}
			return n
		})
		reg.GaugeFunc("semnids_engine_udp_buffered_bytes", "Datagram-flow bytes buffered, summed over shards.", func() int64 {
			var n int64
			for _, s := range e.shards {
				n += s.dgramBytes.Load()
			}
			return n
		})
	}
	for _, s := range e.shards {
		s := s
		id := strconv.Itoa(s.id)
		reg.GaugeFunc(`semnids_engine_shard_queue_depth{shard="`+id+`"}`,
			"Packets dispatched to the shard and not yet analyzed.", s.queued.Load)
		reg.GaugeFunc(`semnids_engine_shard_pps{shard="`+id+`"}`,
			"EWMA shard processing rate, packets per trace-second.", func() int64 {
				return int64(math.Float64frombits(s.ewmaPPS.Load()))
			})
	}
	e.tel.ingestNS = reg.Histogram("semnids_engine_ingest_latency_ns",
		"Batch first-packet to batch fully analyzed (ingest-to-verdict).")
	e.tel.dispatchWaitNS = reg.Histogram("semnids_engine_dispatch_wait_ns",
		"Feeder blocked handing a batch to a full shard queue (backpressure).")
	e.tel.frameNS = reg.Histogram("semnids_analyzer_frame_ns",
		"One semantic analysis of one extracted frame (cache misses only).")
}

// Telemetry returns the engine's metric registry (the configured one,
// or the private default).
func (e *Engine) Telemetry() *telemetry.Registry { return e.cfg.Telemetry }

// Classifier exposes the shared classification stage (e.g. to
// pre-register suspicious sources).
func (e *Engine) Classifier() *classify.Classifier { return e.classifier }

// SensorID returns the engine's federation identity (Config.SensorID
// after defaulting).
func (e *Engine) SensorID() string { return e.cfg.SensorID }

// FlowHash maps a directional flow key to a bucket in [0, n) with an
// FNV-1a hash — the engine's shard-ownership function, exported so
// parallel capture loops can partition packets across Feeders with
// the same flow affinity the shards use.
func FlowHash(k netpkt.FlowKey, n int) int {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(b byte) {
		h = (h ^ uint64(b)) * prime
	}
	src, dst := k.SrcIP.As16(), k.DstIP.As16()
	for _, b := range src {
		mix(b)
	}
	for _, b := range dst {
		mix(b)
	}
	mix(byte(k.SrcPort >> 8))
	mix(byte(k.SrcPort))
	mix(byte(k.DstPort >> 8))
	mix(byte(k.DstPort))
	mix(k.Proto)
	return int(h % uint64(n))
}

// shardIndex maps a flow to its owning shard, so every packet of a
// flow is handled by one goroutine in arrival order.
func shardIndex(k netpkt.FlowKey, n int) int {
	if n == 1 {
		return 0
	}
	return FlowHash(k, n)
}

// Process offers one parsed packet to the engine, which takes
// ownership of it (pooled packets are released once fully handled).
// Call from a single goroutine (the capture or replay loop) — or use
// per-goroutine Feeders from NewFeeder for parallel ingestion.
// Packets offered after Stop are ignored.
func (e *Engine) Process(p *netpkt.Packet) {
	e.feedMu.Lock()
	e.feeder.Process(p)
	e.feedMu.Unlock()
}

// Drain dispatches the default feeder's buffered batches, waits for
// every queued packet to be analyzed, then analyzes the unfinished
// tail of every in-progress flow and resets per-flow state. Unlike
// the batch pipeline's Flush, the engine stays live: the next trace
// (or the next packet of live capture) can follow immediately.
// Callers feeding through their own Feeders must Flush each of them
// first. No-op after Stop.
func (e *Engine) Drain() {
	if e.stopped.Load() {
		return
	}
	e.feedMu.Lock()
	e.feeder.Flush()
	e.feedMu.Unlock()
	var wg sync.WaitGroup
	wg.Add(len(e.shards))
	c := &ctl{wg: &wg}
	for _, s := range e.shards {
		s.in <- shardMsg{ctl: c}
	}
	wg.Wait()
}

// Stop dispatches buffered batches, drains in-flight work, analyzes
// remaining flow tails, and terminates the shard goroutines.
// Idempotent and safe to call concurrently with alert and metric
// reads. Feeders created with NewFeeder must not be fed during Stop
// (their Flush afterwards is safe: batches are released, not sent).
func (e *Engine) Stop() {
	e.stopOnce.Do(func() {
		e.feedMu.Lock()
		e.feeder.Flush()
		e.stopped.Store(true)
		e.feedMu.Unlock()
		for _, s := range e.shards {
			close(s.in)
		}
		for _, s := range e.shards {
			<-s.done
		}
	})
}

// Alerts returns all alerts recorded so far (complete for a trace
// after Drain or Stop) in canonical order — timestamp, 5-tuple,
// template, frame source — so the result is the same whatever the
// shard count and scheduling that produced it.
func (e *Engine) Alerts() []core.Alert {
	e.mu.Lock()
	out := slices.Clone(e.alerts)
	e.mu.Unlock()
	slices.SortStableFunc(out, compareAlerts)
	return out
}

// compareAlerts is the canonical alert order. Within one trace a flow
// alerts at most once per template, so the order is total.
func compareAlerts(a, b core.Alert) int {
	return cmp.Or(
		cmp.Compare(a.TimestampUS, b.TimestampUS),
		a.Src.Compare(b.Src),
		cmp.Compare(a.SrcPort, b.SrcPort),
		a.Dst.Compare(b.Dst),
		cmp.Compare(a.DstPort, b.DstPort),
		strings.Compare(a.Detection.Template, b.Detection.Template),
		strings.Compare(a.FrameSource, b.FrameSource),
	)
}

// Snapshot returns current counters and gauges.
func (e *Engine) Snapshot() Metrics {
	m := Metrics{
		Packets:             e.m.packets.Load(),
		Selected:            e.m.selected.Load(),
		Dropped:             e.m.dropped.Load(),
		StreamsAnalyzed:     e.m.streams.Load(),
		Frames:              e.m.frames.Load(),
		FrameBytes:          e.m.frameBytes.Load(),
		Alerts:              e.m.alerts.Load(),
		CacheHits:           e.m.cacheHits.Load(),
		CacheMisses:         e.m.cacheMisses.Load(),
		FlowsEvictedIdle:    e.m.evictedIdle.Load(),
		FlowsEvictedLRU:     e.m.evictedLRU.Load(),
		FlowsEvictedUDPIdle: e.m.evictedDgram.Load(),
		Sketches:            e.m.sketches.Load(),
	}
	m.Shards = make([]ShardMetrics, len(e.shards))
	for i, s := range e.shards {
		m.FlowsActive += int(s.flows.Load())
		m.BufferedBytes += int(s.bytes.Load())
		m.UDPFlowsActive += int(s.dgramFlows.Load())
		m.UDPBufferedBytes += int(s.dgramBytes.Load())
		// queued accounting is exact: incremented before a batch is
		// sent, decremented per packet as each completes, so the load
		// is never negative and needs no clamp.
		m.Shards[i] = ShardMetrics{
			QueueLen:      int(s.queued.Load()),
			QueueCap:      e.cfg.QueueDepth,
			PacketsPerSec: math.Float64frombits(s.ewmaPPS.Load()),
		}
	}
	if e.cache != nil {
		m.CacheEntries = e.cache.len()
		m.CacheRejected = e.cache.rejects()
	}
	return m
}

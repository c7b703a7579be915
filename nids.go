// Package nids is the public API of semnids, a from-scratch Go
// reproduction of the semantics-aware network intrusion detection
// system of Scheirer & Chuah, "Network Intrusion Detection with
// Semantics-Aware Capability" (IPPS 2006).
//
// The system segregates suspicious traffic from the regular flow
// (honeypot decoys and dark-address-space scan detection), extracts
// binary data from suspicious payloads, disassembles it, lifts it to
// an intermediate representation, and matches behavioral templates —
// detecting polymorphic decryption loops, Linux shell-spawning
// payloads (including port-binding shells), and the Code Red II
// exploitation vector without any reliance on static byte signatures.
//
// Quick start:
//
//	detector, err := nids.New(nids.Config{
//		Honeypots: []string{"192.168.1.250"},
//		DarkSpace: []string{"192.168.2.0/24"},
//	})
//	...
//	detector.ProcessFrame(ethernetFrame, timestampMicros)
//	detector.Flush()
//	for _, alert := range detector.Alerts() { ... }
package nids

import (
	"fmt"
	"io"
	"net/http"
	"net/netip"
	"strings"
	"sync/atomic"
	"time"

	"semnids/internal/classify"
	"semnids/internal/core"
	"semnids/internal/engine"
	"semnids/internal/fed"
	"semnids/internal/fed/transport"
	"semnids/internal/incident"
	"semnids/internal/lineage"
	"semnids/internal/netpkt"
	"semnids/internal/sem"
	"semnids/internal/telemetry"
)

// Alert is one detection event attributed to a network flow.
type Alert = core.Alert

// Detection describes the matched template within an alert.
type Detection = sem.Detection

// Metrics reports pipeline counters.
type Metrics = core.Metrics

// Config configures a detector.
type Config struct {
	// Honeypots lists decoy host addresses (e.g. "192.168.1.250").
	// Any source sending traffic to a decoy becomes suspicious.
	Honeypots []string

	// DarkSpace lists un-used CIDR prefixes (e.g. "192.168.2.0/24").
	// A source probing ScanThreshold distinct dark addresses becomes
	// suspicious.
	DarkSpace []string

	// ScanThreshold is the dark-space threshold t (default 3).
	ScanThreshold int

	// DisableClassification analyzes every packet payload (the
	// paper's Section 5.4 false-positive experiment configuration).
	DisableClassification bool

	// FullScan additionally disables binary extraction pruning and
	// widens disassembly offsets — the exhaustive whole-input
	// baseline used for efficiency comparisons.
	FullScan bool

	// Workers sets the analysis worker pool size (default: number of
	// CPUs).
	Workers int

	// XorTemplateOnly restricts the template set to the xor
	// decryption template (the paper's first Table 2 configuration).
	XorTemplateOnly bool

	// TemplatesDSL, when non-empty, replaces the built-in template
	// set with templates parsed from the text format (see
	// internal/sem's DSL documentation). Lets operators describe new
	// behaviors without recompiling.
	TemplatesDSL string

	// OnAlert, when non-nil, is invoked for each alert as it fires
	// (from worker goroutines).
	OnAlert func(Alert)
}

// NIDS is a running detector instance. Feed packets from one
// goroutine; analysis runs concurrently inside.
type NIDS struct {
	inner *core.NIDS
}

// pipeline translates the public configuration into the classifier
// config and template set shared by the batch detector and the
// streaming engine.
func (cfg Config) pipeline() (classify.Config, []*sem.Template, error) {
	var ccfg classify.Config
	for _, h := range cfg.Honeypots {
		a, err := netip.ParseAddr(h)
		if err != nil {
			return ccfg, nil, fmt.Errorf("nids: bad honeypot address %q: %w", h, err)
		}
		ccfg.Honeypots = append(ccfg.Honeypots, a)
	}
	for _, d := range cfg.DarkSpace {
		p, err := netip.ParsePrefix(d)
		if err != nil {
			return ccfg, nil, fmt.Errorf("nids: bad dark-space prefix %q: %w", d, err)
		}
		ccfg.DarkSpace = append(ccfg.DarkSpace, p)
	}
	ccfg.ScanThreshold = cfg.ScanThreshold
	ccfg.Disabled = cfg.DisableClassification

	tpls := sem.BuiltinTemplates()
	if cfg.XorTemplateOnly {
		tpls = sem.XorOnlyTemplates()
	}
	if cfg.TemplatesDSL != "" {
		parsed, err := sem.ParseTemplates(strings.NewReader(cfg.TemplatesDSL))
		if err != nil {
			return ccfg, nil, fmt.Errorf("nids: templates: %w", err)
		}
		tpls = parsed
	}
	return ccfg, tpls, nil
}

// New validates the configuration and starts a detector.
func New(cfg Config) (*NIDS, error) {
	ccfg, tpls, err := cfg.pipeline()
	if err != nil {
		return nil, err
	}
	inner := core.New(core.Config{
		Classify:  ccfg,
		Templates: tpls,
		Workers:   cfg.Workers,
		FullScan:  cfg.FullScan,
		OnAlert:   cfg.OnAlert,
	})
	return &NIDS{inner: inner}, nil
}

// ProcessFrame feeds one raw Ethernet frame with its capture timestamp
// (microseconds). Unparseable frames are ignored and reported as an
// error without stopping the detector.
func (n *NIDS) ProcessFrame(frame []byte, tsUS uint64) error {
	p, err := netpkt.Parse(frame)
	if err != nil {
		return err
	}
	p.TimestampUS = tsUS
	n.inner.ProcessPacket(p)
	return nil
}

// ProcessPcap runs the detector over a classic-format pcap stream and
// flushes.
func (n *NIDS) ProcessPcap(r io.Reader) error {
	return n.inner.ProcessPcap(r)
}

// Flush analyzes unfinished flows and drains the worker pool. The
// detector cannot be fed after Flush.
func (n *NIDS) Flush() { n.inner.Flush() }

// Alerts returns the alerts recorded so far (complete after Flush).
func (n *NIDS) Alerts() []Alert { return n.inner.Alerts() }

// Stats returns pipeline counters.
func (n *NIDS) Stats() Metrics { return n.inner.Snapshot() }

// AnalyzeBytes runs only the semantic stages (disassembler, IR,
// template matcher) over a binary — the host-scan mode used for
// on-disk samples such as the Netsky binaries in the paper's
// efficiency comparison.
func AnalyzeBytes(data []byte) []Detection {
	return core.AnalyzeBytes(data, nil, nil)
}

// AnalyzePayload runs extraction plus the semantic stages over one
// application-layer payload, returning the union of detections.
func AnalyzePayload(payload []byte) []Detection {
	return core.AnalyzePayload(payload)
}

// EngineMetrics reports streaming-engine counters and gauges.
type EngineMetrics = engine.Metrics

// EngineConfig configures a streaming Engine: the detector settings
// plus the sharding, lifecycle and overload knobs. Config.Workers is
// ignored — the shards are the workers.
type EngineConfig struct {
	Config

	// Shards is the number of ingest shards, each owning its slice of
	// the flow space (default: number of CPUs).
	Shards int

	// QueueDepth bounds each shard's packet queue (default 1024).
	QueueDepth int

	// ShedOnOverload drops packets (counted in EngineMetrics.Dropped)
	// when a shard queue is full instead of blocking ingestion.
	ShedOnOverload bool

	// FlowIdleTimeout evicts flows idle for this long in trace time,
	// analyzing their unfinished tail first (default 60s).
	FlowIdleTimeout time.Duration

	// DatagramFlows buffers UDP payloads per 5-tuple conversation
	// (request and reply share one flow) inside an idle window, so
	// multi-datagram payloads — CoAP block-wise transfers in
	// particular — are reassembled and analyzed as one unit with their
	// datagram boundaries preserved. Off (the default), every
	// payload-bearing datagram is analyzed on its own and all reports
	// are byte-identical to previous builds.
	DatagramFlows bool

	// DatagramIdle is the idle window closing a datagram conversation
	// (its buffered tail is analyzed on eviction). Defaults to
	// FlowIdleTimeout; values above it are ignored — the flow-wide
	// idle sweep fires first.
	DatagramIdle time.Duration

	// FlowByteBudget caps reassembly buffering per shard; LRU flows
	// beyond it are tail-analyzed and evicted (default 64 MiB).
	FlowByteBudget int

	// VerdictCacheSize is the payload-fingerprint verdict cache
	// capacity in entries (0 = default 8192, negative disables).
	VerdictCacheSize int

	// Correlate attaches the streaming incident correlator: shard
	// events feed per-source kill-chain state machines
	// (RECON → EXPLOIT → PROPAGATION), readable live via Incidents
	// and SubscribeIncidents.
	Correlate bool

	// Lineage enables payload lineage tracing (requires Correlate):
	// detected frames are structurally fingerprinted (matched-template
	// identity, decode-chain statement multiset, emulator-decoded
	// tail), the correlator accepts structural matches for PROPAGATION
	// — so a polymorphic worm that re-encodes itself at every hop
	// still closes the kill chain — and a lineage store accumulates
	// per-payload observations from which Ancestry reconstructs
	// infection trees. Lineage observations federate in evidence
	// exports ("lin" wire records) with the same commutative,
	// idempotent merge as all other evidence. Off by default: with
	// Lineage false, events carry no sketch and every detection,
	// report and export is byte-identical to previous builds.
	Lineage bool

	// IncidentWindow is the sliding trace-time window for the
	// correlator's destination fan-out (default 30s).
	IncidentWindow time.Duration

	// IncidentFanout is the distinct-destination count inside the
	// window that establishes RECON (default 3).
	IncidentFanout int

	// MaxIncidentSources caps the correlator's tracked sources;
	// least-recently-active sources beyond it are finalized and
	// evicted (default 65536).
	MaxIncidentSources int

	// OnIncident, when non-nil, is invoked from the correlator
	// goroutine each time a source's kill-chain stage rises. It runs
	// with correlator state locked: it must not call back into the
	// engine's incident surface (Incidents, IncidentStats,
	// SubscribeIncidents) or it will deadlock — use SubscribeIncidents
	// for a decoupled feed instead.
	OnIncident func(Incident)

	// SensorID names this engine in exported incident evidence
	// (cross-sensor federation provenance; default "sensor"). Give
	// every sensor in a federation a distinct ID.
	SensorID string

	// IncidentExportDir, when non-empty (and Correlate is set),
	// attaches a durable evidence sink: the correlator's evidence is
	// checkpointed to size/age-rotated segment files in this directory
	// — non-blocking from the notify path, plus a periodic safety
	// net — and on startup the newest complete segment is reloaded, so
	// a restarted sensor resumes with its attacker state intact.
	IncidentExportDir string

	// IncidentExportRotateBytes / IncidentExportRotateEvery /
	// IncidentCheckpointEvery tune the sink's segment rotation and
	// periodic checkpoint cadence (defaults 1 MiB / 1m / 10s).
	IncidentExportRotateBytes int64
	IncidentExportRotateEvery time.Duration
	IncidentCheckpointEvery   time.Duration

	// IncidentKeepSegments bounds the sink's retained segments — which
	// is also the push spool bound: with PushURL set, segments pruned
	// before they were acked are dropped evidence (counted in
	// SinkStats().Push.Dropped). 0 = default 4.
	IncidentKeepSegments int

	// PushURL, when non-empty, streams committed evidence segments to
	// a federation aggregator (cmd/fedagg, or any transport.Aggregator)
	// with retry/backoff and spool-and-forward degradation: the sink's
	// segment directory is the spool, so an unreachable aggregator
	// costs lag, never ingest throughput. Requires Correlate and
	// IncidentExportDir.
	PushURL string

	// PushURLs lists upstream aggregators in failover order: pushes go
	// to the first, and on sustained failure the pusher fails over down
	// the list, probing earlier entries for promotion back. Setting
	// both PushURL and PushURLs is an error; a one-element PushURLs is
	// equivalent to PushURL.
	PushURLs []string

	// PushCompression selects the push body encoding: "auto" (default;
	// compress once the upstream advertises support), "on" (always
	// compress), or "off" (identity only).
	PushCompression string

	// PushInterval is the pusher's idle spool re-scan cadence (default
	// 2s); PushTimeout bounds one upload end to end (default 10s);
	// PushBackoffMin / PushBackoffMax bound the jittered exponential
	// retry backoff (defaults 250ms / 30s).
	PushInterval   time.Duration
	PushTimeout    time.Duration
	PushBackoffMin time.Duration
	PushBackoffMax time.Duration

	// PushClient overrides the pusher's HTTP client. Replacing its
	// Transport is the fault-injection hook (see fed/transport/faultnet).
	PushClient *http.Client

	// PushSeed seeds the pusher's backoff jitter (default 1); fixed
	// seeds make fault-injection runs deterministic.
	PushSeed int64

	// Telemetry, when non-nil, is the metrics registry every layer of
	// this engine registers into (shards, analyzer, correlator, sink,
	// push transport). Nil creates a private registry — TelemetryStats
	// and TelemetryHandler work either way; pass one explicitly to
	// scrape several engines (or an engine plus an aggregator) from a
	// single exposition endpoint.
	Telemetry *TelemetryRegistry
}

// TelemetryRegistry is the process-wide metrics registry: atomic
// counters and gauges plus fixed-size log-bucketed latency histograms,
// allocation-free on the record path. See internal/telemetry.
type TelemetryRegistry = telemetry.Registry

// TelemetryHealth tracks named readiness checks plus a drain flag,
// rendered by the /healthz endpoint of TelemetryHandler.
type TelemetryHealth = telemetry.Health

// Incident is one source's correlated kill-chain activity.
type Incident = incident.Incident

// IncidentStage is a kill-chain position (RECON, EXPLOIT,
// PROPAGATION).
type IncidentStage = incident.Stage

// Kill-chain stages, re-exported for switch statements on
// Incident.Stage.
const (
	StageNone        = incident.StageNone
	StageRecon       = incident.StageRecon
	StageExploit     = incident.StageExploit
	StagePropagation = incident.StagePropagation
)

// IncidentMetrics reports correlator counters and gauges.
type IncidentMetrics = incident.Metrics

// EvidenceExport is a sensor's (or a merge's) incident evidence
// snapshot — the unit of cross-sensor federation.
type EvidenceExport = incident.EvidenceExport

// SinkMetrics reports durable evidence-sink counters plus — when a
// PushURL is configured — the push transport's health: segments
// pushed/acked/retried/spooled, drops where prune outran push, and
// the current backoff state.
type SinkMetrics struct {
	fed.SinkMetrics

	// Push is the push-transport snapshot (zero value without PushURL).
	Push PushMetrics
}

// PushMetrics reports federation push-transport counters and health
// gauges. See transport.PushMetrics.
type PushMetrics = transport.PushMetrics

// LineageObservation is one distinct hostile payload's lineage record:
// exact wire identity, structural family identity (decoded tail), and
// first witnessed delivery.
type LineageObservation = lineage.Observation

// AncestryTree is one reconstructed infection tree within a payload
// family.
type AncestryTree = lineage.Tree

// AncestryNode is one host in an ancestry tree.
type AncestryNode = lineage.TreeNode

// TraceAncestry reconstructs ancestry trees from an evidence export's
// lineage observations — a pure function, so a merged export renders
// the same forest on every aggregator. Empty without lineage records.
func TraceAncestry(ex *EvidenceExport) []AncestryTree { return lineage.Trace(ex.Lineage) }

// MergeEvidence federates two evidence exports: commutative,
// idempotent, provenance-preserving. See fed.Merge.
func MergeEvidence(a, b *EvidenceExport) (*EvidenceExport, error) { return fed.Merge(a, b) }

// ReadEvidence decodes an evidence export from the versioned wire
// format (the newest committed checkpoint, for sink segments).
func ReadEvidence(r io.Reader) (*EvidenceExport, error) { return fed.ReadExport(r) }

// WriteEvidence encodes an evidence export in the versioned wire
// format.
func WriteEvidence(w io.Writer, ex *EvidenceExport) error { return fed.WriteExport(w, ex) }

// DeriveIncidents renders an evidence export's incident set exactly
// as a live correlator holding the same evidence would. Errors on an
// export with unusable correlation parameters (hand-built; decoded
// exports are validated at read time).
func DeriveIncidents(ex *EvidenceExport) ([]Incident, error) { return incident.DeriveIncidents(ex) }

// Engine is a continuously-running streaming detector: sharded
// ingestion, bounded flow state with eviction, and verdict caching.
// Unlike NIDS, it survives beyond a single trace — Drain flushes
// in-progress flows and keeps it live; only Stop terminates it. Feed
// from one goroutine; ProcessFrame and Flush are drop-in compatible
// with the batch NIDS surface.
type Engine struct {
	inner *engine.Engine
	corr  *incident.Correlator

	// lin accumulates structural-payload observations when Lineage is
	// enabled (nil otherwise); linDepth/linLinks are its tracer
	// telemetry, recorded each time an ancestry forest is derived.
	lin      *lineage.Store
	linDepth *telemetry.Histogram
	linLinks atomic.Uint64

	// sink persists correlator evidence when IncidentExportDir is
	// configured. Set once late in NewEngine and read from the
	// correlator goroutine's notify hook, hence the atomic: the
	// correlator must exist first (the sink snapshots it and recovery
	// imports into it).
	sink   atomic.Pointer[fed.Sink]
	sensor string

	// push streams committed sink segments to the aggregator when
	// PushURL is configured; nil otherwise.
	push *transport.Pusher

	// pool recycles packet structs and payload buffers across every
	// trace fed through Run/Replay — one pool for the engine's
	// lifetime, so back-to-back traces reuse warm buffers.
	pool *netpkt.PacketPool

	// tel is the registry shared by every layer of this engine;
	// health backs the /healthz readiness checks ("engine" flips
	// not-ready on Stop, "spool" records the recovery outcome).
	tel    *telemetry.Registry
	health *telemetry.Health
}

// NewEngine validates the configuration and starts a streaming
// engine (and, with Correlate set, its incident correlator).
func NewEngine(cfg EngineConfig) (*Engine, error) {
	ccfg, tpls, err := cfg.Config.pipeline()
	if err != nil {
		return nil, err
	}
	tel := cfg.Telemetry
	if tel == nil {
		tel = telemetry.NewRegistry()
	}
	ecfg := engine.Config{
		Classify:          ccfg,
		Templates:         tpls,
		Shards:            cfg.Shards,
		QueueDepth:        cfg.QueueDepth,
		FlowIdleTimeoutUS: uint64(cfg.FlowIdleTimeout / time.Microsecond),
		DatagramFlows:     cfg.DatagramFlows,
		DatagramIdleUS:    uint64(cfg.DatagramIdle / time.Microsecond),
		ShardByteBudget:   cfg.FlowByteBudget,
		VerdictCacheSize:  cfg.VerdictCacheSize,
		FullScan:          cfg.FullScan,
		OnAlert:           cfg.OnAlert,
		Telemetry:         tel,
	}
	if cfg.ShedOnOverload {
		ecfg.Overload = engine.PolicyShed
	}
	e := &Engine{tel: tel, health: telemetry.NewHealth()}
	e.health.Set("engine", true, "running")
	if cfg.Correlate {
		// The notify hook reaches the sink through an atomic holder:
		// the correlator must exist first (the sink snapshots it and
		// recovery imports into it), so the first notifications may
		// precede the sink — they are covered by the sink's periodic
		// checkpoint and final Close snapshot.
		userCb := cfg.OnIncident
		e.corr = incident.New(incident.Config{
			WindowUS:        uint64(cfg.IncidentWindow / time.Microsecond),
			FanoutThreshold: cfg.IncidentFanout,
			MaxSources:      cfg.MaxIncidentSources,
			Telemetry:       tel,
			OnIncident: func(inc Incident) {
				if userCb != nil {
					userCb(inc)
				}
				if s := e.sink.Load(); s != nil {
					s.Notify()
				}
			},
		})
		ecfg.OnEvent = e.corr.Publish
	}
	if cfg.SensorID != "" {
		ecfg.SensorID = cfg.SensorID
	}
	if cfg.Lineage {
		if !cfg.Correlate {
			e.shutdownPartial()
			return nil, fmt.Errorf("nids: Lineage requires Correlate (lineage observations ride the correlator's event feed and evidence exports)")
		}
		sensor := cfg.SensorID
		if sensor == "" {
			sensor = "sensor"
		}
		ecfg.Lineage = true
		e.lin = lineage.NewStore(lineage.StoreConfig{Sensor: sensor, Telemetry: tel})
		e.linDepth = tel.Histogram("semnids_lineage_ancestry_depth",
			"Maximum depth of each reconstructed ancestry tree (root = 0).")
		tel.CounterFunc("semnids_lineage_links_total",
			"Parent→child infection links derived across all ancestry computations.", e.linLinks.Load)
		corrPublish := ecfg.OnEvent
		ecfg.OnEvent = func(ev core.Event) {
			e.lin.Observe(ev)
			corrPublish(ev)
		}
	}
	if cfg.PushURL != "" && len(cfg.PushURLs) > 0 {
		e.shutdownPartial()
		return nil, fmt.Errorf("nids: set PushURL or PushURLs, not both")
	}
	pushURLs := cfg.PushURLs
	if cfg.PushURL != "" {
		pushURLs = []string{cfg.PushURL}
	}
	pushComp, err := transport.ParseCompression(cfg.PushCompression)
	if err != nil {
		e.shutdownPartial()
		return nil, fmt.Errorf("nids: %w", err)
	}
	if len(pushURLs) > 0 && (!cfg.Correlate || cfg.IncidentExportDir == "") {
		e.shutdownPartial()
		return nil, fmt.Errorf("nids: PushURL requires Correlate and IncidentExportDir (the sink's segment directory is the push spool)")
	}
	e.inner = engine.New(ecfg)
	e.sensor = e.inner.SensorID()
	if !cfg.Correlate || cfg.IncidentExportDir == "" {
		e.health.Set("spool", true, "no export dir")
	}
	if cfg.Correlate && cfg.IncidentExportDir != "" {
		e.health.Set("spool", false, "recovering")
		if rec, err := fed.Recover(cfg.IncidentExportDir); err != nil {
			e.shutdownPartial()
			return nil, fmt.Errorf("nids: incident recovery: %w", err)
		} else if rec != nil {
			if err := e.importEvidence(rec); err != nil {
				// Most likely correlation-parameter skew: the durable
				// evidence was gathered under different window/caps.
				// Refuse to start rather than silently discard it — the
				// operator decides whether to restore the previous
				// parameters or retire the old evidence directory.
				e.shutdownPartial()
				return nil, fmt.Errorf("nids: incident recovery from %s: %w (restore the previous correlation parameters, or move the directory aside to start fresh)",
					cfg.IncidentExportDir, err)
			}
		}
		ckpt := new(evidenceBuffer) // the sink goroutine's own
		exportSince := func(gen uint64) (*EvidenceExport, []netip.Addr, uint64) {
			return e.exportEvidenceTo(ckpt, gen)
		}
		sink, err := fed.OpenSink(fed.SinkConfig{
			Dir:             cfg.IncidentExportDir,
			RotateBytes:     cfg.IncidentExportRotateBytes,
			RotateEvery:     cfg.IncidentExportRotateEvery,
			CheckpointEvery: cfg.IncidentCheckpointEvery,
			KeepSegments:    cfg.IncidentKeepSegments,
			ExportSince:     exportSince,
			Telemetry:       tel,
		})
		if err != nil {
			e.shutdownPartial()
			return nil, fmt.Errorf("nids: incident sink: %w", err)
		}
		e.sink.Store(sink)
		e.health.Set("spool", true, "recovered")
		if len(pushURLs) > 0 {
			push, err := transport.NewPusher(transport.PusherConfig{
				Dir:            cfg.IncidentExportDir,
				URLs:           pushURLs,
				Client:         cfg.PushClient,
				RequestTimeout: cfg.PushTimeout,
				ScanInterval:   cfg.PushInterval,
				BackoffMin:     cfg.PushBackoffMin,
				BackoffMax:     cfg.PushBackoffMax,
				Seed:           cfg.PushSeed,
				Compression:    pushComp,
				Telemetry:      tel,
			})
			if err != nil {
				e.shutdownPartial()
				return nil, fmt.Errorf("nids: push transport: %w", err)
			}
			e.push = push
		}
	}
	e.pool = netpkt.NewPacketPool()
	return e, nil
}

// shutdownPartial tears down a half-built engine on a NewEngine error
// path so its shard and correlator goroutines do not leak.
func (e *Engine) shutdownPartial() {
	if e.inner != nil {
		e.inner.Stop()
	}
	if e.corr != nil {
		e.corr.Stop()
	}
	if s := e.sink.Load(); s != nil {
		s.Close()
	}
}

// ProcessFrame feeds one raw Ethernet frame with its capture
// timestamp (microseconds). Unparseable frames are reported as an
// error without stopping the engine.
func (e *Engine) ProcessFrame(frame []byte, tsUS uint64) error {
	p, err := netpkt.Parse(frame)
	if err != nil {
		return err
	}
	// Parse subslices the caller's buffer; the engine holds packets
	// asynchronously, so detach the payload.
	if len(p.Payload) > 0 {
		p.Payload = append([]byte(nil), p.Payload...)
	}
	p.TimestampUS = tsUS
	e.inner.Process(p)
	return nil
}

// Run streams a capture (classic pcap or pcapng) through the engine
// as fast as it reads, then drains. The engine remains live for the
// next capture or live traffic.
func (e *Engine) Run(r io.Reader) error {
	return e.feed(r, 0)
}

// Replay streams a capture through the engine paced by its capture
// timestamps: speed 1 replays in real time, 2 at double speed, and so
// on; speed <= 0 disables pacing (same as Run). Drains at EOF, so the
// engine's lifecycle ticks and alerts fire as they would on live
// traffic.
func (e *Engine) Replay(r io.Reader, speed float64) error {
	return e.feed(r, speed)
}

func (e *Engine) feed(r io.Reader, speed float64) error {
	tr, err := netpkt.NewTraceReader(r)
	if err != nil {
		return err
	}
	// Packets and payload buffers cycle through the engine's pool: the
	// shard that finishes with a packet releases it back for the
	// reader to reuse, so the capture loop allocates nothing per
	// packet in steady state — across traces, not just within one.
	tr.SetPool(e.pool)
	var (
		started bool
		firstTS uint64
		start   time.Time
	)
	for {
		p, err := tr.NextPacket(nil)
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if speed > 0 {
			if !started {
				started = true
				firstTS = p.TimestampUS
				start = time.Now()
			} else if p.TimestampUS > firstTS {
				due := start.Add(time.Duration(float64(p.TimestampUS-firstTS)/speed) * time.Microsecond)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
			}
		}
		e.inner.Process(p)
	}
	e.Drain()
	return nil
}

// Drain completes all queued analysis and the unfinished tail of
// every tracked flow, then resets flow state; with a correlator
// attached, all events published by that work are applied too. The
// engine stays live.
func (e *Engine) Drain() {
	e.inner.Drain()
	if e.corr != nil {
		e.corr.Flush()
	}
	if s := e.sink.Load(); s != nil {
		// Nudge a checkpoint now that the trace's full evidence is
		// applied — the natural durability point between traces.
		s.Notify()
	}
	if e.push != nil {
		// And a spool scan right behind it, so the fresh checkpoint
		// heads for the aggregator without waiting out the interval.
		e.push.Notify()
	}
}

// Flush is Drain under the batch detector's name, so the engine is a
// drop-in replacement for NIDS — with the difference that the engine
// can still be fed afterwards.
func (e *Engine) Flush() { e.Drain() }

// Stop drains and terminates the engine, any attached correlator,
// and the durable sink (which writes a final evidence checkpoint).
// Idempotent and safe alongside concurrent Alerts/Stats/Incidents
// reads.
func (e *Engine) Stop() {
	e.health.Set("engine", false, "stopped")
	e.inner.Stop()
	if e.corr != nil {
		e.corr.Stop()
	}
	if s := e.sink.Load(); s != nil {
		s.Close()
	}
	if e.push != nil {
		// After the sink's final checkpoint, so the pusher's closing
		// sweep offers the complete evidence to the aggregator.
		e.push.Close()
	}
}

// Alerts returns the alerts recorded so far (complete for a trace
// after Drain or Stop), in the canonical order — timestamp, 5-tuple,
// template, frame source — that makes every report byte-identical
// across shard counts.
func (e *Engine) Alerts() []Alert { return e.inner.Alerts() }

// Stats returns engine counters and gauges.
func (e *Engine) Stats() EngineMetrics { return e.inner.Snapshot() }

// Telemetry returns the metrics registry every layer of this engine
// records into (the one passed in EngineConfig.Telemetry, or the
// private default).
func (e *Engine) Telemetry() *TelemetryRegistry { return e.tel }

// Health returns the readiness tracker behind TelemetryHandler's
// /healthz: the "engine" check flips not-ready on Stop, "spool"
// records the durable-sink recovery outcome. Callers add their own
// checks or flip draining during shutdown.
func (e *Engine) Health() *TelemetryHealth { return e.health }

// TelemetryHandler returns the engine's observability surface —
// /metrics (Prometheus text), /statusz (JSON snapshot), /healthz,
// /debug/pprof — ready to mount on an http.Server (semnids -listen
// serves exactly this).
func (e *Engine) TelemetryHandler() http.Handler {
	telemetry.RegisterProcessMetrics(e.tel)
	return telemetry.NewMux(e.tel, e.health, e.statusInfo)
}

// StatusSnapshot captures every registered series plus identifying
// info as one JSON-ready value — the /statusz document, also usable
// programmatically.
func (e *Engine) StatusSnapshot() telemetry.StatusSnapshot {
	return e.tel.StatusSnapshot(e.statusInfo())
}

// WriteStatus writes the /statusz JSON document (one object, no
// trailing newline beyond the encoder's) — the encoder behind
// semnids -stats-interval.
func (e *Engine) WriteStatus(w io.Writer) error {
	return telemetry.WriteStatusJSON(w, e.tel, e.statusInfo())
}

func (e *Engine) statusInfo() map[string]any {
	return map[string]any{
		"sensor": e.sensor,
		"synced": e.PushSynced(),
	}
}

// Incidents returns the correlator's current incident set, ordered by
// stage, severity, then source — deterministic for a given trace
// whatever the shard count. Nil without Correlate.
func (e *Engine) Incidents() []Incident {
	if e.corr == nil {
		return nil
	}
	return e.corr.Incidents()
}

// SubscribeIncidents registers a live incident feed delivering a
// derived snapshot at every kill-chain stage transition. Slow
// subscribers shed (counted in IncidentStats().SubDropped) rather
// than stalling correlation; cancel unregisters and closes the
// channel. Returns nil without Correlate.
func (e *Engine) SubscribeIncidents(buf int) (<-chan Incident, func()) {
	if e.corr == nil {
		return nil, func() {}
	}
	return e.corr.Subscribe(buf)
}

// Ancestry reconstructs the current infection forest from this
// engine's lineage observations (local plus imported): one tree per
// (payload family, patient zero), parent→child edges scored by
// structural corroboration. Deterministic for a given trace whatever
// the shard count or federation order. Nil without Lineage. Each call
// records tracer telemetry (links derived, ancestry-depth histogram).
func (e *Engine) Ancestry() []AncestryTree {
	if e.lin == nil {
		return nil
	}
	trees := lineage.Trace(e.lin.Export())
	var links uint64
	for _, t := range trees {
		e.linDepth.Observe(int64(t.MaxDepth))
		links += uint64(t.Edges())
	}
	e.linLinks.Add(links)
	return trees
}

// IncidentStats returns correlator counters and gauges (zero value
// without Correlate).
func (e *Engine) IncidentStats() IncidentMetrics {
	if e.corr == nil {
		return IncidentMetrics{}
	}
	return e.corr.Metrics()
}

// exportEvidence snapshots the full durable state of this sensor into
// fresh storage: the correlator's evidence plus the classifier's
// per-source state (sub-threshold dark-space scan sets, suspicious
// marks), so a restart restores selection behavior along with attacker
// evidence.
func (e *Engine) exportEvidence() *EvidenceExport {
	ex, _, _ := e.exportEvidenceTo(new(evidenceBuffer), 0)
	return ex
}

// evidenceBuffer is the storage one evidence snapshot renders into,
// one buffer per plane.
type evidenceBuffer struct {
	corr incident.ExportBuffer
	cls  classify.StateBuffer
	lin  lineage.ExportBuffer
}

// exportEvidenceTo is exportEvidence restricted to the correlator
// sources changed since generation gen (see
// incident.Correlator.ExportSinceTo), rendered into b: the sink's
// incremental checkpoint snapshot, which reuses one buffer. The
// classifier and lineage planes are small and always exported whole.
func (e *Engine) exportEvidenceTo(b *evidenceBuffer, gen uint64) (*EvidenceExport, []netip.Addr, uint64) {
	ex, live, next := e.corr.ExportSinceTo(&b.corr, e.sensor, gen)
	ex.Classifier = e.inner.Classifier().ExportStateTo(&b.cls)
	if e.lin != nil {
		ex.Lineage = e.lin.ExportTo(&b.lin)
	}
	return ex, live, next
}

// ExportIncidents writes the correlator's current evidence state —
// every tracked source's min-K timestamp sets, fingerprints and
// derived stage, stamped with this engine's sensor ID — plus the
// classifier's per-source scan state, in the versioned wire format
// cmd/fedmerge and ImportIncidents consume. Errors without Correlate.
func (e *Engine) ExportIncidents(w io.Writer) error {
	if e.corr == nil {
		return fmt.Errorf("nids: ExportIncidents requires Correlate")
	}
	return fed.WriteExport(w, e.exportEvidence())
}

// ImportIncidents folds another sensor's evidence export (or a prior
// run's) into the live correlator: evidence sets union under the
// configured caps and cross-sensor propagation links are re-derived.
// The export must carry the same correlation parameters this engine
// runs with. Errors without Correlate.
func (e *Engine) ImportIncidents(r io.Reader) error {
	if e.corr == nil {
		return fmt.Errorf("nids: ImportIncidents requires Correlate")
	}
	ex, err := fed.ReadExport(r)
	if err != nil {
		return err
	}
	return e.importEvidence(ex)
}

// importEvidence folds an export into the correlator and re-marks
// confirmed attackers in the classifier — the same state a live alert
// establishes (follow-on traffic from a confirmed attacker is always
// analyzed), so a restarted or seeded sensor keeps watching the
// sources its evidence has already convicted.
func (e *Engine) importEvidence(ex *EvidenceExport) error {
	if err := e.corr.Import(ex); err != nil {
		return err
	}
	if e.lin != nil && len(ex.Lineage) > 0 {
		e.lin.Import(ex.Lineage)
	}
	cl := e.inner.Classifier()
	for i := range ex.Sources {
		if rec := &ex.Sources[i]; rec.ExploitAtUS > 0 {
			cl.MarkSuspicious(rec.Src, rec.LastSeenUS)
		}
	}
	cl.ImportState(ex.Classifier)
	return nil
}

// SinkStats returns durable-sink counters (zero value when no
// IncidentExportDir is configured) plus push-transport health when a
// PushURL is configured.
func (e *Engine) SinkStats() SinkMetrics {
	var m SinkMetrics
	if s := e.sink.Load(); s != nil {
		m.SinkMetrics = s.Metrics()
	}
	if e.push != nil {
		m.Push = e.push.Metrics()
	}
	return m
}

// PushSynced reports whether every committed evidence byte on disk has
// been acknowledged by the aggregator (false with no PushURL, and
// until the pusher's first completed scan).
func (e *Engine) PushSynced() bool {
	return e.push != nil && e.push.Synced()
}

// CheckpointIncidents writes one evidence checkpoint synchronously:
// it returns after the snapshot is framed, flushed and fsynced. Drain
// only *requests* a checkpoint (the sink never blocks the hot path),
// so a caller that needs the durability point before acting on it —
// waiting out a push with PushSynced, copying the segment directory —
// calls this first. No-op without IncidentExportDir.
func (e *Engine) CheckpointIncidents() error {
	s := e.sink.Load()
	if s == nil {
		return nil
	}
	if err := s.Checkpoint(); err != nil {
		return err
	}
	if e.push != nil {
		e.push.Notify()
	}
	return nil
}

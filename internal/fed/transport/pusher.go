package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"semnids/internal/fed"
	"semnids/internal/fed/compress"
	"semnids/internal/telemetry"
)

// Push-protocol headers. Hops and Via are the tree topology guards: a
// pusher stamps how deep its evidence has already traveled and through
// which aggregator nodes, and an aggregator 409s pushes that revisit
// it or exceed the hop budget — a misconfigured cycle fails loudly at
// the first revisit instead of folding evidence in circles.
const (
	// HeaderSegment carries the spool segment name (diagnostics only).
	HeaderSegment = "X-Fed-Segment"
	// HeaderHops is the number of federation tiers this push's
	// evidence has traversed (1 = straight from a sensor).
	HeaderHops = "X-Fed-Hops"
	// HeaderVia is the comma-separated set of aggregator node IDs the
	// evidence has already been folded by.
	HeaderVia = "X-Fed-Via"
	// HeaderAcceptEncoding advertises the segment content encodings an
	// aggregator accepts; pushers in auto mode learn compression
	// support from it (absent on pre-compression aggregators).
	HeaderAcceptEncoding = "X-Fed-Accept-Encoding"
	// HeaderNode is the responding aggregator's node ID.
	HeaderNode = "X-Fed-Node"
)

// Compression selects the push body encoding.
type Compression int

const (
	// CompressionAuto compresses once the upstream has advertised
	// support (via HeaderAcceptEncoding on any response), so new
	// sensors interoperate with old aggregators: the first push goes
	// identity, and the ack teaches the pusher what the peer speaks.
	CompressionAuto Compression = iota

	// CompressionOn always compresses (with a one-shot identity
	// fallback if the upstream rejects a compressed body).
	CompressionOn

	// CompressionOff never compresses.
	CompressionOff
)

// ParseCompression maps the CLI/config spelling to a Compression mode.
func ParseCompression(s string) (Compression, error) {
	switch s {
	case "", "auto":
		return CompressionAuto, nil
	case "on", "always":
		return CompressionOn, nil
	case "off", "never":
		return CompressionOff, nil
	}
	return CompressionAuto, fmt.Errorf("transport: unknown compression mode %q (want auto, on or off)", s)
}

// PusherConfig parameterizes a segment pusher.
type PusherConfig struct {
	// Dir is the fed.Sink segment directory to watch (required). The
	// directory is also the spool: an unreachable aggregator costs
	// nothing but lag, bounded by the sink's prune policy.
	Dir string

	// URL is the aggregator push endpoint, e.g.
	// "http://agg:9444/push". Shorthand for a one-element URLs.
	URL string

	// URLs is the ordered upstream list: the pusher delivers to the
	// first reachable upstream, fails over down the list when the
	// active one stops acking, and probes earlier (higher-priority)
	// upstreams to promote back. One of URL/URLs is required; URLs
	// wins when both are set.
	URLs []string

	// ProbeInterval is how often a pusher that has failed away from
	// the primary probes higher-priority upstreams for promotion
	// (default 5s).
	ProbeInterval time.Duration

	// Compression selects the push body encoding (default
	// CompressionAuto: learn per upstream from response headers).
	Compression Compression

	// Route supplies the topology stamp for each push: how many tiers
	// the spooled evidence has already traversed and through which
	// aggregator node IDs. Nil means a leaf sensor (hops 1, no via).
	Route func() (hops int, via []string)

	// Client issues the push requests (default: a plain http.Client).
	// Per-request timeouts come from RequestTimeout, not the client;
	// replacing the client's Transport is the fault-injection hook.
	Client *http.Client

	// RequestTimeout bounds one upload end to end (default 10s).
	RequestTimeout time.Duration

	// ScanInterval is the idle re-scan cadence (default 2s); Notify
	// nudges a scan sooner.
	ScanInterval time.Duration

	// BackoffMin / BackoffMax bound the exponential backoff applied
	// after a failed push (defaults 250ms / 30s). The actual delay is
	// jittered to 50–100% of the current backoff so a fleet of
	// sensors does not retry in lockstep.
	BackoffMin, BackoffMax time.Duration

	// Seed seeds the backoff jitter (default 1). Fixed seeds make
	// fault-injection runs deterministic.
	Seed int64

	// Telemetry receives the pusher's metric series: counters and
	// health gauges bridged at scrape time, push round-trip and
	// written→acked latency histograms, and the spool-age gauge. Nil
	// creates a private registry.
	Telemetry *telemetry.Registry
}

func (cfg PusherConfig) withDefaults() PusherConfig {
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 10 * time.Second
	}
	if cfg.ScanInterval <= 0 {
		cfg.ScanInterval = 2 * time.Second
	}
	if cfg.BackoffMin <= 0 {
		cfg.BackoffMin = 250 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 30 * time.Second
	}
	if cfg.BackoffMax < cfg.BackoffMin {
		cfg.BackoffMax = cfg.BackoffMin
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 5 * time.Second
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if len(cfg.URLs) == 0 && cfg.URL != "" {
		cfg.URLs = []string{cfg.URL}
	}
	return cfg
}

// PushMetrics is a snapshot of pusher counters and health gauges — a
// wedged pipeline must be visible, not silent.
type PushMetrics struct {
	// Scans counts completed spool scans; Pushed counts upload
	// attempts; Acked counts aggregator acknowledgments (a segment
	// that grows is re-pushed and re-acked); Retried counts failed
	// attempts that stay spooled for retry; Rejected counts uploads
	// the aggregator permanently refused (4xx — retrying cannot
	// help, the segment is skipped and the counter is the alarm).
	Scans, Pushed, Acked, Retried, Rejected uint64

	// Dropped counts committed segments pruned from the spool before
	// their evidence was ever acked — prune outran push. Evidence is
	// usually still covered by later full-snapshot checkpoints, but a
	// climbing count means the retention budget is too small for the
	// current outage.
	Dropped uint64

	// Spooled is the number of on-disk segments holding bytes not yet
	// acked (as of the latest scan).
	Spooled int

	// Backoff is the current retry backoff (0 when the last push
	// succeeded); LastError is the most recent failure ("" when
	// healthy).
	Backoff   time.Duration
	LastError string

	// Failovers counts active-upstream switches (demotions after the
	// active upstream stopped acking plus probe-driven promotions).
	Failovers uint64

	// Compressed counts pushes delivered with a compressed body;
	// RawBytes/WireBytes total the body bytes of acked pushes before
	// and after content encoding — WireBytes/RawBytes is the live
	// bytes-on-wire ratio.
	Compressed          uint64
	RawBytes, WireBytes uint64

	// ActiveUpstream is the URL currently receiving pushes; Upstreams
	// snapshots every configured upstream in priority order.
	ActiveUpstream string
	Upstreams      []UpstreamStatus
}

// UpstreamStatus is one upstream's slice of the push counters.
type UpstreamStatus struct {
	URL                               string
	Pushed, Acked, Retried, Failovers uint64
	// Compress is the negotiated body encoding: true once the
	// upstream advertised (or was configured for) compressed pushes.
	Compress bool
	// Active marks the upstream currently receiving pushes.
	Active bool
}

// upstream is the pusher's per-upstream state: negotiated encoding
// plus its telemetry series, labeled by URL. The counters move only
// under Pusher.mu, together with the matching aggregate PushMetrics
// field, so one Metrics snapshot never shows them disagreeing.
type upstream struct {
	url string

	// compressOK is the learned encoding support in auto mode:
	// 0 unknown (push identity), 1 advertised, -1 refused/absent.
	// Atomic: written by the run goroutine, read by Metrics.
	compressOK atomic.Int32

	pushed, acked, retried, failovers *telemetry.Counter
	rtt                               *telemetry.Histogram
}

func (u *upstream) compressSupported() bool { return u.compressOK.Load() == 1 }

// segState is the pusher's per-segment bookkeeping.
type segState struct {
	seenSize  int64 // newest observed size
	ackedSize int64 // bytes acked by the aggregator
	doneSize  int64 // bytes handled without an ack (no committed checkpoint, or rejected)

	// unackedSince is the wall clock when unacked bytes were first
	// observed in this segment (zero when fully handled): the start
	// point of the written→acked latency observation and the basis of
	// the spool-age gauge. Scan-granular on the "written" side — the
	// pusher discovers writes by scanning, it is not on the sink's
	// write path.
	unackedSince time.Time
}

// handled reports the byte count already resolved (acked, skipped or
// rejected); a segment needs a push while seenSize exceeds it.
func (s *segState) handled() int64 {
	if s.ackedSize > s.doneSize {
		return s.ackedSize
	}
	return s.doneSize
}

// Pusher watches a fed.Sink segment directory and uploads committed
// segments to an aggregator, oldest first, one at a time (in-flight
// is bounded at one: ordering keeps the aggregator folding oldest
// evidence first, and the spool — the disk — is the backlog, so
// concurrency would buy nothing against a serially-folding peer).
// Every failure backs off exponentially with jitter and leaves the
// spool intact; every success is recorded so a segment is re-pushed
// only when it grows.
type Pusher struct {
	cfg    PusherConfig
	client *http.Client

	trigger chan struct{}
	closing chan struct{}
	done    chan struct{}
	once    sync.Once
	killed  atomic.Bool

	// run-goroutine state.
	rng       *rand.Rand
	segs      map[int]*segState
	backoff   time.Duration
	ups       []*upstream
	active    int // index into ups currently receiving pushes
	lastProbe time.Time

	// rttNS times one push round trip (request out to status back);
	// ackLatNS spans unacked bytes first observed to their durable
	// ack — the sensor-side half of the evidence-written→acked
	// end-to-end latency. spoolAgeMS gauges the oldest unacked bytes'
	// age, updated each scan (0 = fully synced).
	rttNS      *telemetry.Histogram
	ackLatNS   *telemetry.Histogram
	spoolAgeMS *telemetry.Gauge

	mu sync.Mutex
	m  PushMetrics
	// notifyGen counts Notify calls; scanGen is the notifyGen value
	// observed at the start of the latest completed scan. Synced
	// compares them so a caller who just committed new evidence (and
	// Notified) cannot read a stale all-clear from a scan that ran
	// before the commit.
	notifyGen, scanGen uint64
}

// NewPusher validates the configuration and starts the push loop.
func NewPusher(cfg PusherConfig) (*Pusher, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, fmt.Errorf("transport: pusher needs a segment directory")
	}
	if len(cfg.URLs) == 0 {
		return nil, fmt.Errorf("transport: pusher needs at least one aggregator URL")
	}
	p := &Pusher{
		cfg:     cfg,
		client:  cfg.Client,
		trigger: make(chan struct{}, 1),
		closing: make(chan struct{}),
		done:    make(chan struct{}),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		segs:    make(map[int]*segState),
	}
	if p.client == nil {
		p.client = &http.Client{}
	}
	for _, u := range cfg.URLs {
		p.ups = append(p.ups, &upstream{url: u})
	}
	p.m.ActiveUpstream = p.ups[0].url
	p.registerTelemetry()
	go p.run()
	return p, nil
}

// registerTelemetry installs the pusher's metric series. Counters are
// bridged from the Metrics snapshot under its mutex — scrape-time
// cost only.
func (p *Pusher) registerTelemetry() {
	if p.cfg.Telemetry == nil {
		p.cfg.Telemetry = telemetry.NewRegistry()
	}
	reg := p.cfg.Telemetry
	cf := func(name, help string, get func(PushMetrics) uint64) {
		reg.CounterFunc(name, help, func() uint64 {
			p.mu.Lock()
			defer p.mu.Unlock()
			return get(p.m)
		})
	}
	cf("semnids_push_scans_total", "Completed spool scans.", func(m PushMetrics) uint64 { return m.Scans })
	cf("semnids_push_pushed_total", "Segment upload attempts.", func(m PushMetrics) uint64 { return m.Pushed })
	cf("semnids_push_acked_total", "Uploads acknowledged durably by the aggregator.", func(m PushMetrics) uint64 { return m.Acked })
	cf("semnids_push_retried_total", "Failed uploads left spooled for retry.", func(m PushMetrics) uint64 { return m.Retried })
	cf("semnids_push_rejected_total", "Uploads permanently refused (4xx) and skipped.", func(m PushMetrics) uint64 { return m.Rejected })
	cf("semnids_push_dropped_total", "Segments pruned before their evidence was acked.", func(m PushMetrics) uint64 { return m.Dropped })
	cf("semnids_push_failovers_total", "Active-upstream switches (demotions plus promotions).", func(m PushMetrics) uint64 { return m.Failovers })
	cf("semnids_push_compressed_total", "Pushes delivered with a compressed body.", func(m PushMetrics) uint64 { return m.Compressed })
	cf("semnids_push_raw_bytes_total", "Acked push body bytes before content encoding.", func(m PushMetrics) uint64 { return m.RawBytes })
	cf("semnids_push_wire_bytes_total", "Acked push body bytes on the wire after content encoding.", func(m PushMetrics) uint64 { return m.WireBytes })
	// Per-upstream series, labeled by URL: the failover story is only
	// debuggable when each upstream's share of the traffic is visible.
	for _, u := range p.ups {
		label := fmt.Sprintf("{upstream=%q}", u.url)
		u.pushed = reg.Counter("semnids_push_upstream_pushed_total"+label, "Upload attempts to this upstream.")
		u.acked = reg.Counter("semnids_push_upstream_acked_total"+label, "Uploads this upstream acked durably.")
		u.retried = reg.Counter("semnids_push_upstream_retried_total"+label, "Failed uploads against this upstream.")
		u.failovers = reg.Counter("semnids_push_upstream_failovers_total"+label, "Times this upstream became the active one.")
		u.rtt = reg.Histogram("semnids_push_upstream_rtt_ns"+label, "One push round trip to this upstream.")
	}
	reg.GaugeFunc("semnids_push_spooled_segments", "Segments holding unacked bytes as of the latest scan.", func() int64 {
		p.mu.Lock()
		defer p.mu.Unlock()
		return int64(p.m.Spooled)
	})
	reg.GaugeFunc("semnids_push_backoff_ms", "Current retry backoff (0 = healthy).", func() int64 {
		p.mu.Lock()
		defer p.mu.Unlock()
		return p.m.Backoff.Milliseconds()
	})
	p.rttNS = reg.Histogram("semnids_push_rtt_ns", "One push round trip to the aggregator.")
	p.ackLatNS = reg.Histogram("semnids_push_ack_latency_ns",
		"Unacked evidence bytes first observed to their durable aggregator ack.")
	p.spoolAgeMS = reg.Gauge("semnids_push_spool_age_ms",
		"Age of the oldest unacked spool bytes (0 = synced).")
}

// Notify nudges a spool scan without waiting for the next interval.
// Never blocks; a nudge arriving while one is pending coalesces.
func (p *Pusher) Notify() {
	p.mu.Lock()
	p.notifyGen++
	p.mu.Unlock()
	select {
	case p.trigger <- struct{}{}:
	default:
	}
}

// Metrics returns current pusher counters and health gauges. The
// aggregate and per-upstream counters are read under one lock: each
// aggregate equals the sum of its per-upstream slices (Retried also
// counts failures not tied to an upstream, so it may exceed the sum).
func (p *Pusher) Metrics() PushMetrics {
	ups := make([]UpstreamStatus, len(p.ups))
	p.mu.Lock()
	defer p.mu.Unlock()
	m := p.m
	m.Upstreams = ups
	for i, u := range p.ups {
		m.Upstreams[i] = UpstreamStatus{
			URL:       u.url,
			Pushed:    u.pushed.Value(),
			Acked:     u.acked.Value(),
			Retried:   u.retried.Value(),
			Failovers: u.failovers.Value(),
			Compress:  p.cfg.Compression == CompressionOn || u.compressSupported(),
			Active:    u.url == m.ActiveUpstream,
		}
	}
	return m
}

// Synced reports whether the latest completed scan left nothing
// spooled — every committed byte on disk acked by the aggregator.
// False until the first scan completes, and false after a Notify
// until a scan that *started after it* completes, so
// commit-Notify-Synced sequences can never read a stale all-clear.
// (Evidence written without a Notify — the sink's periodic tick — is
// only guaranteed visible after the next scan interval.)
func (p *Pusher) Synced() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.m.Scans > 0 && p.m.Spooled == 0 && p.m.Backoff == 0 && p.scanGen >= p.notifyGen
}

// Close makes one final best-effort pass over the spool (bounded: a
// single sweep, each request under RequestTimeout, stopping at the
// first failure) and stops the loop. The spool itself persists — a
// restarted pusher re-pushes anything unacked, and the aggregator's
// idempotent fold makes the overlap harmless.
func (p *Pusher) Close() {
	p.once.Do(func() {
		close(p.closing)
		<-p.done
	})
}

// Kill stops the push loop without Close's final sweep — crash
// semantics for fault drills: nothing further is pushed after Kill
// returns. The spool persists; a restarted pusher resumes from it.
func (p *Pusher) Kill() {
	p.killed.Store(true)
	p.once.Do(func() {
		close(p.closing)
		<-p.done
	})
}

func (p *Pusher) run() {
	defer close(p.done)
	for {
		p.syncPass()
		delay := p.cfg.ScanInterval
		if p.backoff > 0 {
			// 50–100% jitter on the exponential backoff.
			delay = p.backoff/2 + time.Duration(p.rng.Int63n(int64(p.backoff/2)+1))
		}
		timer := time.NewTimer(delay)
		select {
		case <-p.closing:
			timer.Stop()
			if !p.killed.Load() {
				p.syncPass() // final sweep: push whatever the last checkpoint left
			}
			return
		case <-p.trigger:
			timer.Stop()
		case <-timer.C:
		}
	}
}

// syncPass scans the spool once and pushes every segment with unacked
// bytes, oldest first, stopping at the first retryable failure (order
// preserved; the failed segment leads the next pass).
func (p *Pusher) syncPass() {
	p.mu.Lock()
	gen := p.notifyGen
	p.mu.Unlock()
	p.maybePromote()
	segs, err := fed.Segments(p.cfg.Dir)
	if err != nil {
		p.fail(fmt.Sprintf("scan: %v", err))
		return
	}
	current := make(map[int]bool, len(segs))
	for _, seg := range segs {
		current[seg.Index] = true
	}
	// Segments that vanished were pruned; unacked committed bytes in
	// them are dropped evidence.
	for idx, st := range p.segs {
		if !current[idx] {
			if st.seenSize > st.handled() {
				p.mu.Lock()
				p.m.Dropped++
				p.mu.Unlock()
			}
			delete(p.segs, idx)
		}
	}

	ok := true
	for _, seg := range segs {
		st := p.segs[seg.Index]
		if st == nil {
			st = &segState{}
			p.segs[seg.Index] = st
		}
		if seg.Size > st.seenSize {
			st.seenSize = seg.Size
		}
		if st.seenSize > st.handled() && st.unackedSince.IsZero() {
			st.unackedSince = time.Now()
		}
		if ok && st.seenSize > st.handled() {
			if !p.pushSegment(seg.Name, st) {
				ok = false // keep scanning for spool accounting, stop pushing
			}
		}
	}

	spooled := 0
	var oldest time.Time
	for _, st := range p.segs {
		if st.seenSize > st.handled() {
			spooled++
			if oldest.IsZero() || st.unackedSince.Before(oldest) {
				oldest = st.unackedSince
			}
		} else {
			st.unackedSince = time.Time{}
		}
	}
	var ageMS int64
	if !oldest.IsZero() {
		ageMS = time.Since(oldest).Milliseconds()
	}
	p.spoolAgeMS.Set(ageMS)
	p.mu.Lock()
	p.m.Scans++
	p.m.Spooled = spooled
	p.scanGen = gen
	if ok {
		p.backoff = 0
		p.m.Backoff = 0
		p.m.LastError = ""
	}
	p.mu.Unlock()
}

// pushOutcome classifies one upload attempt.
type pushOutcome int

const (
	pushAcked    pushOutcome = iota // 2xx after a durable fold
	pushRejected                    // 4xx: permanent for this content
	pushRetry                       // network error or 5xx: delivery unknown
)

// pushSegment uploads one segment snapshot, trying upstreams in
// priority order starting at the active one. Returns false only when
// every upstream failed retryably (network errors, 5xx) — that raises
// the backoff once and leaves the spool intact; local corruption and
// aggregator 4xx rejections resolve the segment at its current size
// and push on.
func (p *Pusher) pushSegment(name string, st *segState) bool {
	data, err := os.ReadFile(filepath.Join(p.cfg.Dir, name))
	if err != nil {
		// Pruned between scan and read: the disappearance is accounted
		// on the next pass.
		return true
	}
	if int64(len(data)) > st.seenSize {
		st.seenSize = int64(len(data))
	}
	size := int64(len(data))

	// Pre-filter locally: a segment with no committed checkpoint yet
	// (a freshly rotated header) has nothing to deliver, and a locally
	// corrupt one never will — neither is worth a round trip.
	if _, err := fed.ReadExport(bytes.NewReader(data)); err != nil {
		if !errors.Is(err, fed.ErrNoCheckpoint) {
			p.reject(fmt.Sprintf("%s: local segment corrupt: %v", name, err))
		}
		st.doneSize = size
		return true
	}

	var lastMsg string
	for i := range p.ups {
		idx := (p.active + i) % len(p.ups)
		u := p.ups[idx]
		outcome, wire, compressed, msg := p.pushTo(u, name, data)
		switch outcome {
		case pushAcked:
			st.ackedSize = size
			if !st.unackedSince.IsZero() {
				p.ackLatNS.Observe(time.Since(st.unackedSince).Nanoseconds())
				st.unackedSince = time.Time{}
			}
			if idx != p.active {
				p.failoverTo(idx)
			}
			// Any successful push means the path is healthy again: the
			// next failure backs off from BackoffMin, never from a
			// previous outage's lingering ceiling.
			p.backoff = 0
			p.mu.Lock()
			u.acked.Inc()
			p.m.Acked++
			p.m.RawBytes += uint64(size)
			p.m.WireBytes += uint64(wire)
			if compressed {
				p.m.Compressed++
			}
			p.mu.Unlock()
			return true
		case pushRejected:
			// Permanent for this content on a healthy upstream: the
			// others would refuse it too. Skip (re-push only if the
			// segment grows) and make the rejection visible.
			p.reject(msg)
			st.doneSize = size
			return true
		default:
			p.mu.Lock()
			u.retried.Inc()
			p.m.Retried++
			p.m.LastError = msg
			p.mu.Unlock()
			lastMsg = msg
		}
	}
	// Every upstream failed: spool-and-forward. One backoff raise per
	// pass regardless of fan-out width.
	p.raiseBackoff(lastMsg)
	return false
}

// pushTo delivers one segment body to one upstream, compressing per
// the configured mode and the upstream's learned capability. A 4xx on
// a compressed body earns one identity retry (a stale capability or a
// downgraded aggregator must not turn into a permanent skip) before
// the rejection stands.
func (p *Pusher) pushTo(u *upstream, name string, data []byte) (pushOutcome, int, bool, string) {
	useComp := p.cfg.Compression == CompressionOn ||
		(p.cfg.Compression == CompressionAuto && u.compressSupported())
	for {
		body := data
		if useComp {
			if c := compressBytes(data); c != nil {
				body = c
			} else {
				useComp = false
			}
		}
		outcome, msg := p.attempt(u, name, body, useComp)
		if outcome == pushRejected && useComp {
			u.compressOK.Store(-1)
			useComp = false
			continue
		}
		return outcome, len(body), useComp, msg
	}
}

// attempt is one HTTP exchange against one upstream.
func (p *Pusher) attempt(u *upstream, name string, body []byte, compressed bool) (pushOutcome, string) {
	ctx, cancel := context.WithTimeout(context.Background(), p.cfg.RequestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u.url, bytes.NewReader(body))
	if err != nil {
		return pushRejected, fmt.Sprintf("%s: %v", name, err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set(HeaderSegment, name)
	if compressed {
		req.Header.Set("Content-Encoding", compress.ContentEncoding)
	}
	hops, via := 1, []string(nil)
	if p.cfg.Route != nil {
		hops, via = p.cfg.Route()
	}
	req.Header.Set(HeaderHops, strconv.Itoa(hops))
	if len(via) > 0 {
		req.Header.Set(HeaderVia, strings.Join(via, ","))
	}

	p.mu.Lock()
	u.pushed.Inc()
	p.m.Pushed++
	p.mu.Unlock()
	t0 := time.Now()
	resp, err := p.client.Do(req)
	rtt := time.Since(t0).Nanoseconds()
	p.rttNS.Observe(rtt)
	u.rtt.Observe(rtt)
	if err != nil {
		return pushRetry, fmt.Sprintf("%s: %s: %v", name, u.url, err)
	}
	defer resp.Body.Close()
	u.learn(resp)
	switch {
	case resp.StatusCode >= 200 && resp.StatusCode < 300:
		return pushAcked, ""
	case resp.StatusCode >= 400 && resp.StatusCode < 500:
		excerpt, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return pushRejected, fmt.Sprintf("%s: %s rejected (%s): %s", name, u.url, resp.Status, bytes.TrimSpace(excerpt))
	default:
		return pushRetry, fmt.Sprintf("%s: %s: aggregator %s", name, u.url, resp.Status)
	}
}

// learn updates the upstream's advertised-encoding capability from a
// response. Only responses that prove what the aggregator speaks are
// trusted: a header names the supported encodings; a 2xx without one
// is a pre-compression aggregator. Errors and 5xx (possibly synthetic,
// from an LB or fault harness) teach nothing.
func (u *upstream) learn(resp *http.Response) {
	if hdr := resp.Header.Get(HeaderAcceptEncoding); hdr != "" {
		for _, tok := range strings.Split(hdr, ",") {
			if strings.TrimSpace(tok) == compress.ContentEncoding {
				u.compressOK.Store(1)
				return
			}
		}
		u.compressOK.Store(-1)
	} else if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		u.compressOK.Store(-1)
	}
}

// compressBytes encodes data as one compressed push body (nil on the
// never-expected encoder failure, which falls back to identity).
func compressBytes(data []byte) []byte {
	var buf bytes.Buffer
	w := compress.NewWriter(&buf)
	if _, err := w.Write(data); err != nil {
		return nil
	}
	if err := w.Close(); err != nil {
		return nil
	}
	return buf.Bytes()
}

// maybePromote probes higher-priority upstreams when the pusher has
// failed away from the head of the list, promoting back to the first
// one that answers. Probes are plain GETs against the push URL: new
// aggregators answer 204 (and advertise their encodings), old ones
// 405 — any sub-5xx response proves liveness.
func (p *Pusher) maybePromote() {
	if len(p.ups) <= 1 || p.active == 0 || time.Since(p.lastProbe) < p.cfg.ProbeInterval {
		return
	}
	p.lastProbe = time.Now()
	for i := 0; i < p.active; i++ {
		if p.probe(p.ups[i]) {
			p.failoverTo(i)
			return
		}
	}
}

func (p *Pusher) probe(u *upstream) bool {
	ctx, cancel := context.WithTimeout(context.Background(), p.cfg.RequestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u.url, nil)
	if err != nil {
		return false
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1024))
	u.learn(resp)
	return resp.StatusCode < 500
}

// failoverTo switches the active upstream (both demotion after a
// failed push and probe-driven promotion land here).
func (p *Pusher) failoverTo(idx int) {
	if idx == p.active {
		return
	}
	p.active = idx
	u := p.ups[idx]
	p.mu.Lock()
	u.failovers.Inc()
	p.m.Failovers++
	p.m.ActiveUpstream = u.url
	p.mu.Unlock()
}

// fail records a retryable failure and raises the backoff.
func (p *Pusher) fail(msg string) {
	p.mu.Lock()
	p.m.Retried++
	p.mu.Unlock()
	p.raiseBackoff(msg)
}

// raiseBackoff doubles the retry backoff toward the ceiling.
func (p *Pusher) raiseBackoff(msg string) {
	if p.backoff == 0 {
		p.backoff = p.cfg.BackoffMin
	} else {
		p.backoff *= 2
		if p.backoff > p.cfg.BackoffMax {
			p.backoff = p.cfg.BackoffMax
		}
	}
	p.mu.Lock()
	p.m.Backoff = p.backoff
	p.m.LastError = msg
	p.mu.Unlock()
}

// reject records a permanent rejection (no backoff — the pipeline is
// healthy, the content was refused).
func (p *Pusher) reject(msg string) {
	p.mu.Lock()
	p.m.Rejected++
	p.m.LastError = msg
	p.mu.Unlock()
}

// Package classify implements the paper's traffic classification stage
// (Section 4.1): deciding which packets are "interesting" enough to be
// passed to the CPU-intensive binary extraction and semantic analysis
// stages. Two schemes are implemented, exactly as in the prototype:
//
//  1. Honeypot: a configured list of decoy addresses that exist only to
//     attract unsolicited traffic. Any host that sends anything to a
//     decoy is suspicious from then on.
//  2. Dark address space: the network's unused address ranges are
//     registered; a source that touches t distinct unused addresses is
//     considered a scanner and all its subsequent traffic is analyzed.
package classify

import (
	"net/netip"
	"slices"
	"sync"

	"semnids/internal/netpkt"
)

// Reason explains why a packet was selected for analysis.
type Reason string

const (
	ReasonNone       Reason = ""
	ReasonHoneypot   Reason = "destination is a honeypot decoy"
	ReasonScanner    Reason = "source exceeded dark-space scan threshold"
	ReasonSuspicious Reason = "source previously marked suspicious"
	ReasonAll        Reason = "classification disabled"
)

// Config parameterizes the classifier.
type Config struct {
	// Honeypots are decoy addresses registered with the NIDS.
	Honeypots []netip.Addr

	// DarkSpace lists the un-used address prefixes of the protected
	// network.
	DarkSpace []netip.Prefix

	// ScanThreshold is t: the number of distinct dark addresses a
	// source must touch to be declared a scanner. Default 3.
	ScanThreshold int

	// SuspiciousTTLUS is how long (in trace microseconds) a source
	// stays suspicious after its last triggering event. Default 10
	// minutes.
	SuspiciousTTLUS uint64

	// Disabled forwards every packet to analysis (the Section 5.4
	// false-positive experiment).
	Disabled bool
}

// Classifier tracks per-source state and renders verdicts. It is safe
// for concurrent use.
type Classifier struct {
	cfg Config

	mu         sync.Mutex
	honeypots  map[netip.Addr]bool
	suspicious map[netip.Addr]uint64 // source -> expiry timestamp
	darkSeen   map[netip.Addr]map[netip.Addr]bool

	// Counters for metrics.
	total, selected uint64
}

// New builds a classifier from cfg.
func New(cfg Config) *Classifier {
	if cfg.ScanThreshold <= 0 {
		cfg.ScanThreshold = 3
	}
	if cfg.SuspiciousTTLUS == 0 {
		cfg.SuspiciousTTLUS = 10 * 60 * 1e6
	}
	c := &Classifier{
		cfg:        cfg,
		honeypots:  make(map[netip.Addr]bool, len(cfg.Honeypots)),
		suspicious: make(map[netip.Addr]uint64),
		darkSeen:   make(map[netip.Addr]map[netip.Addr]bool),
	}
	for _, h := range cfg.Honeypots {
		c.honeypots[h] = true
	}
	return c
}

func (c *Classifier) inDarkSpace(a netip.Addr) bool {
	for _, p := range c.cfg.DarkSpace {
		if p.Contains(a) {
			return true
		}
	}
	return false
}

// Classify examines one packet and reports whether it should be
// analyzed, with the triggering reason.
func (c *Classifier) Classify(p *netpkt.Packet) (bool, Reason) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.total++
	if c.cfg.Disabled {
		c.selected++
		return true, ReasonAll
	}

	now := p.TimestampUS
	src := p.SrcIP

	// Scheme 1: honeypot decoys.
	if c.honeypots[p.DstIP] {
		c.suspicious[src] = now + c.cfg.SuspiciousTTLUS
		c.selected++
		return true, ReasonHoneypot
	}

	// Scheme 2: dark address space scanning.
	if c.inDarkSpace(p.DstIP) {
		seen := c.darkSeen[src]
		if seen == nil {
			seen = make(map[netip.Addr]bool)
			c.darkSeen[src] = seen
		}
		seen[p.DstIP] = true
		if len(seen) >= c.cfg.ScanThreshold {
			c.suspicious[src] = now + c.cfg.SuspiciousTTLUS
			c.selected++
			return true, ReasonScanner
		}
	}

	// Previously marked sources stay interesting until expiry.
	if expiry, ok := c.suspicious[src]; ok {
		if now <= expiry {
			// Refresh: an active attacker stays on the list.
			c.suspicious[src] = now + c.cfg.SuspiciousTTLUS
			c.selected++
			return true, ReasonSuspicious
		}
		delete(c.suspicious, src)
		delete(c.darkSeen, src)
	}
	return false, ReasonNone
}

// MarkSuspicious force-registers a source (used when an alert fires,
// so follow-on traffic from the attacker is captured).
func (c *Classifier) MarkSuspicious(src netip.Addr, nowUS uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.suspicious[src] = nowUS + c.cfg.SuspiciousTTLUS
}

// SourceState is one source's classification-stage state, and the
// durable evidence record for it (incident.ClassifierEvidence is this
// type; the json tags are its wire form): the distinct dark-space
// addresses it has touched — a sub-threshold scan count, kept as a set
// so it merges idempotently — and its suspicious-list expiry.
// Persisting it alongside the correlator's evidence means a restarted
// or failed-over sensor does not grant a slow scanner a fresh start:
// two touches before the restart plus one after still cross a
// threshold of three.
type SourceState struct {
	Src netip.Addr `json:"src"`

	// SuspiciousUntilUS is the trace-time expiry of the source's
	// suspicious mark (honeypot contact, completed scan, or alert);
	// zero when the source is only part-way to a verdict.
	SuspiciousUntilUS uint64 `json:"suspicious_until_us,omitempty"`

	// Dark is the sorted set of distinct dark-space addresses the
	// source has touched. Membership is the evidence; the scan count
	// is its length.
	Dark []netip.Addr `json:"dark,omitempty"`
}

// StateBuffer is caller-owned storage for ExportStateTo. A snapshot
// rendered into it stays valid until the buffer's next use; reusing
// one buffer makes repeated snapshots allocation-free once it has
// grown to the classifier's size.
type StateBuffer struct {
	susp   []srcExpiry
	dark   []srcDark
	addrs  []netip.Addr // backing storage of every state's Dark
	states []SourceState
}

type srcExpiry struct {
	src    netip.Addr
	expiry uint64
}

type srcDark struct {
	src, dark netip.Addr
}

// ExportState snapshots every source with classification state into
// fresh storage: ExportStateTo a new buffer.
func (c *Classifier) ExportState() []SourceState {
	return c.ExportStateTo(new(StateBuffer))
}

// ExportStateTo snapshots every source with classification state in a
// canonical order (sources by address, dark sets sorted), so the same
// state always renders the same value. The classifier lock is held
// only to copy (source, expiry) and (source, dark address) pairs into
// b's flat buffers — Classify runs on every packet and must not wait
// behind a sort — and the pairs are sorted and grouped after it is
// released. The result and its Dark slices live in b.
func (c *Classifier) ExportStateTo(b *StateBuffer) []SourceState {
	c.mu.Lock()
	b.susp = b.susp[:0]
	for src, expiry := range c.suspicious {
		b.susp = append(b.susp, srcExpiry{src, expiry})
	}
	b.dark = b.dark[:0]
	for src, seen := range c.darkSeen {
		for d := range seen {
			b.dark = append(b.dark, srcDark{src, d})
		}
	}
	c.mu.Unlock()

	slices.SortFunc(b.susp, func(x, y srcExpiry) int { return x.src.Compare(y.src) })
	slices.SortFunc(b.dark, func(x, y srcDark) int {
		if c := x.src.Compare(y.src); c != 0 {
			return c
		}
		return x.dark.Compare(y.dark)
	})
	b.addrs = b.addrs[:0]
	for _, p := range b.dark {
		b.addrs = append(b.addrs, p.dark)
	}
	b.states = b.states[:0]
	susp, dark, addrs := b.susp, b.dark, b.addrs
	for len(susp) > 0 || len(dark) > 0 {
		st := SourceState{}
		if len(dark) == 0 || len(susp) > 0 && susp[0].src.Compare(dark[0].src) <= 0 {
			st.Src = susp[0].src
		} else {
			st.Src = dark[0].src
		}
		if len(susp) > 0 && susp[0].src == st.Src {
			st.SuspiciousUntilUS = susp[0].expiry
			susp = susp[1:]
		}
		n := 0
		for n < len(dark) && dark[n].src == st.Src {
			n++
		}
		if n > 0 {
			st.Dark, addrs, dark = addrs[:n:n], addrs[n:], dark[n:]
		}
		b.states = append(b.states, st)
	}
	return b.states
}

// ImportState folds exported classification state back in: dark sets
// union, suspicious expiries fold to the maximum — commutative and
// idempotent, like the evidence folds this state travels with. A
// union that crosses the scan threshold does not mark the source
// suspicious retroactively (there is no "now" to anchor the TTL);
// the source's next dark-space touch completes the verdict, exactly
// as one more live touch would have.
func (c *Classifier) ImportState(states []SourceState) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range states {
		st := &states[i]
		if st.SuspiciousUntilUS > c.suspicious[st.Src] {
			c.suspicious[st.Src] = st.SuspiciousUntilUS
		}
		if len(st.Dark) > 0 {
			seen := c.darkSeen[st.Src]
			if seen == nil {
				seen = make(map[netip.Addr]bool, len(st.Dark))
				c.darkSeen[st.Src] = seen
			}
			for _, d := range st.Dark {
				seen[d] = true
			}
		}
	}
}

// SuspiciousCount reports the current registry size.
func (c *Classifier) SuspiciousCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.suspicious)
}

// DarkCount reports how many sources hold dark-space scan state.
func (c *Classifier) DarkCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.darkSeen)
}

// Stats returns (total packets seen, packets selected for analysis).
func (c *Classifier) Stats() (total, selected uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total, c.selected
}

// Package incident is the streaming cross-shard incident correlation
// subsystem: the fourth pipeline stage, after classification,
// extraction and semantic analysis. The engine's shards publish typed
// events (core.Event) over a bounded channel to a single correlator
// goroutine that maintains one state machine per source address,
// advancing through the kill-chain stages of the paper's operational
// story ("further action may be taken against the offending IP
// address"):
//
//	RECON        destination fan-out above a threshold inside a
//	             sliding trace-time window (the scan that precedes
//	             infection);
//	EXPLOIT      a semantic-analysis alert attributed to the source;
//	PROPAGATION  a destination this source attacked begins emitting a
//	             payload with the same 128-bit fingerprint — the worm
//	             has jumped hosts.
//
// Shard events interleave nondeterministically, so incident content is
// never derived from arrival order: each source accumulates bounded,
// order-independent evidence sets (minimum-timestamp-K caps, which are
// commutative), and stages plus their transition times are *derived*
// from the evidence. The same trace therefore yields byte-identical
// incidents whatever the shard count. Per-source state is strictly
// bounded: evidence sets are capped, the source table is capped with
// LRU eviction, and idle sources are swept on a trace-time clock.
package incident

import (
	"container/list"
	"fmt"
	"net/netip"
	"slices"
	"sort"
	"strings"

	"semnids/internal/core"
)

// maxTemplates caps per-source matched-behavior evidence.
const maxTemplates = 64

// Stage is a kill-chain position. Stages are cumulative evidence
// levels, not strict prerequisites: an exploit with no preceding scan
// is at EXPLOIT having skipped RECON.
type Stage uint8

const (
	StageNone Stage = iota
	StageRecon
	StageExploit
	StagePropagation
)

// String names the stage for rendering and serialization.
func (s Stage) String() string {
	switch s {
	case StageRecon:
		return "RECON"
	case StageExploit:
		return "EXPLOIT"
	case StagePropagation:
		return "PROPAGATION"
	}
	return "NONE"
}

// Transition records when a stage's evidence threshold was crossed,
// in trace time derived from the evidence itself (not event arrival).
type Transition struct {
	Stage Stage
	AtUS  uint64
}

// maxTimelineEvents bounds an incident's timeline ring: first-packet,
// three kill-chain stages and federation annotations fit with slack,
// and a misbehaving annotator can only rotate the ring, not grow it.
const maxTimelineEvents = 8

// TimelineEvent is one entry in an incident's bounded timeline ring.
// Pipeline events ("first-packet" and the derived stage crossings)
// carry trace time and are computed from the evidence, so they are as
// deterministic as the incident itself. Wall-clock entries (Wall
// true; the aggregator's "acked" durability annotation) are stamped
// where they happen and never enter the evidence wire format — they
// are observations about *this process run*, not about the trace.
type TimelineEvent struct {
	// Kind names the event: "first-packet", "recon", "exploit",
	// "propagation", or an annotation such as "acked".
	Kind string

	// AtUS is the event instant: trace-time µs when Wall is false,
	// Unix µs when Wall is true.
	AtUS uint64

	// Wall marks wall-clock annotations.
	Wall bool
}

// AppendTimeline appends ev, keeping the newest maxTimelineEvents
// entries (the ring's bound).
func (inc *Incident) AppendTimeline(ev TimelineEvent) {
	inc.Timeline = append(inc.Timeline, ev)
	if len(inc.Timeline) > maxTimelineEvents {
		inc.Timeline = inc.Timeline[len(inc.Timeline)-maxTimelineEvents:]
	}
}

// Incident is one source's correlated activity, rendered from its
// evidence at snapshot time.
type Incident struct {
	Src      netip.Addr
	Stage    Stage
	Severity string

	// FirstUS/LastUS span the source's evidence in trace time.
	FirstUS, LastUS uint64

	// Destinations is the distinct destination count retained in the
	// fan-out evidence; Alerts counts the distinct alert observations
	// retained in the evidence (saturating at the alert cap).
	Destinations int
	Alerts       int

	// Templates lists matched behaviors (sorted, deduplicated).
	Templates []string

	// Victims lists destinations that re-emitted an attack payload of
	// this source (sorted; non-empty exactly when Stage is
	// PROPAGATION).
	Victims []string

	// Transitions holds the derived stage history in stage order.
	Transitions []Transition

	// Timeline is the incident's bounded event ring: first-packet and
	// the stage crossings (derived, trace time), plus any wall-clock
	// annotations appended downstream (e.g. the aggregator's durable
	// "acked"). Derived entries are deterministic; see TimelineEvent.
	Timeline []TimelineEvent
}

// String renders a one-line operator view.
func (inc Incident) String() string {
	return fmt.Sprintf("[%d.%06d] %s %s %s alerts=%d dests=%d %s",
		inc.LastUS/1e6, inc.LastUS%1e6, inc.Src, inc.Stage, inc.Severity,
		inc.Alerts, inc.Destinations, strings.Join(inc.Templates, ","))
}

// severityRank aliases the pipeline-wide ranking (core.SeverityRank).
var severityRank = core.SeverityRank

// attackRef links a victim's received payload back to the attacker.
type attackRef struct {
	attacker netip.Addr
	tsUS     uint64
}

// addAttackerRef folds one delivery into a victim's per-fingerprint
// attacker list under a min-(timestamp, attacker) cap: an existing
// attacker keeps its earliest delivery, and a full list admits a new
// attacker only by displacing the entry that sorts last — the same
// commutative displacement rule the minKSets use, so the retained
// list depends on the (attacker, ts) multiset, not arrival order.
func addAttackerRef(refs []attackRef, attacker netip.Addr, ts uint64, cap int) []attackRef {
	for i := range refs {
		if refs[i].attacker == attacker {
			if ts < refs[i].tsUS {
				refs[i].tsUS = ts
			}
			return refs
		}
	}
	if len(refs) < cap {
		return append(refs, attackRef{attacker: attacker, tsUS: ts})
	}
	max := 0
	for i := 1; i < len(refs); i++ {
		if lessRef(refs[max], refs[i]) {
			max = i
		}
	}
	if lessRef(attackRef{attacker: attacker, tsUS: ts}, refs[max]) {
		refs[max] = attackRef{attacker: attacker, tsUS: ts}
	}
	return refs
}

// lessRef orders attacker refs by (timestamp, attacker).
func lessRef(a, b attackRef) bool {
	if a.tsUS != b.tsUS {
		return a.tsUS < b.tsUS
	}
	return a.attacker.Less(b.attacker)
}

// alertKey identifies one alert observation. Alert evidence is a
// *set* of these (min-timestamp-K capped), not a counter, so merging
// two sensors' evidence is idempotent: the same alert observed (or
// exported) twice folds into one entry, while distinct alerts from a
// trace split across sensors union back to the single-sensor set.
type alertKey struct {
	tsUS     uint64
	dst      netip.Addr
	template string
}

// sourceState is the per-source evidence accumulator. Every set is
// capped and every cap keeps the minimum-timestamp entries, so the
// retained evidence is a deterministic function of the event *set*,
// independent of arrival order.
type sourceState struct {
	src netip.Addr

	// firstUS/lastUS span content-bearing evidence (flow-open, alert,
	// fingerprint); lastSeenUS additionally counts bookkeeping events
	// and drives idle eviction. echoUS is sweep bookkeeping only — the
	// trace time of the latest escalation proved against this source —
	// so an attacker whose victims are still echoing its payload is
	// not idle-finalized mid-outbreak. It is never exported: which
	// escalations fire, and when, varies with arrival order and
	// partitioning, exactly the noise the serialized evidence excludes
	// (lastSeenUS, by contrast, is a pure max over direct
	// observations).
	firstUS, lastUS uint64
	lastSeenUS      uint64
	echoUS          uint64

	// dests: destination -> earliest contact, for fan-out (RECON).
	dests minKSet[netip.Addr]

	// Alert evidence (EXPLOIT): distinct (timestamp, destination,
	// template) observations under a min-timestamp-K cap; the rendered
	// alert count is the set size, saturating at the cap.
	alertTimes minKSet[alertKey]
	exploitAt  uint64 // earliest alert, 0 = none
	severity   string
	templates  map[string]bool

	// Propagation evidence, this source as victim: which fingerprints
	// it was attacked with, and which it has itself emitted.
	targetedBy map[core.Fingerprint][]attackRef
	emitted    minKSet[core.Fingerprint] // fingerprint -> earliest emission

	// Propagation result, this source as attacker.
	propagationAt uint64
	victims       minKSet[netip.Addr] // victim -> earliest echo

	// sensors records foreign provenance folded in by Import: the
	// sensor IDs whose exported evidence contributed to this source.
	// Nil for purely local sources (the exporting sensor's own ID is
	// stamped at export time).
	sensors map[string]bool

	// notified is the highest stage already delivered to OnIncident
	// and subscribers.
	notified Stage

	// elem positions the source in the correlator's recency list.
	elem *list.Element

	// gen is the correlator generation of the source's latest evidence
	// mutation (see Correlator.touchLRU): ExportSince renders only
	// sources stamped after the caller's cursor.
	gen uint64
}

// touchContent folds a content-bearing event timestamp into the span.
func (s *sourceState) touchContent(ts uint64) {
	if s.firstUS == 0 || ts < s.firstUS {
		s.firstUS = ts
	}
	if ts > s.lastUS {
		s.lastUS = ts
	}
}

// span is one evidence key's observation window in trace time.
type span struct {
	first, last uint64
}

// minKSet is a bounded key -> observation-span set retaining the K
// entries with the smallest first-seen timestamps under the
// (timestamp, key-rendering) total order. Existing keys fold new
// observations into their span (earliest first, latest last); a new
// key is admitted only by displacing the entry that sorts last.
// Because the order is total — timestamp ties are broken by key — the
// retained set and, below the cap, every span depend only on the
// (key, ts) multiset, never on insertion order. A cached maximum
// makes the common saturated case O(1): a scanner producing ever-newer
// evidence against a full set is turned away without scanning the map.
type minKSet[K comparable] struct {
	m map[K]span

	// less is the deterministic key order used to break equal-timestamp
	// ties. A typed comparison, not a rendering: the old fmt.Sprint
	// tiebreak allocated two strings per comparison on the cap
	// displacement path (TestMinKSetTiebreakAllocs pins the fix).
	less func(a, b K) bool

	maxKey   K
	maxTS    uint64
	maxValid bool
}

func newMinKSet[K comparable](less func(a, b K) bool) minKSet[K] {
	return minKSet[K]{m: make(map[K]span), less: less}
}

// Key comparators: each evidence key type gets a total order so cap
// displacement breaks equal-timestamp ties identically across runs,
// shard counts and sensors (the key that sorts last is displaced
// first).
func lessAddr(a, b netip.Addr) bool { return a.Less(b) }

func lessFingerprint(a, b core.Fingerprint) bool {
	if a.A != b.A {
		return a.A < b.A
	}
	if a.B != b.B {
		return a.B < b.B
	}
	return a.N < b.N
}

func lessAlertKey(a, b alertKey) bool {
	if a.tsUS != b.tsUS {
		return a.tsUS < b.tsUS
	}
	if a.dst != b.dst {
		return a.dst.Less(b.dst)
	}
	return a.template < b.template
}

func (s *minKSet[K]) len() int { return len(s.m) }

func (s *minKSet[K]) get(key K) (span, bool) {
	sp, ok := s.m[key]
	return sp, ok
}

func (s *minKSet[K]) put(key K, ts uint64, cap int) {
	if sp, ok := s.m[key]; ok {
		if ts < sp.first {
			sp.first = ts
			if s.maxValid && key == s.maxKey {
				s.maxValid = false
			}
		}
		if ts > sp.last {
			sp.last = ts
		}
		s.m[key] = sp
		return
	}
	if len(s.m) < cap {
		s.m[key] = span{first: ts, last: ts}
		s.maxValid = false
		return
	}
	if !s.maxValid {
		s.recomputeMax()
	}
	if ts > s.maxTS || (ts == s.maxTS && !s.less(key, s.maxKey)) {
		return // sorts after the current maximum: rejected without a scan
	}
	delete(s.m, s.maxKey)
	s.m[key] = span{first: ts, last: ts}
	s.maxValid = false
}

func (s *minKSet[K]) recomputeMax() {
	first := true
	for k, sp := range s.m {
		if first || sp.first > s.maxTS || (sp.first == s.maxTS && s.less(s.maxKey, k)) {
			s.maxKey, s.maxTS, first = k, sp.first, false
		}
	}
	s.maxValid = !first
}

// reconAt derives the earliest trace time at which the source's
// distinct-destination fan-out reached threshold inside a sliding
// window, or 0 if it never did.
func (s *sourceState) reconAt(windowUS uint64, threshold int) uint64 {
	if threshold <= 0 || s.dests.len() < threshold {
		return 0
	}
	ts := make([]uint64, 0, s.dests.len())
	for _, sp := range s.dests.m {
		ts = append(ts, sp.first)
	}
	return reconAt(ts, windowUS, threshold)
}

// reconAt is the fan-out derivation over each destination's first
// contact time (sorted in place).
func reconAt(ts []uint64, windowUS uint64, threshold int) uint64 {
	if threshold <= 0 || len(ts) < threshold {
		return 0
	}
	slices.Sort(ts)
	// Each destination contributes its first contact; the window
	// [ts[i]-window, ts[i]] holds the fan-out count ending at ts[i].
	lo := 0
	for i := range ts {
		for ts[i]-ts[lo] > windowUS {
			lo++
		}
		if i-lo+1 >= threshold {
			return ts[i]
		}
	}
	return 0
}

// derive renders the source's evidence as an Incident.
func (s *sourceState) derive(windowUS uint64, threshold int) Incident {
	inc := Incident{
		Src:          s.src,
		FirstUS:      s.firstUS,
		LastUS:       s.lastUS,
		Destinations: s.dests.len(),
		Alerts:       s.alertTimes.len(),
		Severity:     s.severity,
	}
	for t := range s.templates {
		inc.Templates = append(inc.Templates, t)
	}
	sort.Strings(inc.Templates)

	if at := s.reconAt(windowUS, threshold); at > 0 {
		inc.Stage = StageRecon
		inc.Transitions = append(inc.Transitions, Transition{StageRecon, at})
		if severityRank[inc.Severity] < severityRank["low"] {
			inc.Severity = "low"
		}
	}
	if s.exploitAt > 0 {
		inc.Stage = StageExploit
		inc.Transitions = append(inc.Transitions, Transition{StageExploit, s.exploitAt})
	}
	if s.propagationAt > 0 {
		inc.Stage = StagePropagation
		inc.Transitions = append(inc.Transitions, Transition{StagePropagation, s.propagationAt})
		// The propagation instant is proved by the victim's traffic,
		// which may postdate the attacker's own last activity.
		if s.propagationAt > inc.LastUS {
			inc.LastUS = s.propagationAt
		}
		// A payload observed jumping hosts is the worst outcome the
		// correlator can prove; escalate past any per-alert severity.
		inc.Severity = "critical"
		for v := range s.victims.m {
			inc.Victims = append(inc.Victims, v.String())
		}
		sort.Strings(inc.Victims)
	}

	// The timeline ring opens with the first observed packet and adds
	// one entry per derived stage crossing — all trace time, all a
	// function of the evidence, so timelines federate as
	// deterministically as the incidents themselves.
	if inc.FirstUS > 0 {
		inc.AppendTimeline(TimelineEvent{Kind: "first-packet", AtUS: inc.FirstUS})
	}
	for _, t := range inc.Transitions {
		inc.AppendTimeline(TimelineEvent{Kind: strings.ToLower(t.Stage.String()), AtUS: t.AtUS})
	}
	return inc
}

// stage is the derived stage without rendering the full incident.
func (s *sourceState) stage(windowUS uint64, threshold int) Stage {
	switch {
	case s.propagationAt > 0:
		return StagePropagation
	case s.exploitAt > 0:
		return StageExploit
	case s.reconAt(windowUS, threshold) > 0:
		return StageRecon
	}
	return StageNone
}

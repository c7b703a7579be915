package incident

import (
	"cmp"
	"container/list"
	"fmt"
	"net/netip"
	"slices"
	"sort"
	"strings"

	"semnids/internal/classify"
	"semnids/internal/core"
	"semnids/internal/lineage"
	"semnids/internal/telemetry"
)

// This file is the federation half of the correlator: a source's
// evidence state as a plain serializable value (SourceEvidence), a
// sensor-level snapshot of all of them (EvidenceExport), and the
// operations federation needs — export, import (crash recovery and
// sensor seeding), and a commutative, idempotent merge.
//
// The design constraint comes from the correlator's determinism
// invariant: evidence is a *set* (min-timestamp-K caps, min/max scalar
// folds), never a function of arrival order, so two sensors that each
// saw part of a trace can union their evidence and re-derive the same
// incidents a single sensor would have produced — byte-identical,
// within the configured caps. Every record carries per-sensor
// provenance (Sensors), so merged evidence stays traceable to the
// sensors that observed it — the identifiable-parent property for
// evidence sets: collusion-style merging never launders the origin.

// EvidenceLimits are the per-source evidence caps an export was
// produced under. Merging requires identical limits on both sides:
// the caps are part of the determinism contract (a min-K set capped
// at 256 and one capped at 64 can disagree even on shared evidence).
type EvidenceLimits struct {
	MaxDestinations int `json:"max_destinations"`
	MaxAlerts       int `json:"max_alerts"`
	MaxFingerprints int `json:"max_fingerprints"`
	MaxVictims      int `json:"max_victims"`
}

// DestEvidence is one destination's observation span (also used for
// propagation victims: the span of qualifying payload echoes).
type DestEvidence struct {
	Addr    netip.Addr `json:"addr"`
	FirstUS uint64     `json:"first_us"`
	LastUS  uint64     `json:"last_us"`
}

// AlertEvidence is one retained alert observation.
type AlertEvidence struct {
	TsUS     uint64     `json:"ts_us"`
	Dst      netip.Addr `json:"dst"`
	Template string     `json:"template,omitempty"`
}

// AttackerRef names an attacker that delivered a payload to this
// source, with the earliest delivery time.
type AttackerRef struct {
	Attacker netip.Addr `json:"attacker"`
	TsUS     uint64     `json:"ts_us"`
}

// FingerprintAttackers is the victim-side propagation evidence for
// one payload identity.
type FingerprintAttackers struct {
	Fingerprint core.Fingerprint `json:"fp"`
	Refs        []AttackerRef    `json:"refs"`
}

// FingerprintSpan is the emission span of one payload identity.
type FingerprintSpan struct {
	Fingerprint core.Fingerprint `json:"fp"`
	FirstUS     uint64           `json:"first_us"`
	LastUS      uint64           `json:"last_us"`
}

// VictimEvidence is one propagation victim with its canonical
// (earliest qualifying) echo time. Deliberately not a span: the
// in-memory victim set's upper bound folds whichever intermediate
// echo values the event interleaving produced — arrival-order noise
// the determinism contract excludes (rendering uses membership and
// the minimum only), so the wire format carries just the canonical
// instant.
type VictimEvidence struct {
	Addr   netip.Addr `json:"addr"`
	EchoUS uint64     `json:"echo_us"`
}

// SourceEvidence is one source's full evidence state, rendered as a
// deterministic value: every slice is sorted under the same total
// orders the in-memory caps use, so the same evidence always
// serializes to the same bytes.
type SourceEvidence struct {
	Src netip.Addr `json:"src"`

	// Sensors is the provenance set: every sensor whose observation
	// (or exported evidence) contributed to this record. Sorted.
	Sensors []string `json:"sensors,omitempty"`

	// Stage is the stage derived from this evidence at export time —
	// informational (re-derived after any merge), never folded.
	Stage string `json:"stage"`

	FirstUS    uint64 `json:"first_us,omitempty"`
	LastUS     uint64 `json:"last_us,omitempty"`
	LastSeenUS uint64 `json:"last_seen_us,omitempty"`

	Dests  []DestEvidence  `json:"dests,omitempty"`
	Alerts []AlertEvidence `json:"alerts,omitempty"`

	ExploitAtUS uint64   `json:"exploit_at_us,omitempty"`
	Severity    string   `json:"severity,omitempty"`
	Templates   []string `json:"templates,omitempty"`

	TargetedBy []FingerprintAttackers `json:"targeted_by,omitempty"`
	Emitted    []FingerprintSpan      `json:"emitted,omitempty"`

	PropagationAtUS uint64           `json:"propagation_at_us,omitempty"`
	Victims         []VictimEvidence `json:"victims,omitempty"`
}

// ClassifierEvidence is one source's classification-stage state —
// its distinct dark-space touches and suspicious-list expiry — as the
// classifier exports it: the same type, so a checkpoint carries the
// classifier's snapshot without a conversion.
type ClassifierEvidence = classify.SourceState

// EvidenceExport is one sensor's evidence snapshot (or the merge of
// several sensors'): the correlation parameters the evidence was
// gathered under, plus every tracked source's evidence, sorted by
// source address — and, when the sensor runs a classifier, its
// per-source classification state (sub-threshold scan sets and
// suspicious marks), so selection behavior survives restart and
// failover too.
type EvidenceExport struct {
	Sensors         []string
	WindowUS        uint64
	FanoutThreshold int
	Limits          EvidenceLimits
	Sources         []SourceEvidence
	Classifier      []ClassifierEvidence

	// Lineage is the sensor's structural-payload observation set (the
	// lineage store's canonical export): one record per distinct
	// hostile payload with its decoded-tail family identity and first
	// witnessed delivery — the input to ancestry tracing. Empty unless
	// the sensor runs with lineage enabled. Merged with the same
	// commutative/idempotent discipline as every other evidence set.
	Lineage []lineage.Observation
}

// MergeClassifierEvidence unions two classifier evidence sets:
// per-source dark sets union, suspicious expiries fold to the
// maximum. Commutative and idempotent like every other evidence fold,
// and sorted (sources by address, dark sets by address) so the same
// state always serializes to the same bytes.
func MergeClassifierEvidence(a, b []ClassifierEvidence) []ClassifierEvidence {
	if len(a) == 0 && len(b) == 0 {
		return nil
	}
	bySrc := make(map[netip.Addr]*ClassifierEvidence, len(a)+len(b))
	fold := func(recs []ClassifierEvidence) {
		for i := range recs {
			rec := &recs[i]
			m := bySrc[rec.Src]
			if m == nil {
				m = &ClassifierEvidence{Src: rec.Src}
				bySrc[rec.Src] = m
			}
			if rec.SuspiciousUntilUS > m.SuspiciousUntilUS {
				m.SuspiciousUntilUS = rec.SuspiciousUntilUS
			}
			m.Dark = append(m.Dark, rec.Dark...)
		}
	}
	fold(a)
	fold(b)
	out := make([]ClassifierEvidence, 0, len(bySrc))
	for _, m := range bySrc {
		sort.Slice(m.Dark, func(i, j int) bool { return m.Dark[i].Less(m.Dark[j]) })
		dedup := m.Dark[:0]
		for _, d := range m.Dark {
			if len(dedup) == 0 || d != dedup[len(dedup)-1] {
				dedup = append(dedup, d)
			}
		}
		m.Dark = dedup
		if len(m.Dark) == 0 {
			m.Dark = nil
		}
		out = append(out, *m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Src.Less(out[j].Src) })
	return out
}

// limits snapshots the correlator's evidence caps.
func (c *Correlator) limits() EvidenceLimits {
	return EvidenceLimits{
		MaxDestinations: c.cfg.MaxDestinations,
		MaxAlerts:       c.cfg.MaxAlerts,
		MaxFingerprints: c.cfg.MaxFingerprints,
		MaxVictims:      c.cfg.MaxVictims,
	}
}

// Export snapshots every live source's evidence under the given
// sensor ID into fresh storage: ExportSince from generation 0.
// Finalized (completed) incidents are rendered verdicts, not
// evidence, and are not exported — export before finalization (or
// size SourceIdleUS/MaxSources for the deployment) if every source
// must survive a restart.
func (c *Correlator) Export(sensor string) *EvidenceExport {
	ex, _, _ := c.ExportSince(sensor, 0)
	return ex
}

// ExportSince is ExportSinceTo a fresh buffer: the returned export
// shares no storage with any other.
func (c *Correlator) ExportSince(sensor string, gen uint64) (ex *EvidenceExport, live []netip.Addr, next uint64) {
	return c.ExportSinceTo(new(ExportBuffer), sensor, gen)
}

// ExportSinceTo is the incremental export behind Export and the
// durable sink's checkpoints. The export's Sources hold only the
// sources whose evidence changed after generation gen (every live
// source for gen 0), sorted by address; live is the sorted address
// set of every live source, and next is the cursor for the following
// call. A caller that keeps the rendering of each source from earlier
// calls reassembles a full Export from live, replacing exactly the
// returned records. Cursors belong to the callers, so any number of
// them can export concurrently with each other and with correlation.
//
// The lock is held for a flat copy only: the changed sources' scalars
// and map entries are appended into b's storage (and, when sources
// came or went, the address set is merged), while sorting, stage
// derivation and de-duplication happen after it is released. The
// export lives in b until b's next use, so a caller that reuses one
// buffer exports without allocating once it has grown to the
// evidence's size. The returned live slice is shared: callers must
// not modify it.
func (c *Correlator) ExportSinceTo(b *ExportBuffer, sensor string, gen uint64) (ex *EvidenceExport, live []netip.Addr, next uint64) {
	b.reset()
	c.mu.Lock()
	for el := c.lru.Front(); el != nil; el = el.Next() {
		s := el.Value.(*sourceState)
		if s.gen <= gen {
			break
		}
		b.copySource(s, sensor, true)
	}
	live = c.liveAddrs()
	c.gen++
	next = c.gen
	c.mu.Unlock()

	b.sensor[0] = sensor
	return b.render(c, b.sensor[:]), live, next
}

// ExportBuffer is caller-owned storage an export renders into. Every
// record's slices are windows of a few flat arenas, so reusing a
// buffer reuses all of them; a rendering stays valid until the
// buffer's next use.
type ExportBuffer struct {
	ex     EvidenceExport
	sensor [1]string

	// raw holds the copied records in recency order; sources is the
	// address-ordered result, through the permutation perm.
	raw, sources []SourceEvidence
	perm         []int32

	strs    []string // sensors and templates
	dests   []DestEvidence
	alerts  []AlertEvidence
	fas     []FingerprintAttackers
	refs    []AttackerRef
	spans   []FingerprintSpan
	victims []VictimEvidence
	firsts  []uint64 // destination first-contact times, for the stage
}

// reset empties the buffer for the next export, keeping its storage.
func (b *ExportBuffer) reset() {
	b.raw = b.raw[:0]
	b.strs, b.dests, b.alerts, b.fas = b.strs[:0], b.dests[:0], b.alerts[:0], b.fas[:0]
	b.refs, b.spans, b.victims = b.refs[:0], b.spans[:0], b.victims[:0]
}

// window returns the elements appended to arena since index from, as
// a slice that cannot grow into the next record's window (nil when
// empty). A window keeps pointing at the array it was cut from even
// if the arena grows later, so records copied before a growth stay
// intact.
func window[T any](arena []T, from int) []T {
	if len(arena) == from {
		return nil
	}
	return arena[from:len(arena):len(arena)]
}

// copySource appends one source's evidence to the buffer unsorted: the
// part of an export that runs under the correlator lock. stamp adds
// the exporting sensor to the provenance set. Called with mu held.
func (b *ExportBuffer) copySource(s *sourceState, sensor string, stamp bool) {
	rec := SourceEvidence{
		Src:             s.src,
		FirstUS:         s.firstUS,
		LastUS:          s.lastUS,
		LastSeenUS:      s.lastSeenUS,
		ExploitAtUS:     s.exploitAt,
		Severity:        s.severity,
		PropagationAtUS: s.propagationAt,
	}
	n := len(b.strs)
	if stamp {
		b.strs = append(b.strs, sensor)
	}
	for sn := range s.sensors {
		b.strs = append(b.strs, sn)
	}
	rec.Sensors = window(b.strs, n)

	n = len(b.dests)
	for k, sp := range s.dests.m {
		b.dests = append(b.dests, DestEvidence{Addr: k, FirstUS: sp.first, LastUS: sp.last})
	}
	rec.Dests = window(b.dests, n)

	n = len(b.alerts)
	for k := range s.alertTimes.m {
		b.alerts = append(b.alerts, AlertEvidence{TsUS: k.tsUS, Dst: k.dst, Template: k.template})
	}
	rec.Alerts = window(b.alerts, n)

	n = len(b.strs)
	for t := range s.templates {
		b.strs = append(b.strs, t)
	}
	rec.Templates = window(b.strs, n)

	n = len(b.fas)
	for fp, refs := range s.targetedBy {
		r := len(b.refs)
		for _, ref := range refs {
			b.refs = append(b.refs, AttackerRef{Attacker: ref.attacker, TsUS: ref.tsUS})
		}
		fa := FingerprintAttackers{Fingerprint: fp, Refs: window(b.refs, r)}
		if fa.Refs == nil {
			fa.Refs = []AttackerRef{} // "refs" is not omitempty: [] on the wire, never null
		}
		b.fas = append(b.fas, fa)
	}
	rec.TargetedBy = window(b.fas, n)

	n = len(b.spans)
	for fp, sp := range s.emitted.m {
		b.spans = append(b.spans, FingerprintSpan{Fingerprint: fp, FirstUS: sp.first, LastUS: sp.last})
	}
	rec.Emitted = window(b.spans, n)

	n = len(b.victims)
	for v, sp := range s.victims.m {
		b.victims = append(b.victims, VictimEvidence{Addr: v, EchoUS: sp.first})
	}
	rec.Victims = window(b.victims, n)

	b.raw = append(b.raw, rec)
}

// render finishes the copied records outside the lock — each slice
// sorted under the total orders the in-memory caps use, sensors
// de-duplicated, stages derived — orders them by address and returns
// the export.
func (b *ExportBuffer) render(c *Correlator, sensors []string) *EvidenceExport {
	b.perm = b.perm[:0]
	for i := range b.raw {
		b.finish(&b.raw[i], c.cfg.WindowUS, c.cfg.FanoutThreshold)
		b.perm = append(b.perm, int32(i))
	}
	slices.SortFunc(b.perm, func(i, j int32) int { return b.raw[i].Src.Compare(b.raw[j].Src) })
	b.sources = b.sources[:0]
	for _, i := range b.perm {
		b.sources = append(b.sources, b.raw[i])
	}
	b.ex = EvidenceExport{
		Sensors:         sensors,
		WindowUS:        c.cfg.WindowUS,
		FanoutThreshold: c.cfg.FanoutThreshold,
		Limits:          c.limits(),
		Sources:         b.sources,
	}
	return &b.ex
}

// finish sorts one copied record into its canonical form and derives
// its stage.
func (b *ExportBuffer) finish(rec *SourceEvidence, windowUS uint64, threshold int) {
	slices.Sort(rec.Sensors)
	rec.Sensors = slices.Compact(rec.Sensors)
	slices.SortFunc(rec.Dests, func(x, y DestEvidence) int { return x.Addr.Compare(y.Addr) })
	slices.SortFunc(rec.Alerts, func(x, y AlertEvidence) int {
		if x.TsUS != y.TsUS {
			return cmp.Compare(x.TsUS, y.TsUS)
		}
		if c := x.Dst.Compare(y.Dst); c != 0 {
			return c
		}
		return strings.Compare(x.Template, y.Template)
	})
	slices.Sort(rec.Templates)
	for i := range rec.TargetedBy {
		slices.SortFunc(rec.TargetedBy[i].Refs, func(x, y AttackerRef) int { return x.Attacker.Compare(y.Attacker) })
	}
	slices.SortFunc(rec.TargetedBy, func(x, y FingerprintAttackers) int {
		return compareFingerprint(x.Fingerprint, y.Fingerprint)
	})
	slices.SortFunc(rec.Emitted, func(x, y FingerprintSpan) int {
		return compareFingerprint(x.Fingerprint, y.Fingerprint)
	})
	slices.SortFunc(rec.Victims, func(x, y VictimEvidence) int { return x.Addr.Compare(y.Addr) })

	st := StageNone
	switch {
	case rec.PropagationAtUS > 0:
		st = StagePropagation
	case rec.ExploitAtUS > 0:
		st = StageExploit
	default:
		b.firsts = b.firsts[:0]
		for _, d := range rec.Dests {
			b.firsts = append(b.firsts, d.FirstUS)
		}
		if reconAt(b.firsts, windowUS, threshold) > 0 {
			st = StageRecon
		}
	}
	rec.Stage = st.String()
}

// compareFingerprint is lessFingerprint's three-way form.
func compareFingerprint(a, b core.Fingerprint) int {
	if c := cmp.Compare(a.A, b.A); c != 0 {
		return c
	}
	if c := cmp.Compare(a.B, b.B); c != 0 {
		return c
	}
	return cmp.Compare(a.N, b.N)
}

// liveAddrs returns the sorted live source addresses, merging the
// additions and finalizations since the previous call into the last
// returned set — a linear pass, not a sort of the whole table. The
// result is never mutated afterwards. Called with mu held.
func (c *Correlator) liveAddrs() []netip.Addr {
	if !c.liveOK {
		c.live = make([]netip.Addr, 0, len(c.sources))
		for a := range c.sources {
			c.live = append(c.live, a)
		}
		slices.SortFunc(c.live, netip.Addr.Compare)
		c.liveAdded, c.liveGone, c.liveOK = nil, false, true
		return c.live
	}
	if len(c.liveAdded) == 0 && !c.liveGone {
		return c.live
	}
	slices.SortFunc(c.liveAdded, netip.Addr.Compare)
	old, add := c.live, c.liveAdded
	out := make([]netip.Addr, 0, len(c.sources))
	for len(old) > 0 || len(add) > 0 {
		var a netip.Addr
		if len(add) == 0 || (len(old) > 0 && old[0].Less(add[0])) {
			a, old = old[0], old[1:]
		} else {
			a, add = add[0], add[1:]
		}
		// A finalized address may still be listed, and one finalized
		// and re-created since is listed twice.
		if c.liveGone && c.sources[a] == nil || len(out) > 0 && out[len(out)-1] == a {
			continue
		}
		out = append(out, a)
	}
	c.live, c.liveAdded, c.liveGone = out, c.liveAdded[:0], false
	return out
}

// compatible checks an export was produced under this correlator's
// correlation parameters; folding evidence gathered under different
// windows or caps would silently break the determinism contract.
func (c *Correlator) compatible(ex *EvidenceExport) error {
	if ex.WindowUS != c.cfg.WindowUS || ex.FanoutThreshold != c.cfg.FanoutThreshold {
		return fmt.Errorf("incident: export window/fanout %d/%d incompatible with correlator %d/%d",
			ex.WindowUS, ex.FanoutThreshold, c.cfg.WindowUS, c.cfg.FanoutThreshold)
	}
	if ex.Limits != c.limits() {
		return fmt.Errorf("incident: export limits %+v incompatible with correlator %+v", ex.Limits, c.limits())
	}
	return nil
}

// parseStage maps a serialized stage name back to its value; unknown
// names are StageNone (conservative: an unknown stage is treated as
// not yet announced).
func parseStage(name string) Stage {
	switch name {
	case "RECON":
		return StageRecon
	case "EXPLOIT":
		return StageExploit
	case "PROPAGATION":
		return StagePropagation
	}
	return StageNone
}

// Import folds an evidence export into the live correlator: each
// record unions into the matching source's evidence under the same
// caps live events use, then propagation is re-derived across the
// imported sources — the step that closes attacker↔victim links whose
// two halves were observed by different sensors. The notification
// gate is quieted only up to the stage each record itself had already
// derived (recovery does not re-announce); a stage that only the
// merged evidence proves — a fan-out completed by union, a
// cross-sensor propagation link — fires OnIncident/subscribers as a
// live transition would. Idempotent: importing the same export twice
// changes nothing.
func (c *Correlator) Import(ex *EvidenceExport) error {
	if err := c.compatible(ex); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	touched := make([]*sourceState, 0, len(ex.Sources))
	for i := range ex.Sources {
		rec := &ex.Sources[i]
		s := c.importSource(rec)
		touched = append(touched, s)
		// Quiet only what the record had already announced on its own
		// sensor…
		if st := parseStage(rec.Stage); st > s.notified {
			if s.notified == StageNone {
				c.m.incidents.Add(1)
			}
			s.notified = st
		}
	}
	// …then announce anything the evidence union proves beyond the
	// records, and re-derive propagation, which may raise stages
	// further (cross-sensor links).
	for _, s := range touched {
		c.notify(s)
	}
	for _, s := range touched {
		c.rederivePropagation(s)
	}
	return nil
}

// importSource folds one record into its source state under the
// configured caps. Every fold is commutative and idempotent — min-K
// puts, min/max scalars, set unions — mirroring apply()'s handling of
// the corresponding live events.
func (c *Correlator) importSource(rec *SourceEvidence) *sourceState {
	s := c.source(rec.Src, rec.LastSeenUS)
	if rec.FirstUS > 0 {
		s.touchContent(rec.FirstUS)
	}
	if rec.LastUS > 0 {
		s.touchContent(rec.LastUS)
	}
	for _, sn := range rec.Sensors {
		if s.sensors == nil {
			s.sensors = make(map[string]bool, len(rec.Sensors))
		}
		s.sensors[sn] = true
	}
	for _, d := range rec.Dests {
		s.dests.put(d.Addr, d.FirstUS, c.cfg.MaxDestinations)
		s.dests.put(d.Addr, d.LastUS, c.cfg.MaxDestinations)
	}
	for _, a := range rec.Alerts {
		s.alertTimes.put(alertKey{tsUS: a.TsUS, dst: a.Dst, template: a.Template}, a.TsUS, c.cfg.MaxAlerts)
	}
	if rec.ExploitAtUS > 0 && (s.exploitAt == 0 || rec.ExploitAtUS < s.exploitAt) {
		s.exploitAt = rec.ExploitAtUS
	}
	if severityRank[rec.Severity] > severityRank[s.severity] {
		s.severity = rec.Severity
	}
	for _, t := range rec.Templates {
		if len(s.templates) < maxTemplates || s.templates[t] {
			s.templates[t] = true
		}
	}
	for _, fa := range rec.TargetedBy {
		refs, present := s.targetedBy[fa.Fingerprint]
		for _, r := range fa.Refs {
			refs = addAttackerRef(refs, r.Attacker, r.TsUS, maxAttackersPerFingerprint)
		}
		if present || len(s.targetedBy) < c.cfg.MaxFingerprints {
			s.targetedBy[fa.Fingerprint] = refs
		}
	}
	for _, e := range rec.Emitted {
		s.emitted.put(e.Fingerprint, e.FirstUS, c.cfg.MaxFingerprints)
		s.emitted.put(e.Fingerprint, e.LastUS, c.cfg.MaxFingerprints)
	}
	if rec.PropagationAtUS > 0 && (s.propagationAt == 0 || rec.PropagationAtUS < s.propagationAt) {
		s.propagationAt = rec.PropagationAtUS
	}
	for _, v := range rec.Victims {
		s.victims.put(v.Addr, v.EchoUS, c.cfg.MaxVictims)
	}
	return s
}

// rederivePropagation re-runs the propagation check over one source's
// victim-side evidence, escalating every attacker whose delivered
// payload this source's folded emission span postdates — the same
// verdict apply() reaches event by event, recomputed from merged
// evidence. The victim record's provenance travels with the verdict:
// the sensors that witnessed the victim's evidence are the witnesses
// of the attacker's escalation, so even an attacker synthesized
// purely from victim-side evidence can name them. Called with mu
// held.
func (c *Correlator) rederivePropagation(v *sourceState) {
	for fp, refs := range v.targetedBy {
		sp, ok := v.emitted.get(fp)
		if !ok {
			continue
		}
		for _, ref := range refs {
			if sp.last > ref.tsUS {
				c.escalate(ref.attacker, v.src, echoTime(sp, ref.tsUS))
				if len(v.sensors) > 0 {
					a := c.sources[ref.attacker]
					if a.sensors == nil {
						a.sensors = make(map[string]bool, len(v.sensors))
					}
					for sn := range v.sensors {
						a.sensors[sn] = true
					}
				}
			}
		}
	}
}

// mergeLimit is the MaxSources setting for merge scratch correlators:
// effectively unbounded, so a merge never LRU-finalizes evidence
// mid-fold.
const mergeLimit = 1 << 30

// newMergeState builds a correlator shell for offline evidence math:
// same state, same fold code, no goroutine (nothing is published to
// it and Stop must not be called).
func newMergeState(ex *EvidenceExport) *Correlator {
	c := &Correlator{
		cfg: Config{
			WindowUS:        ex.WindowUS,
			FanoutThreshold: ex.FanoutThreshold,
			MaxSources:      mergeLimit,
			MaxDestinations: ex.Limits.MaxDestinations,
			MaxAlerts:       ex.Limits.MaxAlerts,
			MaxFingerprints: ex.Limits.MaxFingerprints,
			MaxVictims:      ex.Limits.MaxVictims,
		}.withDefaults(),
		sources: make(map[netip.Addr]*sourceState),
		lru:     list.New(),
		subs:    make(map[int]chan Incident),
	}
	// Unregistered histograms keep the fold path free of nil checks;
	// a scratch merge's latency observations are discarded with it.
	for st := StageRecon; st <= StagePropagation; st++ {
		c.stageLatUS[st] = telemetry.NewHistogram()
	}
	return c
}

// MergeExports federates two sensors' evidence: the union of their
// per-source evidence sets under the shared caps, with propagation
// re-derived across the merged evidence (closing links whose halves
// were observed by different sensors) and per-record provenance
// preserved. Commutative and idempotent — Merge(A,B)==Merge(B,A) and
// Merge(A,A)==A — because every constituent fold is; both exports
// must carry identical correlation parameters. The determinism
// guarantee is the correlator's own: byte-identical to a single
// sensor that saw the whole trace, for evidence within the caps.
func MergeExports(a, b *EvidenceExport) (*EvidenceExport, error) {
	if a.WindowUS != b.WindowUS || a.FanoutThreshold != b.FanoutThreshold || a.Limits != b.Limits {
		return nil, fmt.Errorf("incident: cannot merge exports with different correlation parameters: %d/%d/%+v vs %d/%d/%+v",
			a.WindowUS, a.FanoutThreshold, a.Limits, b.WindowUS, b.FanoutThreshold, b.Limits)
	}
	c := newMergeState(a)
	if err := c.Import(a); err != nil {
		return nil, err
	}
	if err := c.Import(b); err != nil {
		return nil, err
	}
	merged := c.exportMerged()
	merged.Sensors = unionSensors(a.Sensors, b.Sensors)
	merged.Classifier = MergeClassifierEvidence(a.Classifier, b.Classifier)
	merged.Lineage = lineage.Merge(a.Lineage, b.Lineage)
	return merged, nil
}

// exportMerged renders a merge correlator's state without stamping a
// local sensor: provenance comes entirely from the merged records.
func (c *Correlator) exportMerged() *EvidenceExport {
	b := new(ExportBuffer)
	c.mu.Lock()
	for _, s := range c.sources {
		b.copySource(s, "", false)
	}
	c.mu.Unlock()
	return b.render(c, nil)
}

func unionSensors(a, b []string) []string {
	seen := make(map[string]bool, len(a)+len(b))
	var out []string
	for _, s := range a {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	for _, s := range b {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}

// DeriveIncidents renders an export's incident set exactly as a live
// correlator holding the same evidence would: re-derive propagation,
// derive each source's stage, drop NONE, and sort under the same
// order Correlator.Incidents uses — so a federated report is
// byte-comparable with a single sensor's live output. Errors on an
// export whose correlation parameters no correlator could run
// (zeroed window, threshold or caps — possible only for hand-built
// exports; the wire decoder rejects such headers).
func DeriveIncidents(ex *EvidenceExport) ([]Incident, error) {
	c := newMergeState(ex)
	if err := c.Import(ex); err != nil {
		return nil, err
	}
	return c.Incidents(), nil
}

// Package lineage reconstructs outbreak ancestry from structural
// payload fingerprints — the IPP-style tracing layer over the
// federated evidence plane.
//
// The correlator's PROPAGATION link requires an identical 128-bit
// payload fingerprint, so a polymorphic worm that re-encodes itself at
// every hop breaks the exact-match chain. The identifiable-parent
// property literature supplies the fix: treat the components a mutation
// engine cannot cheaply randomize as code symbols, and identify
// parents over the set of observed artifacts. Here the symbol is the
// frame's structural sketch (sem.Sketch): the emulator-decoded tail is
// the grouping key — a self-decrypting payload must reproduce its
// cleartext to run, whatever the encoder did to the bytes on the wire
// — while the template and statement symbols decorate edges with
// confidence.
//
// The package keeps the evidence plane's determinism contract: an
// Observation is keyed by its exact fingerprint and every fold is a
// minimum under a total order or a set union, so any sequence of
// Observe/Import calls over the same underlying observations converges
// to the same canonical Export — and Trace is a pure function of that
// export. Shard counts, federation order and merge bracketing cannot
// change the rendered ancestry.
package lineage

import (
	"net/netip"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"semnids/internal/core"
	"semnids/internal/sem"
	"semnids/internal/telemetry"
)

// Observation is one distinct hostile payload as first witnessed: the
// exact wire identity, its structural symbols, and the flow that first
// delivered it. The exact fingerprint is the key; everything else
// folds deterministically (the lexicographically smallest
// (FirstUS, Src, Dst) witness wins wholesale, sensor sets union).
type Observation struct {
	// Exact is the 128-bit fingerprint of the frame bytes — this
	// observation's identity.
	Exact core.Fingerprint `json:"exact"`

	// Tail is the fingerprint of the emulator-decoded tail, in the
	// same keyspace as exact fingerprints. Observations sharing a Tail
	// are re-encodings of the same cleartext — one payload family.
	Tail core.Fingerprint `json:"tail"`

	// TemplateSym and StmtsSym are the sketch's behavior-class and
	// decode-chain symbols, used as edge-confidence evidence.
	TemplateSym uint64 `json:"template_sym,omitempty"`
	StmtsSym    uint64 `json:"stmts_sym,omitempty"`

	// FirstUS, Src and Dst describe the earliest witnessed delivery of
	// this exact payload (trace time; Src delivered it to Dst).
	FirstUS uint64     `json:"first_us"`
	Src     netip.Addr `json:"src"`
	Dst     netip.Addr `json:"dst"`

	// Sensors is the provenance set: every sensor that observed this
	// payload. Sorted.
	Sensors []string `json:"sensors,omitempty"`
}

// TailFingerprint converts a sketch's decoded-tail hash into the
// shared 128-bit fingerprint keyspace (zero if the sketch has no
// tail).
func TailFingerprint(sk sem.Sketch) core.Fingerprint {
	if !sk.HasTail() {
		return core.Fingerprint{}
	}
	return core.Fingerprint{A: sk.TailA, B: sk.TailB, N: sk.TailN}
}

// lessFP is the total order on fingerprints used everywhere in this
// package (identical to the correlator's).
func lessFP(a, b core.Fingerprint) bool {
	if a.A != b.A {
		return a.A < b.A
	}
	if a.B != b.B {
		return a.B < b.B
	}
	return a.N < b.N
}

// witnessLess orders observations by earliest witness: (FirstUS, Src,
// Dst, Exact). A strict total order (Exact is unique per observation
// set), so min-folds and sorts under it are deterministic.
func witnessLess(a, b *Observation) bool {
	if a.FirstUS != b.FirstUS {
		return a.FirstUS < b.FirstUS
	}
	if a.Src != b.Src {
		return a.Src.Less(b.Src)
	}
	if a.Dst != b.Dst {
		return a.Dst.Less(b.Dst)
	}
	return lessFP(a.Exact, b.Exact)
}

// foldInto merges src into dst (same Exact): the earliest witness wins
// the delivery fields wholesale, sensors union. Commutative,
// associative and idempotent — the min of a total order plus a set
// union.
func foldInto(dst, src *Observation) {
	if witnessLess(src, dst) {
		dst.Tail = src.Tail
		dst.TemplateSym = src.TemplateSym
		dst.StmtsSym = src.StmtsSym
		dst.FirstUS = src.FirstUS
		dst.Src = src.Src
		dst.Dst = src.Dst
	}
	dst.Sensors = unionSorted(dst.Sensors, src.Sensors)
}

// unionSorted merges two sorted string sets into a sorted set.
func unionSorted(a, b []string) []string {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return append([]string(nil), b...)
	}
	out := make([]string, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		default:
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// DefaultStoreCap bounds a sensor-local store; MergeCap bounds a
// merged observation set. Both retain the smallest observations under
// witnessLess — keep-K-minima under a total order is associative, so
// capping preserves the determinism contract (for outbreaks within
// the cap, which is every test and any plausible incident window).
const (
	DefaultStoreCap = 4096
	MergeCap        = 65536
)

// StoreConfig parameterizes a Store.
type StoreConfig struct {
	// Sensor stamps locally-witnessed observations' provenance.
	Sensor string
	// Cap bounds tracked observations (default DefaultStoreCap).
	Cap int
	// Telemetry receives the lineage series (observations folded,
	// observations tracked). Nil creates a private registry.
	Telemetry *telemetry.Registry
}

// Store accumulates a sensor's lineage observations. Observe is called
// from shard goroutines (via the engine's event tap) and Export from
// the sink goroutine, hence the mutex; the hot path is one map lookup
// for frames that carry a sketch and zero work for frames that do not.
type Store struct {
	sensor string
	cap    int

	mu  sync.Mutex
	obs map[core.Fingerprint]*Observation

	folds atomic.Uint64
}

// NewStore builds a store.
func NewStore(cfg StoreConfig) *Store {
	if cfg.Cap <= 0 {
		cfg.Cap = DefaultStoreCap
	}
	if cfg.Sensor == "" {
		cfg.Sensor = "sensor"
	}
	s := &Store{
		sensor: cfg.Sensor,
		cap:    cfg.Cap,
		obs:    make(map[core.Fingerprint]*Observation),
	}
	reg := cfg.Telemetry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	reg.CounterFunc("semnids_lineage_observations_total", "Lineage observations folded into the store.", s.folds.Load)
	reg.GaugeFunc("semnids_lineage_tracked", "Distinct payloads tracked by the lineage store.", func() int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return int64(len(s.obs))
	})
	return s
}

// Observe folds one engine event. Only fingerprint/alert events whose
// sketch recovered a decoded tail contribute — everything else is a
// cheap early return.
func (s *Store) Observe(ev core.Event) {
	if !ev.Sketch.HasTail() || ev.Fingerprint.IsZero() {
		return
	}
	if ev.Kind != core.EventFingerprint && ev.Kind != core.EventAlert {
		return
	}
	o := Observation{
		Exact:       ev.Fingerprint,
		Tail:        TailFingerprint(ev.Sketch),
		TemplateSym: ev.Sketch.Template,
		StmtsSym:    ev.Sketch.Stmts,
		FirstUS:     ev.TimestampUS,
		Src:         ev.Src,
		Dst:         ev.Dst,
		Sensors:     []string{s.sensor},
	}
	s.mu.Lock()
	s.fold(&o)
	s.mu.Unlock()
}

// Import folds a federated observation set (from another sensor's
// export, or a merged aggregate) into the store. Idempotent.
func (s *Store) Import(obs []Observation) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range obs {
		o := obs[i]
		o.Sensors = append([]string(nil), o.Sensors...)
		s.fold(&o)
	}
}

// fold merges one observation under the cap. Called with mu held.
func (s *Store) fold(o *Observation) {
	s.folds.Add(1)
	if cur, ok := s.obs[o.Exact]; ok {
		foldInto(cur, o)
		return
	}
	if len(s.obs) >= s.cap {
		// Displace the largest retained witness if the newcomer is
		// smaller — keep-K-minima, the same discipline as the
		// correlator's evidence caps.
		var worst *Observation
		for _, cur := range s.obs {
			if worst == nil || witnessLess(worst, cur) {
				worst = cur
			}
		}
		if !witnessLess(o, worst) {
			return
		}
		delete(s.obs, worst.Exact)
	}
	cp := *o
	s.obs[o.Exact] = &cp
}

// Export snapshots the store as a canonical observation list, sorted
// by witness order, into fresh storage: ExportTo a new buffer.
func (s *Store) Export() []Observation {
	return s.ExportTo(new(ExportBuffer))
}

// ExportBuffer is caller-owned storage for ExportTo; a snapshot stays
// valid until the buffer's next use, and reusing one buffer makes
// repeated snapshots allocation-free once it has grown.
type ExportBuffer struct {
	obs     []Observation
	sensors []string
}

// ExportTo is Export into b: the observations are copied under the
// store lock and sorted after it is released.
func (s *Store) ExportTo(b *ExportBuffer) []Observation {
	b.obs, b.sensors = b.obs[:0], b.sensors[:0]
	s.mu.Lock()
	for _, o := range s.obs {
		cp := *o
		n := len(b.sensors)
		b.sensors = append(b.sensors, o.Sensors...)
		cp.Sensors = nil
		if len(b.sensors) > n {
			cp.Sensors = b.sensors[n:len(b.sensors):len(b.sensors)]
		}
		b.obs = append(b.obs, cp)
	}
	s.mu.Unlock()
	slices.SortFunc(b.obs, func(x, y Observation) int {
		if witnessLess(&x, &y) {
			return -1
		}
		if witnessLess(&y, &x) {
			return 1
		}
		return 0
	})
	return b.obs
}

// Len reports distinct tracked payloads.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.obs)
}

// Merge unions two canonical observation lists into one, under
// MergeCap. Commutative, associative and idempotent on the canonical
// form: Merge(A,B) == Merge(B,A) and Merge(A,A) == A.
func Merge(a, b []Observation) []Observation {
	if len(a) == 0 && len(b) == 0 {
		return nil
	}
	byExact := make(map[core.Fingerprint]*Observation, len(a)+len(b))
	fold := func(obs []Observation) {
		for i := range obs {
			o := obs[i]
			o.Sensors = append([]string(nil), o.Sensors...)
			if cur, ok := byExact[o.Exact]; ok {
				foldInto(cur, &o)
			} else {
				cp := o
				byExact[o.Exact] = &cp
			}
		}
	}
	fold(a)
	fold(b)
	out := make([]Observation, 0, len(byExact))
	for _, o := range byExact {
		out = append(out, *o)
	}
	sort.Slice(out, func(i, j int) bool { return witnessLess(&out[i], &out[j]) })
	if len(out) > MergeCap {
		out = out[:MergeCap]
	}
	return out
}

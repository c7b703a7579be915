package sem

import (
	"bytes"
	"fmt"
	"sync"

	"semnids/internal/ir"
	"semnids/internal/x86"
)

// Analyzer runs a template set over extracted binary frames. It is the
// final stage of the NIDS pipeline (component (e) in the paper's
// architecture).
//
// An Analyzer holds only configuration; AnalyzeFrame draws its working
// state (decode cache, lifted program, matcher tables) from a pool, so
// one long-lived Analyzer may be shared by any number of concurrent
// workers.
type Analyzer struct {
	Templates []*Template

	// SweepOffsets are the starting offsets tried when disassembling a
	// frame; x86 decoding self-synchronizes quickly, so a handful of
	// offsets covers misaligned extraction.
	SweepOffsets []int

	// ReturnAddrDetect enables the data-level detector for
	// return-address regions (repeated dwords equal modulo their
	// least significant byte pointing into plausible address ranges).
	ReturnAddrDetect bool

	// MinReturnAddrRun is the number of repeated return-address
	// dwords required (default 4).
	MinReturnAddrRun int

	// DisableSweepPrune turns off the sweep-start viability pass (the
	// per-offset pruning described below) — the ablation baseline, and
	// the reference the differential tests compare against.
	DisableSweepPrune bool

	// Sweep-start viability state, built once per template set by
	// NewAnalyzer: pruneTable encodes each mandatory restricted-
	// vocabulary statement as a statement bit and each template as the
	// conjunction of its statement bits; tplBit[i] is the viability
	// bit of Templates[i] (0 = the template could not be encoded and
	// is treated as viable everywhere). A sweep offset from which no
	// flow-unbroken run can satisfy any candidate's conjunction
	// (x86.DecodeCache.ViableStarts) is skipped without lifting or
	// matching.
	pruneTable *x86.ViabilityTable
	tplBit     []uint64
}

// NewAnalyzer returns an analyzer over the given templates with
// default settings. The templates are compiled eagerly, so an invalid
// template (more than maxTemplateVars distinct variables) panics here,
// in the constructing goroutine, rather than on the first analyzed
// frame inside a worker.
func NewAnalyzer(tpls []*Template) *Analyzer {
	for _, t := range tpls {
		t.Compile()
	}
	a := &Analyzer{
		Templates:        tpls,
		SweepOffsets:     []int{0, 1, 2, 3},
		ReturnAddrDetect: true,
		MinReturnAddrRun: 4,
	}
	a.buildPrune()
	return a
}

// buildPrune assigns one statement bit to each mandatory restricted-
// vocabulary statement across the template set (up to 64 statements
// and 64 templates) and builds the viability table driving the
// sweep-start pass. A template that got no statement bits
// (unrestricted vocabulary, or bit budget exhausted) ends with
// tplBit == 0, which makes every offset viable whenever it is a
// candidate — pruning can only ever skip offsets that provably cannot
// match.
func (a *Analyzer) buildPrune() {
	var masks []x86.OpSet
	var reqs []uint64
	a.tplBit = make([]uint64, len(a.Templates))
	for i, tpl := range a.Templates {
		if len(reqs) >= 64 {
			break
		}
		ct := tpl.compiled()
		var req uint64
		for j := range ct.opNeeds {
			if len(masks) >= 64 {
				break
			}
			// A statement whose vocabulary includes a run-breaking
			// opcode could be satisfied by the breaker itself at a run
			// boundary, which the viability pass cannot see (breakers
			// reset the run without contributing bits). Skip such
			// statements — the template keeps its other bits and the
			// prune stays conservative.
			if ct.opNeeds[j].Has(x86.BAD) || ct.opNeeds[j].Has(x86.RET) || ct.opNeeds[j].Has(x86.HLT) {
				continue
			}
			req |= 1 << uint(len(masks))
			masks = append(masks, ct.opNeeds[j])
		}
		if req == 0 {
			continue
		}
		a.tplBit[i] = 1 << uint(len(reqs))
		reqs = append(reqs, req)
	}
	if len(masks) > 0 {
		a.pruneTable = x86.NewViabilityTable(masks, reqs)
	}
}

// frameScratch is the reusable per-AnalyzeFrame working state: the
// memoized decode cache, the lifted program, the matcher's index
// tables and the small bookkeeping slices. Pooling it makes the whole
// hot path allocation-free in steady state.
type frameScratch struct {
	cache x86.DecodeCache
	prog  ir.Program
	m     matcher
	seen  []string
	cands []candidate
}

// candidate pairs a template with its compiled form for the offset
// loop, after the frame-level prefilter. bit carries the template's
// viability bit for the sweep-start prune (0 = always viable).
type candidate struct {
	tpl *Template
	ct  *compiledTemplate
	bit uint64
}

var scratchPool = sync.Pool{New: func() any { return new(frameScratch) }}

// AnalyzeFrame disassembles and lifts the frame at several offsets and
// matches every template against both the threaded (execution) order
// and the raw sweep order, plus the data-level detectors. At most one
// detection per template name is reported.
func (a *Analyzer) AnalyzeFrame(frame []byte) []Detection {
	return a.AnalyzeFrameCached(frame, nil)
}

// AnalyzeFrameCached is AnalyzeFrame reusing a decode cache that has
// already (partially) swept the same frame — typically built by the
// extraction stage's code-ratio estimate — so that extraction and
// analysis share one decode. cache may be nil, or must have been
// created over the same frame bytes.
func (a *Analyzer) AnalyzeFrameCached(frame []byte, cache *x86.DecodeCache) []Detection {
	sc := scratchPool.Get().(*frameScratch)
	defer scratchPool.Put(sc)
	if cache == nil {
		sc.cache.Reset(frame)
		cache = &sc.cache
	}

	var out []Detection
	seen := sc.seen[:0]
	defer func() { sc.seen = seen[:0] }()
	seenName := func(name string) bool {
		for _, s := range seen {
			if s == name {
				return true
			}
		}
		return false
	}
	record := func(d Detection) {
		if !seenName(d.Template) {
			seen = append(seen, d.Template)
			out = append(out, d)
		}
	}

	// Frame-level prefilter: a template whose mandatory SFrameData
	// bytes are absent from the frame cannot match at any offset or
	// order, so it is rejected with one bytes.Contains per byte string
	// instead of once per offset × order search. Distinct template
	// names are counted so the offset loop can stop as soon as every
	// name has a detection.
	cands := sc.cands[:0]
	defer func() { sc.cands = cands[:0] }()
	names := 0
candidates:
	for ti, tpl := range a.Templates {
		ct := tpl.compiled()
		for _, need := range ct.frameNeeds {
			if !bytes.Contains(frame, need) {
				continue candidates
			}
		}
		dup := false
		for _, c := range cands {
			if c.tpl.Name == tpl.Name {
				dup = true
				break
			}
		}
		if !dup {
			names++
		}
		var bit uint64
		if ti < len(a.tplBit) {
			bit = a.tplBit[ti]
		}
		cands = append(cands, candidate{tpl, ct, bit})
	}

	// Sweep-start viability: before paying for a sweep's lift and
	// match work, the memoized chain check (x86.DecodeCache.Viable)
	// decides whether any flow-unbroken run reachable from the offset
	// could still satisfy some candidate's mandatory-statement
	// conjunction; non-viable offsets skip the expensive stages
	// entirely, and the check shares every decoded byte with the
	// sweeps themselves. Disabled when any candidate could not be
	// encoded (tplBit 0 would make every offset viable anyway).
	pruneWant := uint64(0)
	if !a.DisableSweepPrune && a.pruneTable != nil && len(a.tplBit) == len(a.Templates) {
		for i := range cands {
			if cands[i].bit == 0 {
				pruneWant = 0
				break
			}
			pruneWant |= cands[i].bit
		}
	}

	for _, off := range a.SweepOffsets {
		if off >= len(frame) {
			break
		}
		if len(cands) == 0 || len(seen) == names {
			break
		}
		if pruneWant != 0 && !cache.Viable(off, a.pruneTable, pruneWant) {
			continue
		}
		sc.prog.Reuse(cache.Sweep(off))
		orders := [2]struct {
			name  string
			nodes []ir.Node
		}{
			{"threaded", sc.prog.Nodes},
			{"raw", sc.prog.Raw},
		}
		for _, ord := range orders {
			if len(ord.nodes) == 0 {
				continue
			}
			sc.m.reset(ord.nodes, sc.prog.Insts, frame)
			for _, c := range cands {
				if seenName(c.tpl.Name) {
					continue
				}
				if b, idxs, ok := sc.m.match(c.ct); ok {
					record(makeDetection(c.tpl, c.ct, ord.name, &sc.m, b, idxs))
				}
			}
		}
	}

	if a.ReturnAddrDetect {
		if d, ok := a.detectReturnAddrRegion(frame); ok {
			record(d)
		}
	}
	return out
}

func makeDetection(tpl *Template, ct *compiledTemplate, order string, m *matcher, b *binding, idxs []int) Detection {
	d := Detection{
		Template:    tpl.Name,
		Description: tpl.Description,
		Severity:    tpl.Severity,
		Order:       order,
		Bindings:    make(map[string]string),
	}
	for _, i := range idxs {
		d.Addrs = append(d.Addrs, int(m.addrs[i]))
	}
	for id, name := range ct.varNames {
		if b.bound&(1<<id) != 0 {
			d.Bindings[name] = b.regs[id].String()
		}
		if b.keyed&(1<<id) != 0 {
			d.Bindings[name] = fmt.Sprintf("%#x", b.keys[id])
		}
	}
	return d
}

// addressRanges that a return-address region plausibly points into:
// the process stack and low loaded-module ranges on the platforms the
// paper's exploits target.
var returnAddrRanges = [][2]uint32{
	{0xbf000000, 0xc0000000}, // Linux stack
	{0x08040000, 0x08100000}, // Linux exec image vicinity
	{0x77000000, 0x78200000}, // Windows system DLLs (incl. msvcrt)
	{0x7ffd0000, 0x80000000}, // Windows PEB/TEB region
}

func plausibleReturnAddr(v uint32) bool {
	for _, r := range returnAddrRanges {
		if v >= r[0] && v < r[1] {
			return true
		}
	}
	return false
}

// detectReturnAddrRegion finds runs of dwords that are equal modulo
// their least significant byte and point into a plausible address
// range — the invariant the paper identifies in the return-address
// region of buffer-overflow exploits (only the LSB can vary, since the
// return address must land inside the injected buffer).
func (a *Analyzer) detectReturnAddrRegion(frame []byte) (Detection, bool) {
	minRun := a.MinReturnAddrRun
	if minRun <= 0 {
		minRun = 4
	}
	// Try all four alignments; exploits rarely align their RA region
	// with the start of the extracted frame.
	for align := 0; align < 4; align++ {
		run := 0
		var runBase uint32
		var runStart int
		for i := align; i+4 <= len(frame); i += 4 {
			v := uint32(frame[i]) | uint32(frame[i+1])<<8 |
				uint32(frame[i+2])<<16 | uint32(frame[i+3])<<24
			base := v &^ 0xff
			if plausibleReturnAddr(v) && (run == 0 || base == runBase) {
				if run == 0 {
					runBase = base
					runStart = i
				}
				run++
				if run >= minRun {
					return Detection{
						Template:    "return-address-region",
						Description: "repeated return-address dwords equal modulo LSB pointing into a plausible address range",
						Severity:    "medium",
						Addrs:       []int{runStart},
						Order:       "data",
						Bindings: map[string]string{
							"base": fmt.Sprintf("%#x", runBase),
							"run":  fmt.Sprintf("%d", run),
						},
					}, true
				}
				continue
			}
			run = 0
			if plausibleReturnAddr(v) {
				runBase = base
				runStart = i
				run = 1
			}
		}
	}
	return Detection{}, false
}

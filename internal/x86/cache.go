package x86

// DecodeCache memoizes linear-sweep decoding over a single frame.
//
// The semantic analyzer sweeps the same bytes from several start
// offsets (and the extraction stage estimates a code ratio over the
// same region before the analyzer sees it). x86 linear sweeps
// self-synchronize: a sweep starting at offset k converges onto the
// offset-0 instruction stream within a few bytes, after which every
// subsequent instruction is identical. The cache exploits both forms
// of redundancy:
//
//   - each byte position is decoded at most once, no matter how many
//     sweep offsets visit it;
//   - once a sweep reaches a position already on the first
//     materialized sweep's chain, its remaining instructions are
//     copied from that chain in one append instead of being re-walked
//     position by position.
//
// A DecodeCache is not safe for concurrent use. Slices returned by
// Sweep share underlying storage with the cache and with each other
// and must be treated as read-only; they remain valid until Reset.
type DecodeCache struct {
	b []byte

	// idxAt[p] is the index into store of the instruction decoded at
	// byte position p, or -1 if position p has not been decoded yet.
	idxAt []int32

	// store holds every distinct decoded instruction, append-only.
	store []Inst

	// canon is the first fully materialized sweep (the canonical
	// chain); canonAt[p] is the index within canon of the instruction
	// at position p, or -1 if p is not on the canonical chain.
	canon   []Inst
	canonAt []int32

	// sweeps memoizes the result slice per requested start offset.
	sweeps map[int][]Inst

	// used holds the divergent-prefix result slices handed out for the
	// current frame; spare recycles their storage across Resets so a
	// pooled cache sweeps successive frames without reallocating.
	used  [][]Inst
	spare [][]Inst

	// viaChain/segChain memoize the canonical chain's sweep-start
	// viability tables (see Viable); viaFor records which table built
	// them.
	viaChain []uint64
	segChain []uint64
	viaFor   *ViabilityTable
}

// NewDecodeCache returns a cache over b. No decoding happens until the
// first Sweep or CodeRatio call.
func NewDecodeCache(b []byte) *DecodeCache {
	return &DecodeCache{b: b}
}

// Bytes returns the frame the cache decodes.
func (c *DecodeCache) Bytes() []byte { return c.b }

// Reset rebinds the cache to a new frame, retaining allocated storage
// so that a pooled cache analyzes successive frames without
// reallocating its position tables.
func (c *DecodeCache) Reset(b []byte) {
	c.b = b
	c.store = c.store[:0]
	c.canon = c.canon[:0]
	c.idxAt = resetIndex(c.idxAt, len(b))
	c.canonAt = resetIndex(c.canonAt, len(b))
	clear(c.sweeps)
	c.spare = append(c.spare, c.used...)
	c.used = c.used[:0]
	c.viaFor = nil
}

// resetIndex returns idx resized to n entries, all -1.
func resetIndex(idx []int32, n int) []int32 {
	if cap(idx) < n {
		idx = make([]int32, n)
	} else {
		idx = idx[:n]
	}
	for i := range idx {
		idx[i] = -1
	}
	return idx
}

// ensureIndexed allocates the position tables on first use, so that
// constructing a cache that is never swept costs nothing.
func (c *DecodeCache) ensureIndexed() {
	if len(c.idxAt) != len(c.b) {
		c.idxAt = resetIndex(c.idxAt, len(c.b))
		c.canonAt = resetIndex(c.canonAt, len(c.b))
	}
}

// instAt decodes the instruction at byte position pos, memoized.
func (c *DecodeCache) instAt(pos int) int32 {
	if idx := c.idxAt[pos]; idx >= 0 {
		return idx
	}
	idx := int32(len(c.store))
	c.store = append(c.store, Inst{})
	if in := &c.store[idx]; decodeInto(in, c.b, pos) != nil {
		// Same undecodable-byte representation as Sweep.
		*in = badInst(c.b, pos)
	}
	c.idxAt[pos] = idx
	return idx
}

// Sweep linearly disassembles the frame starting at offset start,
// byte-identical to the package-level Sweep but decoding each position
// at most once across all offsets. The returned slice is shared and
// read-only.
func (c *DecodeCache) Sweep(start int) []Inst {
	if start >= len(c.b) {
		return nil
	}
	if s, ok := c.sweeps[start]; ok {
		return s
	}
	c.ensureIndexed()

	var out []Inst
	if len(c.canon) == 0 {
		// First sweep: materialize the canonical chain and index it.
		for pos := start; pos < len(c.b); {
			in := &c.store[c.instAt(pos)]
			c.canonAt[pos] = int32(len(c.canon))
			c.canon = append(c.canon, *in)
			pos += int(in.Len)
		}
		out = c.canon
	} else if i := c.canonAt[start]; i >= 0 {
		// The start itself is on the canonical chain: share its tail.
		out = c.canon[i:]
	} else {
		// Decode the divergent prefix, then bulk-copy the shared tail
		// from the point of self-synchronization.
		if n := len(c.spare); n > 0 {
			out = c.spare[n-1][:0]
			c.spare = c.spare[:n-1]
		}
		pos := start
		for pos < len(c.b) {
			if i := c.canonAt[pos]; i >= 0 {
				out = append(out, c.canon[i:]...)
				break
			}
			in := &c.store[c.instAt(pos)]
			out = append(out, *in)
			pos += int(in.Len)
		}
		c.used = append(c.used, out)
	}
	if c.sweeps == nil {
		c.sweeps = make(map[int][]Inst, 8)
	}
	c.sweeps[start] = out
	return out
}

// CodeRatio estimates how much of the frame decodes as plausible
// instructions: the fraction of bytes covered by non-BAD instructions
// in a linear sweep from offset 0. The sweep is memoized, so a
// downstream analyzer sweeping the same frame reuses it.
func (c *DecodeCache) CodeRatio() float64 {
	if len(c.b) == 0 {
		return 0
	}
	good := 0
	insts := c.Sweep(0)
	for i := range insts {
		if insts[i].Op != BAD {
			good += int(insts[i].Len)
		}
	}
	return float64(good) / float64(len(c.b))
}

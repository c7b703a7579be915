package x86

import (
	"slices"
	"sync"
)

// Sweep linearly disassembles b starting at offset start. Undecodable
// bytes are represented as single-byte BAD instructions (with the raw
// byte in Args[0].Imm) so that the sweep always terminates and junk
// data interleaved with code does not abort analysis — the behaviour a
// disassembler needs when pointed at extracted network payload bytes.
//
// Callers sweeping one frame at several offsets should use a
// DecodeCache instead, which decodes each byte position at most once.
func Sweep(b []byte, start int) []Inst {
	var out []Inst
	for pos := start; pos < len(b); {
		in, err := Decode(b, pos)
		if err != nil {
			in = badInst(b, pos)
		}
		out = append(out, in)
		pos += int(in.Len)
	}
	return out
}

// badInst is the single-byte BAD marker standing for the undecodable
// byte at b[pos].
func badInst(b []byte, pos int) Inst {
	return Inst{
		Addr: int32(pos), Len: 1, Op: BAD,
		Args: [3]Operand{ImmOp(int64(b[pos]))},
	}
}

// SweepAll disassembles the whole buffer from offset 0.
func SweepAll(b []byte) []Inst { return Sweep(b, 0) }

// CodeRatio estimates how much of b decodes as plausible instructions:
// the fraction of bytes covered by non-BAD instructions in a linear
// sweep. Used by the extraction stage to decide whether a payload
// region plausibly contains machine code.
func CodeRatio(b []byte) float64 {
	if len(b) == 0 {
		return 0
	}
	insts := SweepAll(b)
	good := 0
	for i := range insts {
		if insts[i].Op != BAD {
			good += int(insts[i].Len)
		}
	}
	return float64(good) / float64(len(b))
}

// threadScratch holds the per-call tables ThreadOrder needs; pooled so
// the hot path does not reallocate them for every frame and offset.
type threadScratch struct {
	// byAddr maps instruction address -> index into insts (-1 = none).
	// It only grows, and is all -1 between calls: each call clears
	// just the entries it set.
	byAddr []int32
	seen   []bool
}

var threadPool = sync.Pool{New: func() any { return new(threadScratch) }}

// ThreadOrder recovers the execution order of instructions that have
// been shuffled with unconditional jmp chains (the "out-of-order code"
// obfuscation of Figure 1(c) in the paper). Starting from the first
// instruction, it follows straight-line flow, threads through
// unconditional jumps with known in-frame targets, and returns the
// instructions in execution order. Conditional branches (including
// loop) continue on the fall-through path, which matches how a
// decryption loop body executes on its first iteration.
//
// Each instruction is visited at most once; cycles (the loop back-edge)
// terminate the walk.
func ThreadOrder(insts []Inst) []Inst {
	idx := ThreadOrderAppend(nil, insts)
	out := make([]Inst, len(idx))
	for k, i := range idx {
		out[k] = insts[i]
	}
	return out
}

// ThreadOrderAppend appends the threaded execution order of insts to
// dst as positions into insts, and returns the extended slice. It is
// ThreadOrder without copying a single instruction, for hot paths that
// reuse buffers and keep reading the sweep in place.
func ThreadOrderAppend(dst []int32, insts []Inst) []int32 {
	if len(insts) == 0 {
		return dst
	}
	// Addresses are frame offsets; the largest is held by the last
	// instruction of a sweep, but insts may be any order, so scan.
	maxAddr := 0
	for i := range insts {
		if a := int(insts[i].Addr); a > maxAddr {
			maxAddr = a
		}
	}
	ts := threadPool.Get().(*threadScratch)
	if old := len(ts.byAddr); maxAddr >= old {
		ts.byAddr = slices.Grow(ts.byAddr, maxAddr+1-old)[:maxAddr+1]
		for i := old; i <= maxAddr; i++ {
			ts.byAddr[i] = -1
		}
	}
	if cap(ts.seen) < len(insts) {
		ts.seen = make([]bool, len(insts))
	} else {
		ts.seen = ts.seen[:len(insts)]
		clear(ts.seen)
	}
	for i := range insts {
		ts.byAddr[insts[i].Addr] = int32(i)
	}
	lookup := func(addr int32) (int, bool) {
		if addr < 0 || int(addr) > maxAddr {
			return 0, false
		}
		if j := ts.byAddr[addr]; j >= 0 {
			return int(j), true
		}
		return 0, false
	}

	i := 0
	for i >= 0 && i < len(insts) && !ts.seen[i] {
		ts.seen[i] = true
		in := &insts[i]
		if in.Op == JMP && in.HasTarget {
			// Thread through the jump without emitting it.
			j, ok := lookup(in.Target)
			if !ok {
				break
			}
			i = j
			continue
		}
		dst = append(dst, int32(i))
		if in.Op == RET || in.Op == HLT {
			break
		}
		if in.Op == CALL && in.HasTarget {
			// Follow in-frame calls: getpc idioms (jmp/call/pop) put
			// the decoder body at the call target.
			if j, ok := lookup(in.Target); ok {
				i = j
				continue
			}
		}
		i++
	}
	for i := range insts {
		ts.byAddr[insts[i].Addr] = -1
	}
	threadPool.Put(ts)
	return dst
}

// Package morph is a metamorphic mutation engine for position-
// independent IA-32 code: it decodes a code segment, applies
// semantics-preserving rewrites — equivalent instruction substitution
// and flag-and-register-neutral junk insertion — and re-lays the code
// out, re-fixing every relative branch (with short/near relaxation).
//
// It generalizes the obfuscations of the paper's Section 3 (Figure
// 1(b)/(c)) from hand-written decoder variants to a transformer that
// can mutate any payload in the corpus, and is used by the test suite
// to demonstrate that the semantic templates survive metamorphism that
// destroys every static byte signature.
package morph

import (
	"errors"
	"fmt"
	"math/rand"

	"semnids/internal/x86"
)

// Errors reported by Mutate.
var (
	ErrBadInput   = errors.New("morph: input contains undecodable bytes")
	ErrMidTarget  = errors.New("morph: branch targets mid-instruction")
	ErrRangeStuck = errors.New("morph: rel8-only branch out of range after mutation")
	ErrNoConverge = errors.New("morph: branch relaxation did not converge")
)

// Mutator applies metamorphic rewrites. Zero value is not usable; use
// New.
type Mutator struct {
	rng *rand.Rand

	// SubstProb is the probability of substituting an eligible
	// instruction with an equivalent sequence (default 0.5).
	SubstProb float64

	// JunkProb is the probability of inserting a junk instruction
	// before any given instruction (default 0.3).
	JunkProb float64
}

// New returns a seeded mutator.
func New(seed int64) *Mutator {
	return &Mutator{rng: rand.New(rand.NewSource(seed)), SubstProb: 0.5, JunkProb: 0.3}
}

// branch captures a relocated control transfer during relayout.
type branch struct {
	op     x86.Opcode
	cond   x86.Cond
	target int  // item index the branch jumps to (len(items) = end)
	near   bool // relaxed to the 4-byte-displacement form
}

// item is one output slot: either pre-encoded bytes or a branch.
type item struct {
	bytes []byte
	br    *branch
	addr  int // assigned during layout
}

// Mutate rewrites code, preserving its behavior. The input must
// decode cleanly (no data bytes interleaved) and every branch must
// target an instruction boundary (or one past the end).
func (m *Mutator) Mutate(code []byte) ([]byte, error) {
	insts := x86.SweepAll(code)
	addrToIdx := make(map[int32]int, len(insts))
	for i, in := range insts {
		if in.Op == x86.BAD {
			return nil, fmt.Errorf("%w (offset %d)", ErrBadInput, in.Addr)
		}
		addrToIdx[in.Addr] = i
	}
	addrToIdx[int32(len(code))] = len(insts)

	// Registers the code uses at all; junk prefers registers the code
	// already touches (stylistic) but must preserve everything, so
	// any register is actually safe for the neutral junk forms.
	var items []item
	// origin[i] = index into items of the first item emitted for
	// instruction i (branch targets resolve here).
	origin := make([]int, len(insts)+1)

	for i, in := range insts {
		origin[i] = len(items)
		// Junk before the instruction.
		if m.rng.Float64() < m.JunkProb {
			items = append(items, item{bytes: m.junk()})
		}
		if in.HasTarget {
			j, ok := addrToIdx[in.Target]
			if !ok {
				return nil, fmt.Errorf("%w (at %d -> %d)", ErrMidTarget, in.Addr, in.Target)
			}
			// CALL has no 2-byte form; it is always "near".
			items = append(items, item{br: &branch{
				op: in.Op, cond: in.Cond, target: j, near: in.Op == x86.CALL,
			}})
			continue
		}
		items = append(items, m.rewrite(in)...)
	}
	origin[len(insts)] = len(items)

	// Relaxation fixpoint: branches start short and only grow.
	for pass := 0; ; pass++ {
		if pass > len(items)+8 {
			return nil, ErrNoConverge
		}
		addr := 0
		for k := range items {
			items[k].addr = addr
			addr += m.itemSize(&items[k])
		}
		grown := false
		for k := range items {
			br := items[k].br
			if br == nil || br.near {
				continue
			}
			rel := items[origin[br.target]].addr
			if br.target == len(insts) {
				rel = addr
			}
			disp := rel - (items[k].addr + 2) // all short forms are 2 bytes
			if disp < -128 || disp > 127 {
				switch br.op {
				case x86.LOOP, x86.LOOPE, x86.LOOPNE, x86.JECXZ:
					return nil, ErrRangeStuck
				}
				br.near = true
				grown = true
			}
		}
		if !grown {
			break
		}
	}

	// Final emission.
	var out []byte
	end := items[len(items)-1].addr + m.itemSize(&items[len(items)-1])
	for k := range items {
		it := &items[k]
		if it.br == nil {
			out = append(out, it.bytes...)
			continue
		}
		targetAddr := end
		if it.br.target < len(insts) {
			targetAddr = items[origin[it.br.target]].addr
		}
		enc, err := x86.Encode(x86.Inst{
			Op: it.br.op, Cond: it.br.cond,
			HasTarget: true, Addr: int32(it.addr), Target: int32(targetAddr),
		})
		if err != nil {
			return nil, err
		}
		// Encode picks the form by range; pad if it chose short where
		// we reserved near (cannot happen: near displacement computed
		// from near-form layout keeps the distance) — but a branch
		// that fits short after others grew must be padded to keep
		// the layout stable.
		want := m.itemSize(it)
		for len(enc) < want {
			enc = append(enc, 0x90)
		}
		if len(enc) != want {
			return nil, fmt.Errorf("morph: branch size drift (%d != %d)", len(enc), want)
		}
		out = append(out, enc...)
	}
	return out, nil
}

func (m *Mutator) itemSize(it *item) int {
	if it.br == nil {
		return len(it.bytes)
	}
	if !it.br.near {
		return 2
	}
	if it.br.op == x86.JCC {
		return 6
	}
	return 5 // jmp/call near
}

// rewrite returns an equivalent encoding of in, sometimes substituted.
func (m *Mutator) rewrite(in x86.Inst) []item {
	emit := func(insts ...x86.Inst) []item {
		var its []item
		for _, x := range insts {
			b, err := x86.Encode(x)
			if err != nil {
				// Not encodable after substitution: fall back to the
				// original bytes.
				return nil
			}
			its = append(its, item{bytes: b})
		}
		return its
	}
	orig := func() []item {
		its := emit(in)
		if its == nil {
			// Should not happen for decodable input, but keep a
			// defensive raw fallback of a nop (never reached in tests).
			return []item{{bytes: []byte{0x90}}}
		}
		return its
	}

	if m.rng.Float64() >= m.SubstProb {
		return orig()
	}
	a0, a1 := in.Args[0], in.Args[1]
	switch in.Op {
	case x86.MOV:
		// mov r32, imm  ->  push imm / pop r32   (flag-neutral)
		if a0.Kind == x86.KindReg && a0.Reg.Size() == 4 && a1.Kind == x86.KindImm {
			if its := emit(
				x86.Inst{Op: x86.PUSH, Args: [3]x86.Operand{a1}},
				x86.Inst{Op: x86.POP, Args: [3]x86.Operand{a0}},
			); its != nil {
				return its
			}
		}
		// mov r32, r32  ->  push r2 / pop r1     (flag-neutral)
		if a0.Kind == x86.KindReg && a1.Kind == x86.KindReg &&
			a0.Reg.Size() == 4 && a1.Reg.Size() == 4 {
			if its := emit(
				x86.Inst{Op: x86.PUSH, Args: [3]x86.Operand{a1}},
				x86.Inst{Op: x86.POP, Args: [3]x86.Operand{a0}},
			); its != nil {
				return its
			}
		}
	case x86.PUSH:
		// push imm8-range values can widen: the encoder already picks
		// forms; substitute push imm -> mov onto stack? Requires esp
		// math; skip.
	}
	return orig()
}

// junk returns one flag-and-register-neutral filler instruction.
func (m *Mutator) junk() []byte {
	regs := []x86.Reg{x86.EAX, x86.ECX, x86.EDX, x86.EBX, x86.ESI, x86.EDI, x86.EBP}
	r := regs[m.rng.Intn(len(regs))]
	switch m.rng.Intn(4) {
	case 0: // nop
		return []byte{0x90}
	case 1: // mov r, r
		b, _ := x86.Encode(x86.Inst{Op: x86.MOV,
			Args: [3]x86.Operand{x86.RegOp(r), x86.RegOp(r)}})
		return b
	case 2: // lea r, [r+0]  (flag-neutral identity)
		b, _ := x86.Encode(x86.Inst{Op: x86.LEA,
			Args: [3]x86.Operand{x86.RegOp(r), x86.MemOp(x86.MemRef{Base: r, Scale: 1})}})
		return b
	default: // push r / pop r emitted as one unit
		b1, _ := x86.Encode(x86.Inst{Op: x86.PUSH, Args: [3]x86.Operand{x86.RegOp(r)}})
		b2, _ := x86.Encode(x86.Inst{Op: x86.POP, Args: [3]x86.Operand{x86.RegOp(r)}})
		return append(b1, b2...)
	}
}

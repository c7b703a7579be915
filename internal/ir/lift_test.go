package ir

import (
	"math/rand"
	"testing"
	"testing/quick"

	"semnids/internal/x86"
)

func liftAsm(t *testing.T, build func(a *x86.Asm)) *Program {
	t.Helper()
	a := x86.NewAsm()
	build(a)
	b, err := a.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return Lift(x86.SweepAll(b))
}

// last returns the final node of the threaded order.
func last(p *Program) *Node { return &p.Nodes[len(p.Nodes)-1] }

func TestConstantFoldingFigure1b(t *testing.T) {
	// mov ebx, 31h; add ebx, 64h  =>  ebx == 0x95 before the xor.
	p := liftAsm(t, func(a *x86.Asm) {
		a.MovRI(x86.EBX, 0x31).
			AddRI(x86.EBX, 0x64).
			I(x86.XOR, x86.MemOp(x86.MemRef{Base: x86.EAX, Size: 1, Scale: 1}), x86.RegOp(x86.BL))
	})
	xorNode := last(p)
	if in := p.Inst(xorNode); in.Op != x86.XOR {
		t.Fatalf("last inst = %v", in)
	}
	v, known := xorNode.ConstBefore(x86.BL)
	if !known || v != 0x95 {
		t.Errorf("BL before xor = (%#x, %v), want (0x95, true)", v, known)
	}
}

func TestXorZeroIdiom(t *testing.T) {
	p := liftAsm(t, func(a *x86.Asm) {
		a.XorRR(x86.EAX, x86.EAX).
			I(x86.MOV, x86.RegOp(x86.AL), x86.ImmOp(0xb)).
			IntN(0x80)
	})
	intNode := last(p)
	v, known := intNode.ConstBefore(x86.EAX)
	if !known || v != 0xb {
		t.Errorf("EAX before int 0x80 = (%#x, %v), want (0xb, true)", v, known)
	}
}

func TestPushPopConstant(t *testing.T) {
	p := liftAsm(t, func(a *x86.Asm) {
		a.PushI(0xb).
			PopR(x86.EAX).
			IntN(0x80)
	})
	intNode := last(p)
	v, known := intNode.ConstBefore(x86.EAX)
	if !known || v != 0xb {
		t.Errorf("EAX = (%#x, %v), want (0xb, true)", v, known)
	}
}

func TestPushPopThroughRegister(t *testing.T) {
	p := liftAsm(t, func(a *x86.Asm) {
		a.MovRI(x86.EDX, 0x68732f2f). // "//sh"
						PushR(x86.EDX).
						PopR(x86.EBX).
						Nop()
	})
	n := last(p)
	v, known := n.ConstBefore(x86.EBX)
	if !known || v != 0x68732f2f {
		t.Errorf("EBX = (%#x, %v)", v, known)
	}
}

func TestHighLowByteTracking(t *testing.T) {
	p := liftAsm(t, func(a *x86.Asm) {
		a.XorRR(x86.ECX, x86.ECX).
			I(x86.MOV, x86.RegOp(x86.CH), x86.ImmOp(0x12)).
			I(x86.MOV, x86.RegOp(x86.CL), x86.ImmOp(0x34)).
			Nop()
	})
	n := last(p)
	v, known := n.ConstBefore(x86.ECX)
	if !known || v != 0x1234 {
		t.Errorf("ECX = (%#x, %v), want (0x1234, true)", v, known)
	}
}

func TestNotFolding(t *testing.T) {
	// ADMmutate alternate scheme builds keys with mov/or/and/not.
	p := liftAsm(t, func(a *x86.Asm) {
		a.MovRI(x86.EDX, 0x00ff00ff).
			I(x86.OR, x86.RegOp(x86.EDX), x86.ImmOp(0x0f000f00)).
			I(x86.AND, x86.RegOp(x86.EDX), x86.ImmOp(0x0fff0fff)).
			I(x86.NOT, x86.RegOp(x86.EDX)).
			Nop()
	})
	n := last(p)
	want := ^(uint32(0x00ff00ff) | 0x0f000f00) | ^uint32(0x0fff0fff)
	want = ^((uint32(0x00ff00ff) | 0x0f000f00) & 0x0fff0fff)
	v, known := n.ConstBefore(x86.EDX)
	if !known || v != want {
		t.Errorf("EDX = (%#x, %v), want (%#x, true)", v, known, want)
	}
}

func TestUnknownAfterSyscall(t *testing.T) {
	p := liftAsm(t, func(a *x86.Asm) {
		a.MovRI(x86.EAX, 0xb).
			IntN(0x80).
			Nop()
	})
	n := last(p)
	if _, known := n.ConstBefore(x86.EAX); known {
		t.Error("EAX should be unknown after int 0x80")
	}
}

func TestXchgSwapsKnowledge(t *testing.T) {
	p := liftAsm(t, func(a *x86.Asm) {
		a.MovRI(x86.EAX, 7).
			I(x86.XCHG, x86.RegOp(x86.EAX), x86.RegOp(x86.ESI)).
			Nop()
	})
	n := last(p)
	if _, known := n.ConstBefore(x86.EAX); known {
		t.Error("EAX should be unknown after xchg with unknown ESI")
	}
	v, known := n.ConstBefore(x86.ESI)
	if !known || v != 7 {
		t.Errorf("ESI = (%#x, %v), want (7, true)", v, known)
	}
}

func TestAdvanceDetection(t *testing.T) {
	cases := []struct {
		build func(a *x86.Asm)
		fam   x86.Reg
		delta int64
	}{
		{func(a *x86.Asm) { a.IncR(x86.EAX) }, x86.EAX, 1},
		{func(a *x86.Asm) { a.DecR(x86.ESI) }, x86.ESI, -1},
		{func(a *x86.Asm) { a.AddRI(x86.EAX, 1) }, x86.EAX, 1},
		{func(a *x86.Asm) { a.SubRI(x86.EDI, 4) }, x86.EDI, -4},
		{func(a *x86.Asm) {
			a.I(x86.LEA, x86.RegOp(x86.EAX), x86.MemOp(x86.MemRef{Base: x86.EAX, Disp: 1, Scale: 1}))
		}, x86.EAX, 1},
		{func(a *x86.Asm) {
			a.MovRI(x86.EBX, 1).AddRI(x86.EBX, 0).I(x86.ADD, x86.RegOp(x86.EAX), x86.RegOp(x86.EBX))
		}, x86.EAX, 1},
	}
	for i, c := range cases {
		p := liftAsm(t, c.build)
		n := last(p)
		fam, delta, ok := n.Advance(p.Inst(n))
		if !ok || fam.Family() != c.fam || delta != c.delta {
			t.Errorf("case %d: Advance() = (%v, %d, %v), want (%v, %d, true)",
				i, fam, delta, ok, c.fam, c.delta)
		}
	}
	// Negative case: mov is not an advance.
	p := liftAsm(t, func(a *x86.Asm) { a.MovRI(x86.EAX, 5) })
	if _, _, ok := last(p).Advance(p.Inst(last(p))); ok {
		t.Error("mov should not be an advance")
	}
}

func TestDefsUses(t *testing.T) {
	p := liftAsm(t, func(a *x86.Asm) {
		a.I(x86.XOR, x86.MemOp(x86.MemRef{Base: x86.EAX, Size: 1, Scale: 1}), x86.RegOp(x86.BL))
	})
	n := &p.Nodes[0]
	if !n.WritesMem || !n.ReadsMem {
		t.Error("xor [eax], bl must read and write memory")
	}
	if !n.Uses.Has(x86.EAX) || !n.Uses.Has(x86.EBX) {
		t.Errorf("uses = %b", n.Uses)
	}
	if n.Defs.Has(x86.EBX) {
		t.Error("xor to memory must not def ebx")
	}

	p = liftAsm(t, func(a *x86.Asm) { a.PopR(x86.ECX) })
	n = &p.Nodes[0]
	if !n.Defs.Has(x86.ECX) || !n.Defs.Has(x86.ESP) {
		t.Errorf("pop defs = %b", n.Defs)
	}

	p = liftAsm(t, func(a *x86.Asm) { a.Loop("self"); a.Label("self") })
	// loop with a forward label to itself is fine for def/use purposes
	n = &p.Nodes[0]
	if !n.Defs.Has(x86.ECX) || !n.Uses.Has(x86.ECX) {
		t.Errorf("loop defs/uses: %b / %b", n.Defs, n.Uses)
	}
}

func TestRegSet(t *testing.T) {
	var s RegSet
	s.Add(x86.AL)
	if !s.Has(x86.EAX) || !s.Has(x86.AH) || !s.Has(x86.AX) {
		t.Error("AL must alias the EAX family")
	}
	if s.Has(x86.EBX) {
		t.Error("EBX not added")
	}
	var o RegSet
	o.Add(x86.EBX)
	if s.Intersects(o) {
		t.Error("disjoint sets intersect")
	}
	o.Add(x86.EAX)
	if !s.Intersects(o) {
		t.Error("intersecting sets do not intersect")
	}
	s.Add(x86.RegNone) // must be a no-op
	if s.Has(x86.RegNone) {
		t.Error("RegNone in set")
	}
}

// Property: the evaluator's constant claims are sound — executing the
// instruction sequence on a concrete machine gives the value the
// evaluator predicts whenever it claims knowledge.
func TestEvaluatorSoundness(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	regs := []x86.Reg{x86.EAX, x86.ECX, x86.EDX, x86.EBX, x86.ESI, x86.EDI}

	prop := func() bool {
		// Build a random straight-line sequence of foldable ops.
		a := x86.NewAsm()
		type op struct {
			kind int
			dst  x86.Reg
			src  x86.Reg
			imm  int64
		}
		var ops []op
		n := 3 + r.Intn(10)
		for i := 0; i < n; i++ {
			o := op{kind: r.Intn(7), dst: regs[r.Intn(len(regs))],
				src: regs[r.Intn(len(regs))], imm: int64(int32(r.Uint32()))}
			ops = append(ops, o)
			switch o.kind {
			case 0:
				a.MovRI(o.dst, o.imm)
			case 1:
				a.AddRI(o.dst, o.imm)
			case 2:
				a.SubRI(o.dst, o.imm)
			case 3:
				a.I(x86.XOR, x86.RegOp(o.dst), x86.ImmOp(o.imm))
			case 4:
				a.I(x86.NOT, x86.RegOp(o.dst))
			case 5:
				a.MovRR(o.dst, o.src)
			case 6:
				a.IncR(o.dst)
			}
		}
		a.Nop()
		code, err := a.Bytes()
		if err != nil {
			t.Logf("asm: %v", err)
			return false
		}

		// Concrete interpreter over the same ops.
		conc := map[x86.Reg]uint32{}
		concKnown := map[x86.Reg]bool{}
		for _, o := range ops {
			switch o.kind {
			case 0:
				conc[o.dst] = uint32(o.imm)
				concKnown[o.dst] = true
			case 1:
				conc[o.dst] += uint32(o.imm)
			case 2:
				conc[o.dst] -= uint32(o.imm)
			case 3:
				conc[o.dst] ^= uint32(o.imm)
			case 4:
				conc[o.dst] = ^conc[o.dst]
			case 5:
				conc[o.dst] = conc[o.src]
				concKnown[o.dst] = concKnown[o.src]
			case 6:
				conc[o.dst]++
			}
		}

		p := Lift(x86.SweepAll(code))
		final := last(p)
		for _, reg := range regs {
			v, known := final.ConstBefore(reg)
			if known && concKnown[reg] && v != conc[reg] {
				t.Logf("reg %v: evaluator %#x, concrete %#x", reg, v, conc[reg])
				return false
			}
			if known && !concKnown[reg] {
				t.Logf("reg %v: evaluator claims %#x for never-initialized reg", reg, v)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestLiftEmpty(t *testing.T) {
	p := Lift(nil)
	if len(p.Nodes) != 0 || len(p.Raw) != 0 {
		t.Error("empty lift should produce empty program")
	}
}

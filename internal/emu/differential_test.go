package emu

import (
	"math/rand"
	"testing"
	"testing/quick"

	"semnids/internal/ir"
	"semnids/internal/x86"
)

// TestDifferentialIRvsEmu cross-validates the two independent
// semantics implementations: wherever the IR's abstract evaluator
// claims a register holds a constant, concretely executing the same
// code in the emulator must produce that exact value.
func TestDifferentialIRvsEmu(t *testing.T) {
	r := rand.New(rand.NewSource(1234))
	regs := []x86.Reg{x86.EAX, x86.ECX, x86.EDX, x86.EBX, x86.ESI, x86.EDI}
	regs8 := []x86.Reg{x86.AL, x86.CL, x86.DL, x86.BL, x86.AH, x86.CH, x86.DH, x86.BH}

	prop := func() bool {
		a := x86.NewAsm()
		// Initialize every register so the emulator's zero state and
		// the IR's unknown state line up on known values.
		for _, reg := range regs {
			a.MovRI(reg, int64(int32(r.Uint32())))
		}
		n := 5 + r.Intn(20)
		for i := 0; i < n; i++ {
			dst := regs[r.Intn(len(regs))]
			src := regs[r.Intn(len(regs))]
			imm := int64(int32(r.Uint32()))
			switch r.Intn(14) {
			case 0:
				a.MovRI(dst, imm)
			case 1:
				a.MovRR(dst, src)
			case 2:
				a.AddRI(dst, imm)
			case 3:
				a.SubRI(dst, imm)
			case 4:
				a.I(x86.XOR, x86.RegOp(dst), x86.RegOp(src))
			case 5:
				a.I(x86.AND, x86.RegOp(dst), x86.ImmOp(imm))
			case 6:
				a.I(x86.OR, x86.RegOp(dst), x86.ImmOp(imm))
			case 7:
				a.I(x86.NOT, x86.RegOp(dst))
			case 8:
				a.I(x86.NEG, x86.RegOp(dst))
			case 9:
				a.IncR(dst)
			case 10:
				a.I(x86.SHL, x86.RegOp(dst), x86.ImmOp(int64(r.Intn(31)+1)))
			case 11:
				a.I(x86.MOV, x86.RegOp(regs8[r.Intn(len(regs8))]),
					x86.ImmOp(int64(r.Intn(256))))
			case 12:
				a.PushR(src)
				a.PopR(dst)
			case 13:
				a.I(x86.XCHG, x86.RegOp(dst), x86.RegOp(src))
			}
		}
		a.IntN(0x80) // observation point
		code, err := a.Bytes()
		if err != nil {
			t.Logf("asm: %v", err)
			return false
		}

		m := New(code)
		stop, err := m.Run(0)
		if err != nil || stop.Kind != StopSyscall {
			t.Logf("emu: stop=%+v err=%v", stop, err)
			return false
		}

		prog := ir.Lift(x86.SweepAll(code))
		final := &prog.Nodes[len(prog.Nodes)-1] // the int 0x80 node
		if in := prog.Inst(final); in.Op != x86.INT {
			t.Logf("last node is %v", in)
			return false
		}
		for _, reg := range regs {
			claimed, known := final.ConstBefore(reg)
			if !known {
				continue // the abstract domain may lose precision; fine
			}
			if got := m.Reg(reg); got != claimed {
				t.Logf("%v: ir claims %#x, emulator computed %#x\ncode: % x",
					reg, claimed, got, code)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestDifferentialDecodeLoops: the IR folds decryption keys; the
// emulator actually decrypts. For generated decoder loops, the byte
// the emulator writes must equal cipher-byte XOR folded-key.
func TestDifferentialDecodeLoops(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for trial := 0; trial < 50; trial++ {
		key := byte(r.Intn(255) + 1)
		plain := make([]byte, 8+r.Intn(24))
		r.Read(plain)

		a := x86.NewAsm()
		a.Jmp("getpc").
			Label("decoder").
			PopR(x86.ESI).
			MovRI(x86.ECX, int64(len(plain)))
		// Obscured key construction (exercises folding).
		mask := int64(int32(r.Uint32()))
		a.MovRI(x86.EBX, int64(key)^mask).
			I(x86.XOR, x86.RegOp(x86.EBX), x86.ImmOp(mask)).
			Label("loop").
			I(x86.XOR, x86.MemOp(x86.MemRef{Base: x86.ESI, Size: 1, Scale: 1}), x86.RegOp(x86.BL)).
			IncR(x86.ESI).
			Loop("loop").
			// Stop here: the decoded bytes are random data, not a
			// payload; executing them would self-modify the region
			// under test.
			I(x86.INT3).
			Label("getpc").
			Call("decoder")
		code := a.MustBytes()
		payloadOff := len(code)
		for _, b := range plain {
			code = append(code, b^key)
		}

		m := New(code)
		stop, err := m.Run(0)
		if err != nil || stop.Kind != StopRet {
			t.Fatalf("trial %d: stop=%+v err=%v", trial, stop, err)
		}
		for i, want := range plain {
			if m.Mem[payloadOff+i] != want {
				t.Fatalf("trial %d: byte %d = %#x, want %#x",
					trial, i, m.Mem[payloadOff+i], want)
			}
		}
	}
}

package x86

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// genInst produces a random but encodable instruction. It is the
// generator for the encode/decode round-trip property.
func genInst(r *rand.Rand) Inst {
	reg32s := []Reg{EAX, ECX, EDX, EBX, ESP, EBP, ESI, EDI}
	reg8s := []Reg{AL, CL, DL, BL, AH, CH, DH, BH}

	randMem := func(size uint8) Operand {
		m := MemRef{Size: size, Scale: 1}
		switch r.Intn(4) {
		case 0: // [base]
			m.Base = reg32s[r.Intn(8)]
		case 1: // [base+disp]
			m.Base = reg32s[r.Intn(8)]
			m.Disp = int32(r.Intn(1<<16) - 1<<15)
		case 2: // [base+index*scale+disp]
			m.Base = reg32s[r.Intn(8)]
			for m.Base == ESP {
				m.Base = reg32s[r.Intn(8)]
			}
			m.Index = reg32s[r.Intn(8)]
			for m.Index == ESP {
				m.Index = reg32s[r.Intn(8)]
			}
			m.Scale = []uint8{1, 2, 4, 8}[r.Intn(4)]
			m.Disp = int32(r.Intn(256) - 128)
		case 3: // absolute
			m.Disp = int32(r.Uint32())
		}
		return MemOp(m)
	}

	randRM := func(size int) Operand {
		if r.Intn(2) == 0 {
			if size == 1 {
				return RegOp(reg8s[r.Intn(8)])
			}
			return RegOp(reg32s[r.Intn(8)])
		}
		return randMem(uint8(size))
	}

	size := 4
	if r.Intn(4) == 0 {
		size = 1
	}

	switch r.Intn(12) {
	case 0: // ALU reg/mem, reg
		ops := []Opcode{ADD, ADC, SUB, SBB, AND, OR, XOR, CMP}
		op := ops[r.Intn(len(ops))]
		if r.Intn(2) == 0 {
			src := RegOp(reg32s[r.Intn(8)])
			if size == 1 {
				src = RegOp(reg8s[r.Intn(8)])
			}
			return inst2(op, randRM(size), src)
		}
		dst := RegOp(reg32s[r.Intn(8)])
		if size == 1 {
			dst = RegOp(reg8s[r.Intn(8)])
		}
		return inst2(op, dst, randMem(uint8(size)))
	case 1: // ALU imm
		ops := []Opcode{ADD, ADC, SUB, SBB, AND, OR, XOR, CMP}
		op := ops[r.Intn(len(ops))]
		var imm int64
		if size == 1 {
			imm = int64(int8(r.Uint32()))
		} else {
			imm = int64(int32(r.Uint32()))
		}
		return inst2(op, randRM(size), ImmOp(imm))
	case 2: // MOV forms
		switch r.Intn(4) {
		case 0:
			if size == 1 {
				return inst2(MOV, RegOp(reg8s[r.Intn(8)]), ImmOp(int64(int8(r.Uint32()))))
			}
			return inst2(MOV, RegOp(reg32s[r.Intn(8)]), ImmOp(int64(int32(r.Uint32()))))
		case 1:
			if size == 1 {
				return inst2(MOV, randMem(1), ImmOp(int64(int8(r.Uint32()))))
			}
			return inst2(MOV, randMem(4), ImmOp(int64(int32(r.Uint32()))))
		case 2:
			if size == 1 {
				return inst2(MOV, RegOp(reg8s[r.Intn(8)]), randRM(1))
			}
			return inst2(MOV, RegOp(reg32s[r.Intn(8)]), randRM(4))
		default:
			if size == 1 {
				return inst2(MOV, randMem(1), RegOp(reg8s[r.Intn(8)]))
			}
			return inst2(MOV, randMem(4), RegOp(reg32s[r.Intn(8)]))
		}
	case 3: // unary groups
		ops := []Opcode{NOT, NEG, MUL, IMUL, DIV, IDIV}
		return inst1(ops[r.Intn(len(ops))], randRM(size))
	case 4: // inc/dec
		ops := []Opcode{INC, DEC}
		return inst1(ops[r.Intn(2)], randRM(size))
	case 5: // push/pop
		if r.Intn(2) == 0 {
			switch r.Intn(3) {
			case 0:
				return inst1(PUSH, RegOp(reg32s[r.Intn(8)]))
			case 1:
				return inst1(PUSH, ImmOp(int64(int32(r.Uint32()))))
			default:
				return inst1(PUSH, randMem(4))
			}
		}
		if r.Intn(2) == 0 {
			return inst1(POP, RegOp(reg32s[r.Intn(8)]))
		}
		return inst1(POP, randMem(4))
	case 6: // shifts
		ops := []Opcode{SHL, SHR, SAR, ROL, ROR, RCL, RCR}
		op := ops[r.Intn(len(ops))]
		switch r.Intn(3) {
		case 0:
			return inst2(op, randRM(size), RegOp(CL))
		case 1:
			return inst2(op, randRM(size), ImmOp(1))
		default:
			return inst2(op, randRM(size), ImmOp(int64(r.Intn(30)+2)))
		}
	case 7: // branches
		addr := int32(r.Intn(1 << 12))
		target := int32(r.Intn(1 << 12))
		switch r.Intn(3) {
		case 0:
			return Inst{Op: JMP, HasTarget: true, Addr: addr, Target: target}
		case 1:
			return Inst{Op: JCC, Cond: Cond(r.Intn(16)), HasTarget: true, Addr: addr, Target: target}
		default:
			return Inst{Op: CALL, HasTarget: true, Addr: addr, Target: target}
		}
	case 8: // loop family, short range only
		addr := int32(200 + r.Intn(100))
		target := addr + int32(r.Intn(200)) - 100
		ops := []Opcode{LOOP, LOOPE, LOOPNE, JECXZ}
		return Inst{Op: ops[r.Intn(4)], HasTarget: true, Addr: addr, Target: target}
	case 9: // no-operand instructions
		ops := []Opcode{NOP, CDQ, CWDE, PUSHAD, POPAD, PUSHFD, POPFD,
			SAHF, LAHF, CLD, STD, CLC, STC, CMC, XLAT, SALC, LEAVE,
			DAA, DAS, AAA, AAS, STOSB, STOSD, LODSB, LODSD, SCASB,
			SCASD, MOVSB, MOVSD, CMPSB, CMPSD, RET, INT3, CPUID, RDTSC}
		return Inst{Op: ops[r.Intn(len(ops))]}
	case 10: // lea / movzx / movsx / bswap / xchg / two-byte extensions
		switch r.Intn(10) {
		case 0:
			return inst2(LEA, RegOp(reg32s[r.Intn(8)]), randMem(0))
		case 1:
			return inst2(MOVZX, RegOp(reg32s[r.Intn(8)]), randRM(1))
		case 2:
			return inst2(MOVSX, RegOp(reg32s[r.Intn(8)]), randRM(1))
		case 3:
			return inst1(BSWAP, RegOp(reg32s[r.Intn(8)]))
		case 4:
			return Inst{Op: CMOVCC, Cond: Cond(r.Intn(16)),
				Args: [3]Operand{RegOp(reg32s[r.Intn(8)]), randRM(4)}}
		case 5:
			ops := []Opcode{BT, BTS, BTR, BTC}
			if r.Intn(2) == 0 {
				return inst2(ops[r.Intn(4)], randRM(4), RegOp(reg32s[r.Intn(8)]))
			}
			return inst2(ops[r.Intn(4)], randRM(4), ImmOp(int64(r.Intn(32))))
		case 6:
			ops := []Opcode{SHLD, SHRD}
			if r.Intn(2) == 0 {
				return Inst{Op: ops[r.Intn(2)], Args: [3]Operand{
					randRM(4), RegOp(reg32s[r.Intn(8)]), ImmOp(int64(r.Intn(31) + 1))}}
			}
			return Inst{Op: ops[r.Intn(2)], Args: [3]Operand{
				randRM(4), RegOp(reg32s[r.Intn(8)]), RegOp(CL)}}
		case 7:
			if size == 1 {
				return inst2(CMPXCHG, randRM(1), RegOp(reg8s[r.Intn(8)]))
			}
			return inst2(CMPXCHG, randRM(4), RegOp(reg32s[r.Intn(8)]))
		case 8:
			if size == 1 {
				return inst2(XADD, randRM(1), RegOp(reg8s[r.Intn(8)]))
			}
			return inst2(XADD, randRM(4), RegOp(reg32s[r.Intn(8)]))
		default:
			if size == 1 {
				return inst2(XCHG, randRM(1), RegOp(reg8s[r.Intn(8)]))
			}
			return inst2(XCHG, randRM(4), RegOp(reg32s[r.Intn(8)]))
		}
	default: // test / int / setcc
		switch r.Intn(3) {
		case 0:
			return inst2(TEST, randRM(size), ImmOp(int64(r.Intn(128))))
		case 1:
			return inst1(INT, ImmOp(int64(r.Intn(256))))
		default:
			return Inst{Op: SETCC, Cond: Cond(r.Intn(16)),
				Args: [3]Operand{randRM(1)}}
		}
	}
}

// normalizeForCompare adjusts fields where multiple Inst values are
// legitimately equivalent after an encode/decode cycle.
func normalizeForCompare(in Inst) Inst {
	in.Addr, in.Len, in.OpSize = 0, 0, 0
	for i := range in.Args {
		if in.Args[i].Kind == KindMem && in.Args[i].Mem.Index == RegNone {
			in.Args[i].Mem.Scale = 1
		}
		if in.Args[i].Kind == KindMem && in.Args[i].Mem.Scale == 0 {
			in.Args[i].Mem.Scale = 1
		}
	}
	// XCHG operand order is symmetric: decoder produces (r/m, reg) for
	// 86/87 and (eax, reg) for 90+r; canonicalize reg-reg pairs.
	if in.Op == XCHG && in.Args[0].Kind == KindReg && in.Args[1].Kind == KindReg {
		if in.Args[0].Reg > in.Args[1].Reg {
			in.Args[0], in.Args[1] = in.Args[1], in.Args[0]
		}
	}
	return in
}

func TestRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(20060612))
	prop := func() bool {
		in := genInst(r)
		enc, err := Encode(in)
		if err != nil {
			t.Logf("Encode(%v): %v", in, err)
			return false
		}
		// Decode with the instruction placed at in.Addr so relative
		// branch targets line up.
		at := int(in.Addr)
		buf := make([]byte, at+len(enc))
		copy(buf[at:], enc)
		got, err := Decode(buf, at)
		if err != nil {
			t.Logf("Decode(%v = % x): %v", in, enc, err)
			return false
		}
		if int(got.Len) != len(enc) {
			t.Logf("%v: len %d != %d", in, got.Len, len(enc))
			return false
		}
		a, b := normalizeForCompare(got), normalizeForCompare(in)
		if a.String() != b.String() {
			t.Logf("round trip %v -> % x -> %v", b, enc, a)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// TestDecodeNeverPanics feeds random byte soup to the decoder; it must
// return an instruction or an error, never panic, and reported lengths
// must stay within bounds.
func TestDecodeNeverPanics(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	prop := func() bool {
		n := 1 + r.Intn(32)
		b := make([]byte, n)
		r.Read(b)
		in, err := Decode(b, 0)
		if err != nil {
			return true
		}
		return in.Len > 0 && int(in.Len) <= n
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
}

// TestSweepCoversBuffer: a linear sweep must account for every byte
// exactly once, regardless of input.
func TestSweepCoversBuffer(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	prop := func() bool {
		n := r.Intn(256)
		b := make([]byte, n)
		r.Read(b)
		insts := SweepAll(b)
		pos := 0
		for _, in := range insts {
			if int(in.Addr) != pos || in.Len == 0 {
				return false
			}
			pos += int(in.Len)
		}
		return pos == n
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

package x86

import (
	"errors"
	"fmt"
)

// ErrNotEncodable is returned by Encode for instruction values that have
// no encoding in the supported subset (e.g. a LOOP whose target is out
// of rel8 range).
var ErrNotEncodable = errors.New("x86: instruction not encodable")

func notEnc(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrNotEncodable, fmt.Sprintf(format, args...))
}

// appendModRM encodes a ModRM byte (plus SIB and displacement as
// needed) for the given r/m operand with regField in the reg slot.
func appendModRM(b []byte, regField byte, rm Operand) ([]byte, error) {
	switch rm.Kind {
	case KindReg:
		return append(b, 0xc0|regField<<3|rm.Reg.Num()), nil
	case KindMem:
		m := rm.Mem
		if m.Seg != SegNone {
			return nil, notEnc("segment overrides are emitted as prefixes, not in ModRM")
		}
		// Pure displacement: mod=00 rm=101 disp32.
		if m.Base == RegNone && m.Index == RegNone {
			b = append(b, 0x00|regField<<3|5)
			return appendU32(b, uint32(m.Disp)), nil
		}
		needSIB := m.Index != RegNone || m.Base == ESP
		if m.Index == ESP {
			return nil, notEnc("esp cannot be an index register")
		}
		if m.Base != RegNone && m.Base.Size() != 4 {
			return nil, notEnc("16-bit base registers not supported by encoder")
		}
		var mod byte
		switch {
		case m.Disp == 0 && m.Base != EBP && m.Base != RegNone:
			mod = 0
		case m.Disp >= -128 && m.Disp <= 127 && m.Base != RegNone:
			mod = 1
		default:
			mod = 2
		}
		if m.Base == RegNone { // index-only: SIB with base=101, mod=00, disp32
			sibScale, err := scaleBits(m.Scale)
			if err != nil {
				return nil, err
			}
			b = append(b, 0x00|regField<<3|4, sibScale<<6|m.Index.Num()<<3|5)
			return appendU32(b, uint32(m.Disp)), nil
		}
		if needSIB {
			b = append(b, mod<<6|regField<<3|4)
			if m.Index == RegNone {
				b = append(b, 0<<6|4<<3|m.Base.Num()) // index=100 means none
			} else {
				sibScale, err := scaleBits(m.Scale)
				if err != nil {
					return nil, err
				}
				b = append(b, sibScale<<6|m.Index.Num()<<3|m.Base.Num())
			}
		} else {
			b = append(b, mod<<6|regField<<3|m.Base.Num())
		}
		switch mod {
		case 1:
			b = append(b, byte(int8(m.Disp)))
		case 2:
			b = appendU32(b, uint32(m.Disp))
		}
		return b, nil
	}
	return nil, notEnc("r/m operand must be register or memory")
}

func scaleBits(s uint8) (byte, error) {
	switch s {
	case 0, 1:
		return 0, nil
	case 2:
		return 1, nil
	case 4:
		return 2, nil
	case 8:
		return 3, nil
	}
	return 0, notEnc("bad SIB scale %d", s)
}

func appendU16(b []byte, v uint16) []byte {
	return append(b, byte(v), byte(v>>8))
}

func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendImm(b []byte, v int64, size int) ([]byte, error) {
	switch size {
	case 1:
		if v < -128 || v > 255 {
			return nil, notEnc("immediate 0x%x does not fit in 8 bits", v)
		}
		return append(b, byte(v)), nil
	case 2:
		if v < -32768 || v > 65535 {
			return nil, notEnc("immediate 0x%x does not fit in 16 bits", v)
		}
		return appendU16(b, uint16(v)), nil
	default:
		if v < -1<<31 || v > 1<<32-1 {
			return nil, notEnc("immediate 0x%x does not fit in 32 bits", v)
		}
		return appendU32(b, uint32(v)), nil
	}
}

// operandSize returns the operand size in bytes implied by an
// instruction's register/memory operands, or 0 if indeterminate.
func operandSize(in *Inst) int {
	for _, a := range in.Args {
		switch a.Kind {
		case KindReg:
			if s := a.Reg.Size(); s != 0 {
				return s
			}
		case KindMem:
			if a.Mem.Size != 0 {
				return int(a.Mem.Size)
			}
		}
	}
	return 0
}

// aluIndex maps ALU opcodes to their one-byte opcode block index.
var aluIndex = map[Opcode]byte{
	ADD: 0, OR: 1, ADC: 2, SBB: 3, AND: 4, SUB: 5, XOR: 6, CMP: 7,
}

var shiftIndex = map[Opcode]byte{
	ROL: 0, ROR: 1, RCL: 2, RCR: 3, SHL: 4, SHR: 5, SAR: 7,
}

// Encode produces machine code for in, placing it at in.Addr (which
// matters only for relative branches). It chooses a canonical encoding;
// Decode(Encode(in)) yields an instruction equal to in up to Addr/Len
// bookkeeping.
func Encode(in Inst) ([]byte, error) {
	var b []byte
	size := operandSize(&in)
	// 16-bit operands need the operand-size prefix.
	if size == 2 {
		b = append(b, 0x66)
	}

	a0, a1, a2 := in.Args[0], in.Args[1], in.Args[2]

	// Relative control transfers.
	if in.HasTarget {
		return encodeBranch(b, in)
	}

	switch in.Op {
	case NOP:
		return append(b, 0x90), nil
	case RET:
		if a0.Kind == KindImm {
			b = append(b, 0xc2)
			return appendU16(b, uint16(a0.Imm)), nil
		}
		return append(b, 0xc3), nil
	case LEAVE:
		return append(b, 0xc9), nil
	case INT3:
		return append(b, 0xcc), nil
	case INTO:
		return append(b, 0xce), nil
	case INT:
		if a0.Kind != KindImm {
			return nil, notEnc("int needs immediate")
		}
		return append(b, 0xcd, byte(a0.Imm)), nil
	case PUSHAD:
		return append(b, 0x60), nil
	case POPAD:
		return append(b, 0x61), nil
	case PUSHFD:
		return append(b, 0x9c), nil
	case POPFD:
		return append(b, 0x9d), nil
	case SAHF:
		return append(b, 0x9e), nil
	case LAHF:
		return append(b, 0x9f), nil
	case CWDE:
		return append(b, 0x98), nil
	case CDQ:
		return append(b, 0x99), nil
	case WAIT:
		return append(b, 0x9b), nil
	case XLAT:
		return append(b, 0xd7), nil
	case SALC:
		return append(b, 0xd6), nil
	case HLT:
		return append(b, 0xf4), nil
	case CMC:
		return append(b, 0xf5), nil
	case CLC:
		return append(b, 0xf8), nil
	case STC:
		return append(b, 0xf9), nil
	case CLI:
		return append(b, 0xfa), nil
	case STI:
		return append(b, 0xfb), nil
	case CLD:
		return append(b, 0xfc), nil
	case STD:
		return append(b, 0xfd), nil
	case DAA:
		return append(b, 0x27), nil
	case DAS:
		return append(b, 0x2f), nil
	case AAA:
		return append(b, 0x37), nil
	case AAS:
		return append(b, 0x3f), nil
	case AAM:
		return append(b, 0xd4, byte(a0.Imm)), nil
	case AAD:
		return append(b, 0xd5, byte(a0.Imm)), nil
	case CPUID:
		return append(b, 0x0f, 0xa2), nil
	case RDTSC:
		return append(b, 0x0f, 0x31), nil
	case MOVSB:
		return append(b, 0xa4), nil
	case MOVSD:
		return append(b, 0xa5), nil
	case CMPSB:
		return append(b, 0xa6), nil
	case CMPSD:
		return append(b, 0xa7), nil
	case STOSB:
		return append(b, 0xaa), nil
	case STOSD:
		return append(b, 0xab), nil
	case LODSB:
		return append(b, 0xac), nil
	case LODSD:
		return append(b, 0xad), nil
	case SCASB:
		return append(b, 0xae), nil
	case SCASD:
		return append(b, 0xaf), nil

	case BSWAP:
		if a0.Kind != KindReg || a0.Reg.Size() != 4 {
			return nil, notEnc("bswap needs a 32-bit register")
		}
		return append(b, 0x0f, 0xc8+a0.Reg.Num()), nil

	case INC, DEC:
		base := byte(0x40)
		grp := byte(0)
		if in.Op == DEC {
			base, grp = 0x48, 1
		}
		if a0.Kind == KindReg && a0.Reg.Size() != 1 {
			return append(b, base+a0.Reg.Num()), nil
		}
		opByte := byte(0xfe)
		if sizeOf(a0) != 1 {
			opByte = 0xff
		}
		b = append(b, opByte)
		return appendModRM(b, grp, a0)

	case PUSH:
		switch a0.Kind {
		case KindReg:
			if a0.Reg.Size() == 1 {
				return nil, notEnc("push of 8-bit register")
			}
			return append(b, 0x50+a0.Reg.Num()), nil
		case KindImm:
			if a0.Imm >= -128 && a0.Imm <= 127 {
				return append(b, 0x6a, byte(a0.Imm)), nil
			}
			b = append(b, 0x68)
			return appendImm(b, a0.Imm, 4)
		case KindMem:
			b = append(b, 0xff)
			return appendModRM(b, 6, a0)
		}
	case POP:
		switch a0.Kind {
		case KindReg:
			if a0.Reg.Size() == 1 {
				return nil, notEnc("pop of 8-bit register")
			}
			return append(b, 0x58+a0.Reg.Num()), nil
		case KindMem:
			b = append(b, 0x8f)
			return appendModRM(b, 0, a0)
		}

	case MOV:
		return encodeMov(b, a0, a1)
	case LEA:
		if a0.Kind != KindReg || a1.Kind != KindMem {
			return nil, notEnc("lea needs reg, mem")
		}
		b = append(b, 0x8d)
		return appendModRM(b, a0.Reg.Num(), a1)
	case MOVZX, MOVSX:
		if a0.Kind != KindReg {
			return nil, notEnc("movzx/movsx destination must be a register")
		}
		srcSize := sizeOf(a1)
		var second byte
		switch {
		case in.Op == MOVZX && srcSize == 1:
			second = 0xb6
		case in.Op == MOVZX && srcSize == 2:
			second = 0xb7
		case in.Op == MOVSX && srcSize == 1:
			second = 0xbe
		case in.Op == MOVSX && srcSize == 2:
			second = 0xbf
		default:
			return nil, notEnc("movzx/movsx source must be 8 or 16 bits")
		}
		// The destination register's size prefix, not the source's.
		var out []byte
		if a0.Reg.Size() == 2 {
			out = append(out, 0x66)
		}
		out = append(out, 0x0f, second)
		return appendModRM(out, a0.Reg.Num(), a1)

	case XCHG:
		if a0.Kind == KindReg && a1.Kind == KindReg &&
			a0.Reg.Size() == 4 && a0.Reg == EAX && a1.Reg != EAX {
			return append(b, 0x90+a1.Reg.Num()), nil
		}
		if s0, s1 := sizeOf(a0), sizeOf(a1); s0 != s1 {
			return nil, notEnc("xchg operand size mismatch (%d vs %d)", s0, s1)
		}
		opByte := byte(0x87)
		if sizeOf(a0) == 1 {
			opByte = 0x86
		}
		// Canonical operand order: ModRM r/m is the first operand.
		rm, reg := a0, a1
		if reg.Kind != KindReg {
			rm, reg = reg, rm
		}
		if reg.Kind != KindReg {
			return nil, notEnc("xchg needs at least one register")
		}
		b = append(b, opByte)
		return appendModRM(b, reg.Reg.Num(), rm)

	case TEST:
		if a1.Kind == KindImm {
			if a0.IsReg(AL) {
				b = append(b, 0xa8)
				return appendImm(b, a1.Imm, 1)
			}
			if a0.Kind == KindReg && a0.Reg == EAX {
				b = append(b, 0xa9)
				return appendImm(b, a1.Imm, 4)
			}
			opByte := byte(0xf7)
			sz := sizeOf(a0)
			if sz == 1 {
				opByte = 0xf6
			}
			b = append(b, opByte)
			b, err := appendModRM(b, 0, a0)
			if err != nil {
				return nil, err
			}
			return appendImm(b, a1.Imm, sz)
		}
		if a1.Kind != KindReg {
			return nil, notEnc("test second operand must be reg or imm")
		}
		opByte := byte(0x85)
		if sizeOf(a0) == 1 {
			opByte = 0x84
		}
		b = append(b, opByte)
		return appendModRM(b, a1.Reg.Num(), a0)

	case NOT, NEG, MUL, IMUL, DIV, IDIV:
		if in.Op == IMUL && a1.Kind != KindNone {
			return encodeIMul(b, a0, a1, a2)
		}
		grp := map[Opcode]byte{NOT: 2, NEG: 3, MUL: 4, IMUL: 5, DIV: 6, IDIV: 7}[in.Op]
		opByte := byte(0xf7)
		if sizeOf(a0) == 1 {
			opByte = 0xf6
		}
		b = append(b, opByte)
		return appendModRM(b, grp, a0)

	case ADD, OR, ADC, SBB, AND, SUB, XOR, CMP:
		return encodeALU(b, aluIndex[in.Op], a0, a1)

	case SHL, SHR, SAR, ROL, ROR, RCL, RCR:
		grp := shiftIndex[in.Op]
		sz := sizeOf(a0)
		switch {
		case a1.IsReg(CL):
			opByte := byte(0xd3)
			if sz == 1 {
				opByte = 0xd2
			}
			b = append(b, opByte)
			return appendModRM(b, grp, a0)
		case a1.Kind == KindImm && a1.Imm == 1:
			opByte := byte(0xd1)
			if sz == 1 {
				opByte = 0xd0
			}
			b = append(b, opByte)
			return appendModRM(b, grp, a0)
		case a1.Kind == KindImm:
			opByte := byte(0xc1)
			if sz == 1 {
				opByte = 0xc0
			}
			b = append(b, opByte)
			b, err := appendModRM(b, grp, a0)
			if err != nil {
				return nil, err
			}
			return append(b, byte(a1.Imm)), nil
		}
		return nil, notEnc("shift amount must be CL or immediate")

	case SETCC:
		b = append(b, 0x0f, 0x90+byte(in.Cond))
		return appendModRM(b, 0, a0)

	case JMP:
		if a0.Kind == KindReg || a0.Kind == KindMem {
			b = append(b, 0xff)
			return appendModRM(b, 4, a0)
		}
	case CALL:
		if a0.Kind == KindReg || a0.Kind == KindMem {
			b = append(b, 0xff)
			return appendModRM(b, 2, a0)
		}

	case CMOVCC:
		if a0.Kind != KindReg || a0.Reg.Size() == 1 {
			return nil, notEnc("cmovcc needs a 16/32-bit register destination")
		}
		b = append(b, 0x0f, 0x40+byte(in.Cond))
		return appendModRM(b, a0.Reg.Num(), a1)

	case BT, BTS, BTR, BTC:
		grp := map[Opcode]byte{BT: 4, BTS: 5, BTR: 6, BTC: 7}[in.Op]
		if a1.Kind == KindImm {
			b = append(b, 0x0f, 0xba)
			b, err := appendModRM(b, grp, a0)
			if err != nil {
				return nil, err
			}
			return append(b, byte(a1.Imm)), nil
		}
		if a1.Kind != KindReg {
			return nil, notEnc("bt-family second operand must be reg or imm")
		}
		second := map[Opcode]byte{BT: 0xa3, BTS: 0xab, BTR: 0xb3, BTC: 0xbb}[in.Op]
		b = append(b, 0x0f, second)
		return appendModRM(b, a1.Reg.Num(), a0)

	case SHLD, SHRD:
		if a1.Kind != KindReg {
			return nil, notEnc("shld/shrd second operand must be a register")
		}
		base := byte(0xa4)
		if in.Op == SHRD {
			base = 0xac
		}
		switch {
		case a2.Kind == KindImm:
			b = append(b, 0x0f, base)
			b, err := appendModRM(b, a1.Reg.Num(), a0)
			if err != nil {
				return nil, err
			}
			return append(b, byte(a2.Imm)), nil
		case a2.IsReg(CL):
			b = append(b, 0x0f, base+1)
			return appendModRM(b, a1.Reg.Num(), a0)
		}
		return nil, notEnc("shld/shrd shift must be imm8 or CL")

	case CMPXCHG, XADD:
		if a1.Kind != KindReg {
			return nil, notEnc("%s second operand must be a register", in.Op)
		}
		var second byte
		switch {
		case in.Op == CMPXCHG && a1.Reg.Size() == 1:
			second = 0xb0
		case in.Op == CMPXCHG:
			second = 0xb1
		case a1.Reg.Size() == 1: // XADD
			second = 0xc0
		default:
			second = 0xc1
		}
		b = append(b, 0x0f, second)
		return appendModRM(b, a1.Reg.Num(), a0)
	}
	return nil, notEnc("%s", in.Op)
}

func sizeOf(o Operand) int {
	switch o.Kind {
	case KindReg:
		return o.Reg.Size()
	case KindMem:
		return int(o.Mem.Size)
	}
	return 0
}

func encodeBranch(b []byte, in Inst) ([]byte, error) {
	pfx := len(b)
	// relFor computes the displacement for a total instruction length of
	// pfx+n bytes (prefixes included), wrapping at 32 bits like the
	// decoder's Target.
	relFor := func(n int) int64 {
		return int64(in.Target - (in.Addr + int32(pfx+n)))
	}
	fitsRel8 := func(n int) bool {
		r := relFor(n)
		return r >= -128 && r <= 127
	}
	switch in.Op {
	case JMP:
		if fitsRel8(2) {
			return append(b, 0xeb, byte(relFor(2))), nil
		}
		b = append(b, 0xe9)
		return appendU32(b, uint32(relFor(5))), nil
	case CALL:
		b = append(b, 0xe8)
		return appendU32(b, uint32(relFor(5))), nil
	case JCC:
		if fitsRel8(2) {
			return append(b, 0x70+byte(in.Cond), byte(relFor(2))), nil
		}
		b = append(b, 0x0f, 0x80+byte(in.Cond))
		return appendU32(b, uint32(relFor(6))), nil
	case LOOP, LOOPE, LOOPNE, JECXZ:
		if !fitsRel8(2) {
			return nil, notEnc("%s target out of rel8 range", in.Op)
		}
		opByte := map[Opcode]byte{LOOPNE: 0xe0, LOOPE: 0xe1, LOOP: 0xe2, JECXZ: 0xe3}[in.Op]
		return append(b, opByte, byte(relFor(2))), nil
	}
	return nil, notEnc("branch %s", in.Op)
}

func encodeMov(b []byte, dst, src Operand) ([]byte, error) {
	switch {
	case dst.Kind == KindReg && src.Kind == KindImm:
		switch dst.Reg.Size() {
		case 1:
			b = append(b, 0xb0+dst.Reg.Num())
			return appendImm(b, src.Imm, 1)
		case 2:
			b = append(b, 0xb8+dst.Reg.Num())
			return appendImm(b, src.Imm, 2)
		default:
			b = append(b, 0xb8+dst.Reg.Num())
			return appendImm(b, src.Imm, 4)
		}
	case dst.Kind == KindMem && src.Kind == KindImm:
		sz := int(dst.Mem.Size)
		opByte := byte(0xc7)
		if sz == 1 {
			opByte = 0xc6
		}
		b = append(b, opByte)
		b, err := appendModRM(b, 0, dst)
		if err != nil {
			return nil, err
		}
		return appendImm(b, src.Imm, sz)
	case dst.Kind == KindReg && (src.Kind == KindReg || src.Kind == KindMem):
		opByte := byte(0x8b)
		if dst.Reg.Size() == 1 {
			opByte = 0x8a
		}
		b = append(b, opByte)
		return appendModRM(b, dst.Reg.Num(), src)
	case dst.Kind == KindMem && src.Kind == KindReg:
		opByte := byte(0x89)
		if src.Reg.Size() == 1 {
			opByte = 0x88
		}
		b = append(b, opByte)
		return appendModRM(b, src.Reg.Num(), dst)
	}
	return nil, notEnc("mov %v, %v", dst, src)
}

func encodeALU(b []byte, idx byte, dst, src Operand) ([]byte, error) {
	base := idx << 3
	switch {
	case src.Kind == KindImm:
		sz := sizeOf(dst)
		if sz == 0 {
			return nil, notEnc("ALU with untyped destination")
		}
		if sz == 1 {
			b = append(b, 0x80)
			b, err := appendModRM(b, idx, dst)
			if err != nil {
				return nil, err
			}
			return appendImm(b, src.Imm, 1)
		}
		if src.Imm >= -128 && src.Imm <= 127 {
			b = append(b, 0x83)
			b, err := appendModRM(b, idx, dst)
			if err != nil {
				return nil, err
			}
			return append(b, byte(src.Imm)), nil
		}
		b = append(b, 0x81)
		b, err := appendModRM(b, idx, dst)
		if err != nil {
			return nil, err
		}
		return appendImm(b, src.Imm, sz)
	case src.Kind == KindReg && (dst.Kind == KindReg || dst.Kind == KindMem):
		opByte := base + 1 // r/m, r
		if src.Reg.Size() == 1 {
			opByte = base
		}
		b = append(b, opByte)
		return appendModRM(b, src.Reg.Num(), dst)
	case dst.Kind == KindReg && src.Kind == KindMem:
		opByte := base + 3 // r, r/m
		if dst.Reg.Size() == 1 {
			opByte = base + 2
		}
		b = append(b, opByte)
		return appendModRM(b, dst.Reg.Num(), src)
	}
	return nil, notEnc("ALU %v, %v", dst, src)
}

func encodeIMul(b []byte, dst, src, imm Operand) ([]byte, error) {
	if dst.Kind != KindReg {
		return nil, notEnc("imul destination must be a register")
	}
	if imm.Kind == KindNone {
		b = append(b, 0x0f, 0xaf)
		return appendModRM(b, dst.Reg.Num(), src)
	}
	if imm.Imm >= -128 && imm.Imm <= 127 {
		b = append(b, 0x6b)
		b, err := appendModRM(b, dst.Reg.Num(), src)
		if err != nil {
			return nil, err
		}
		return append(b, byte(imm.Imm)), nil
	}
	b = append(b, 0x69)
	b, err := appendModRM(b, dst.Reg.Num(), src)
	if err != nil {
		return nil, err
	}
	return appendImm(b, imm.Imm, 4)
}

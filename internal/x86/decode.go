package x86

import (
	"errors"
	"fmt"
)

// ErrTruncated is returned when the byte stream ends in the middle of
// an instruction.
var ErrTruncated = errors.New("x86: truncated instruction")

// ErrBadOpcode is returned for byte sequences that this decoder does
// not recognize as an instruction.
var ErrBadOpcode = errors.New("x86: unrecognized opcode")

// Bad-opcode errors are precomputed: a linear sweep over junk-heavy
// frames hits undecodable bytes constantly and immediately converts
// the error into a BAD marker instruction, so allocating a fresh
// wrapped error per byte would put fmt.Errorf on the hottest path in
// the decoder.
var (
	badOpcodeErrs   [256]error // "unrecognized opcode: 0xNN"
	badOpcode0FErrs [256]error // "unrecognized opcode: 0x0f 0xNN"
	badOpcodeBAErrs [8]error   // "unrecognized opcode: 0x0f 0xba /N"
)

func init() {
	for i := range badOpcodeErrs {
		badOpcodeErrs[i] = fmt.Errorf("%w: 0x%02x", ErrBadOpcode, i)
		badOpcode0FErrs[i] = fmt.Errorf("%w: 0x0f 0x%02x", ErrBadOpcode, i)
	}
	for i := range badOpcodeBAErrs {
		badOpcodeBAErrs[i] = fmt.Errorf("%w: 0x0f 0xba /%d", ErrBadOpcode, i)
	}
}

type decoder struct {
	b    []byte
	pos  int
	addr int

	opSize   int // 4 or 2 (0x66 prefix)
	addrSize int // 4 or 2 (0x67 prefix)
	seg      Seg
	rep      bool
	repne    bool
	lock     bool
}

func (d *decoder) u8() (byte, error) {
	if d.pos >= len(d.b) {
		return 0, ErrTruncated
	}
	v := d.b[d.pos]
	d.pos++
	return v, nil
}

func (d *decoder) u16() (uint16, error) {
	if d.pos+2 > len(d.b) {
		return 0, ErrTruncated
	}
	v := uint16(d.b[d.pos]) | uint16(d.b[d.pos+1])<<8
	d.pos += 2
	return v, nil
}

func (d *decoder) u32() (uint32, error) {
	if d.pos+4 > len(d.b) {
		return 0, ErrTruncated
	}
	v := uint32(d.b[d.pos]) | uint32(d.b[d.pos+1])<<8 |
		uint32(d.b[d.pos+2])<<16 | uint32(d.b[d.pos+3])<<24
	d.pos += 4
	return v, nil
}

// immBySize reads an immediate of the current operand size,
// sign-extending to int64.
func (d *decoder) immBySize(size int) (int64, error) {
	switch size {
	case 1:
		v, err := d.u8()
		return int64(int8(v)), err
	case 2:
		v, err := d.u16()
		return int64(int16(v)), err
	default:
		v, err := d.u32()
		return int64(int32(v)), err
	}
}

// modRM decodes a ModRM byte (plus SIB/displacement) returning the
// `reg` field and the r/m operand with the given access size.
func (d *decoder) modRM(size int) (regField byte, rm Operand, err error) {
	m, err := d.u8()
	if err != nil {
		return 0, Operand{}, err
	}
	mod := m >> 6
	regField = (m >> 3) & 7
	rmBits := m & 7

	if mod == 3 {
		return regField, RegOp(regBySize(rmBits, size)), nil
	}
	if d.addrSize == 2 {
		mem, err := d.modRM16(mod, rmBits, size)
		return regField, mem, err
	}

	mem := MemRef{Size: uint8(size), Seg: d.seg, Scale: 1}
	switch {
	case rmBits == 4: // SIB follows
		sib, err := d.u8()
		if err != nil {
			return 0, Operand{}, err
		}
		scale := sib >> 6
		index := (sib >> 3) & 7
		base := sib & 7
		if index != 4 {
			mem.Index = reg32(index)
			mem.Scale = 1 << scale
		}
		if base == 5 && mod == 0 {
			disp, err := d.u32()
			if err != nil {
				return 0, Operand{}, err
			}
			mem.Disp = int32(disp)
		} else {
			mem.Base = reg32(base)
		}
	case rmBits == 5 && mod == 0: // disp32 absolute
		disp, err := d.u32()
		if err != nil {
			return 0, Operand{}, err
		}
		mem.Disp = int32(disp)
	default:
		mem.Base = reg32(rmBits)
	}
	switch mod {
	case 1:
		v, err := d.u8()
		if err != nil {
			return 0, Operand{}, err
		}
		mem.Disp += int32(int8(v))
	case 2:
		v, err := d.u32()
		if err != nil {
			return 0, Operand{}, err
		}
		mem.Disp += int32(v)
	}
	return regField, MemOp(mem), nil
}

// modRM16 decodes the 16-bit addressing forms selected by a 0x67 prefix.
func (d *decoder) modRM16(mod, rmBits byte, size int) (Operand, error) {
	mem := MemRef{Size: uint8(size), Seg: d.seg, Scale: 1}
	pairs := [8][2]Reg{
		{BX, SI}, {BX, DI}, {BP, SI}, {BP, DI},
		{SI, RegNone}, {DI, RegNone}, {BP, RegNone}, {BX, RegNone},
	}
	if mod == 0 && rmBits == 6 {
		v, err := d.u16()
		if err != nil {
			return Operand{}, err
		}
		mem.Disp = int32(int16(v))
		return MemOp(mem), nil
	}
	mem.Base = pairs[rmBits][0]
	mem.Index = pairs[rmBits][1]
	switch mod {
	case 1:
		v, err := d.u8()
		if err != nil {
			return Operand{}, err
		}
		mem.Disp = int32(int8(v))
	case 2:
		v, err := d.u16()
		if err != nil {
			return Operand{}, err
		}
		mem.Disp = int32(int16(v))
	}
	return MemOp(mem), nil
}

// Decode decodes the single instruction at b[offset:], where offset is
// also used as the instruction address for relative branch targets.
func Decode(b []byte, offset int) (Inst, error) {
	var in Inst
	if err := decodeInto(&in, b, offset); err != nil {
		return Inst{}, err
	}
	return in, nil
}

// decodeInto is Decode writing the instruction to *in, so that the
// decode cache fills its store in place. *in is unspecified on error.
func decodeInto(in *Inst, b []byte, offset int) error {
	if offset < 0 || offset >= len(b) {
		return ErrTruncated
	}
	d := decoder{b: b, pos: offset, addr: offset, opSize: 4, addrSize: 4}
	if err := d.decodeOne(in); err != nil {
		return err
	}
	in.Addr = int32(offset)
	in.Len = uint8(d.pos - offset)
	return nil
}

func (d *decoder) decodeOne(in *Inst) error {
	// Consume prefixes (bounded so a run of 0x66 bytes cannot loop forever).
	for i := 0; i < 14; i++ {
		op, err := d.u8()
		if err != nil {
			return err
		}
		switch op {
		case 0x66:
			d.opSize = 2
		case 0x67:
			d.addrSize = 2
		case 0xf0:
			d.lock = true
		case 0xf2:
			d.repne = true
		case 0xf3:
			d.rep = true
		case 0x26:
			d.seg = SegES
		case 0x2e:
			d.seg = SegCS
		case 0x36:
			d.seg = SegSS
		case 0x3e:
			d.seg = SegDS
		case 0x64:
			d.seg = SegFS
		case 0x65:
			d.seg = SegGS
		default:
			var err error
			if *in, err = d.opcode(op); err != nil {
				return err
			}
			in.OpSize = uint8(d.opSize)
			in.Rep = d.rep
			in.Repne = d.repne
			in.Lock = d.lock
			return nil
		}
	}
	return ErrBadOpcode
}

func inst1(op Opcode, a Operand) Inst { return Inst{Op: op, Args: [3]Operand{a}} }
func inst2(op Opcode, a, b Operand) Inst {
	return Inst{Op: op, Args: [3]Operand{a, b}}
}

// rel builds a relative branch instruction; target resolution needs the
// final instruction length, so we record the displacement and fix the
// target after decoding completes.
func (d *decoder) rel(op Opcode, cond Cond, size int) (Inst, error) {
	disp, err := d.immBySize(size)
	if err != nil {
		return Inst{}, err
	}
	in := Inst{Op: op, Cond: cond, HasTarget: true}
	// d.pos is already past the displacement, i.e. at the next instruction.
	in.Target = int32(d.pos) + int32(disp)
	return in, nil
}

// aluOps maps the one-byte ALU opcode block base (op>>3) to mnemonics.
var aluOps = [8]Opcode{ADD, OR, ADC, SBB, AND, SUB, XOR, CMP}

// grp1 and shift group tables indexed by the ModRM reg field.
var grp1Ops = [8]Opcode{ADD, OR, ADC, SBB, AND, SUB, XOR, CMP}
var shiftOps = [8]Opcode{ROL, ROR, RCL, RCR, SHL, SHR, SHL, SAR}

func (d *decoder) opcode(op byte) (Inst, error) {
	sz := d.opSize

	// One-byte ALU block: 00-3B except the gap opcodes handled below.
	if op < 0x40 {
		switch op & 7 {
		case 0, 1, 2, 3, 4, 5:
			mn := aluOps[op>>3]
			switch op & 7 {
			case 0: // r/m8, r8
				reg, rm, err := d.modRM(1)
				if err != nil {
					return Inst{}, err
				}
				return inst2(mn, rm, RegOp(reg8(reg))), nil
			case 1: // r/m32, r32
				reg, rm, err := d.modRM(sz)
				if err != nil {
					return Inst{}, err
				}
				return inst2(mn, rm, RegOp(regBySize(reg, sz))), nil
			case 2: // r8, r/m8
				reg, rm, err := d.modRM(1)
				if err != nil {
					return Inst{}, err
				}
				return inst2(mn, RegOp(reg8(reg)), rm), nil
			case 3: // r32, r/m32
				reg, rm, err := d.modRM(sz)
				if err != nil {
					return Inst{}, err
				}
				return inst2(mn, RegOp(regBySize(reg, sz)), rm), nil
			case 4: // AL, imm8
				v, err := d.immBySize(1)
				if err != nil {
					return Inst{}, err
				}
				return inst2(mn, RegOp(AL), ImmOp(v)), nil
			case 5: // eAX, imm32
				v, err := d.immBySize(sz)
				if err != nil {
					return Inst{}, err
				}
				return inst2(mn, RegOp(regBySize(0, sz)), ImmOp(v)), nil
			}
		case 6, 7:
			// 0x06/0x07 etc are push/pop segment registers, plus
			// 0x0F (two-byte escape), 0x27 DAA, 0x2F DAS, 0x37 AAA, 0x3F AAS.
			switch op {
			case 0x0f:
				return d.twoByte()
			case 0x27:
				return Inst{Op: DAA}, nil
			case 0x2f:
				return Inst{Op: DAS}, nil
			case 0x37:
				return Inst{Op: AAA}, nil
			case 0x3f:
				return Inst{Op: AAS}, nil
			case 0x06, 0x0e, 0x16, 0x1e: // push seg
				return inst1(PUSH, ImmOp(int64(op))), nil
			case 0x07, 0x17, 0x1f: // pop seg
				return inst1(POP, ImmOp(int64(op))), nil
			}
			return Inst{}, ErrBadOpcode
		}
	}

	switch {
	case op >= 0x40 && op <= 0x47:
		return inst1(INC, RegOp(regBySize(op-0x40, sz))), nil
	case op >= 0x48 && op <= 0x4f:
		return inst1(DEC, RegOp(regBySize(op-0x48, sz))), nil
	case op >= 0x50 && op <= 0x57:
		return inst1(PUSH, RegOp(regBySize(op-0x50, sz))), nil
	case op >= 0x58 && op <= 0x5f:
		return inst1(POP, RegOp(regBySize(op-0x58, sz))), nil
	case op >= 0x70 && op <= 0x7f:
		return d.rel(JCC, Cond(op&0xf), 1)
	case op >= 0x91 && op <= 0x97:
		return inst2(XCHG, RegOp(regBySize(0, sz)), RegOp(regBySize(op-0x90, sz))), nil
	case op >= 0xb0 && op <= 0xb7:
		v, err := d.immBySize(1)
		if err != nil {
			return Inst{}, err
		}
		return inst2(MOV, RegOp(reg8(op-0xb0)), ImmOp(v)), nil
	case op >= 0xb8 && op <= 0xbf:
		v, err := d.immBySize(sz)
		if err != nil {
			return Inst{}, err
		}
		return inst2(MOV, RegOp(regBySize(op-0xb8, sz)), ImmOp(v)), nil
	}

	switch op {
	case 0x60:
		return Inst{Op: PUSHAD}, nil
	case 0x61:
		return Inst{Op: POPAD}, nil
	case 0x68:
		v, err := d.immBySize(sz)
		if err != nil {
			return Inst{}, err
		}
		return inst1(PUSH, ImmOp(v)), nil
	case 0x6a:
		v, err := d.immBySize(1)
		if err != nil {
			return Inst{}, err
		}
		return inst1(PUSH, ImmOp(v)), nil
	case 0x69: // imul r32, r/m32, imm32
		reg, rm, err := d.modRM(sz)
		if err != nil {
			return Inst{}, err
		}
		v, err := d.immBySize(sz)
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: IMUL, Args: [3]Operand{RegOp(regBySize(reg, sz)), rm, ImmOp(v)}}, nil
	case 0x6b: // imul r32, r/m32, imm8
		reg, rm, err := d.modRM(sz)
		if err != nil {
			return Inst{}, err
		}
		v, err := d.immBySize(1)
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: IMUL, Args: [3]Operand{RegOp(regBySize(reg, sz)), rm, ImmOp(v)}}, nil

	case 0x80, 0x82: // grp1 r/m8, imm8
		reg, rm, err := d.modRM(1)
		if err != nil {
			return Inst{}, err
		}
		v, err := d.immBySize(1)
		if err != nil {
			return Inst{}, err
		}
		return inst2(grp1Ops[reg], rm, ImmOp(v)), nil
	case 0x81: // grp1 r/m32, imm32
		reg, rm, err := d.modRM(sz)
		if err != nil {
			return Inst{}, err
		}
		v, err := d.immBySize(sz)
		if err != nil {
			return Inst{}, err
		}
		return inst2(grp1Ops[reg], rm, ImmOp(v)), nil
	case 0x83: // grp1 r/m32, imm8 (sign-extended)
		reg, rm, err := d.modRM(sz)
		if err != nil {
			return Inst{}, err
		}
		v, err := d.immBySize(1)
		if err != nil {
			return Inst{}, err
		}
		return inst2(grp1Ops[reg], rm, ImmOp(v)), nil

	case 0x84:
		reg, rm, err := d.modRM(1)
		if err != nil {
			return Inst{}, err
		}
		return inst2(TEST, rm, RegOp(reg8(reg))), nil
	case 0x85:
		reg, rm, err := d.modRM(sz)
		if err != nil {
			return Inst{}, err
		}
		return inst2(TEST, rm, RegOp(regBySize(reg, sz))), nil
	case 0x86:
		reg, rm, err := d.modRM(1)
		if err != nil {
			return Inst{}, err
		}
		return inst2(XCHG, rm, RegOp(reg8(reg))), nil
	case 0x87:
		reg, rm, err := d.modRM(sz)
		if err != nil {
			return Inst{}, err
		}
		return inst2(XCHG, rm, RegOp(regBySize(reg, sz))), nil

	case 0x88:
		reg, rm, err := d.modRM(1)
		if err != nil {
			return Inst{}, err
		}
		return inst2(MOV, rm, RegOp(reg8(reg))), nil
	case 0x89:
		reg, rm, err := d.modRM(sz)
		if err != nil {
			return Inst{}, err
		}
		return inst2(MOV, rm, RegOp(regBySize(reg, sz))), nil
	case 0x8a:
		reg, rm, err := d.modRM(1)
		if err != nil {
			return Inst{}, err
		}
		return inst2(MOV, RegOp(reg8(reg)), rm), nil
	case 0x8b:
		reg, rm, err := d.modRM(sz)
		if err != nil {
			return Inst{}, err
		}
		return inst2(MOV, RegOp(regBySize(reg, sz)), rm), nil
	case 0x8d:
		reg, rm, err := d.modRM(0)
		if err != nil {
			return Inst{}, err
		}
		if rm.Kind != KindMem {
			return Inst{}, ErrBadOpcode
		}
		return inst2(LEA, RegOp(regBySize(reg, sz)), rm), nil
	case 0x8f:
		_, rm, err := d.modRM(sz)
		if err != nil {
			return Inst{}, err
		}
		return inst1(POP, rm), nil

	case 0x90:
		return Inst{Op: NOP}, nil
	case 0x98:
		return Inst{Op: CWDE}, nil
	case 0x99:
		return Inst{Op: CDQ}, nil
	case 0x9b:
		return Inst{Op: WAIT}, nil
	case 0x9c:
		return Inst{Op: PUSHFD}, nil
	case 0x9d:
		return Inst{Op: POPFD}, nil
	case 0x9e:
		return Inst{Op: SAHF}, nil
	case 0x9f:
		return Inst{Op: LAHF}, nil

	case 0xa0: // mov al, moffs8
		v, err := d.u32()
		if err != nil {
			return Inst{}, err
		}
		return inst2(MOV, RegOp(AL), MemOp(MemRef{Disp: int32(v), Size: 1, Seg: d.seg, Scale: 1})), nil
	case 0xa1:
		v, err := d.u32()
		if err != nil {
			return Inst{}, err
		}
		return inst2(MOV, RegOp(regBySize(0, sz)), MemOp(MemRef{Disp: int32(v), Size: uint8(sz), Seg: d.seg, Scale: 1})), nil
	case 0xa2:
		v, err := d.u32()
		if err != nil {
			return Inst{}, err
		}
		return inst2(MOV, MemOp(MemRef{Disp: int32(v), Size: 1, Seg: d.seg, Scale: 1}), RegOp(AL)), nil
	case 0xa3:
		v, err := d.u32()
		if err != nil {
			return Inst{}, err
		}
		return inst2(MOV, MemOp(MemRef{Disp: int32(v), Size: uint8(sz), Seg: d.seg, Scale: 1}), RegOp(regBySize(0, sz))), nil

	case 0xa4:
		return Inst{Op: MOVSB}, nil
	case 0xa5:
		return Inst{Op: MOVSD}, nil
	case 0xa6:
		return Inst{Op: CMPSB}, nil
	case 0xa7:
		return Inst{Op: CMPSD}, nil
	case 0xa8:
		v, err := d.immBySize(1)
		if err != nil {
			return Inst{}, err
		}
		return inst2(TEST, RegOp(AL), ImmOp(v)), nil
	case 0xa9:
		v, err := d.immBySize(sz)
		if err != nil {
			return Inst{}, err
		}
		return inst2(TEST, RegOp(regBySize(0, sz)), ImmOp(v)), nil
	case 0xaa:
		return Inst{Op: STOSB}, nil
	case 0xab:
		return Inst{Op: STOSD}, nil
	case 0xac:
		return Inst{Op: LODSB}, nil
	case 0xad:
		return Inst{Op: LODSD}, nil
	case 0xae:
		return Inst{Op: SCASB}, nil
	case 0xaf:
		return Inst{Op: SCASD}, nil

	case 0xc0, 0xc1, 0xd0, 0xd1, 0xd2, 0xd3:
		size := 1
		if op == 0xc1 || op == 0xd1 || op == 0xd3 {
			size = sz
		}
		reg, rm, err := d.modRM(size)
		if err != nil {
			return Inst{}, err
		}
		var amount Operand
		switch op {
		case 0xc0, 0xc1:
			v, err := d.immBySize(1)
			if err != nil {
				return Inst{}, err
			}
			amount = ImmOp(v)
		case 0xd0, 0xd1:
			amount = ImmOp(1)
		default:
			amount = RegOp(CL)
		}
		return inst2(shiftOps[reg], rm, amount), nil

	case 0xc2:
		v, err := d.u16()
		if err != nil {
			return Inst{}, err
		}
		return inst1(RET, ImmOp(int64(v))), nil
	case 0xc3:
		return Inst{Op: RET}, nil
	case 0xc6:
		_, rm, err := d.modRM(1)
		if err != nil {
			return Inst{}, err
		}
		v, err := d.immBySize(1)
		if err != nil {
			return Inst{}, err
		}
		return inst2(MOV, rm, ImmOp(v)), nil
	case 0xc7:
		_, rm, err := d.modRM(sz)
		if err != nil {
			return Inst{}, err
		}
		v, err := d.immBySize(sz)
		if err != nil {
			return Inst{}, err
		}
		return inst2(MOV, rm, ImmOp(v)), nil
	case 0xc9:
		return Inst{Op: LEAVE}, nil
	case 0xcc:
		return Inst{Op: INT3}, nil
	case 0xcd:
		v, err := d.u8()
		if err != nil {
			return Inst{}, err
		}
		return inst1(INT, ImmOp(int64(v))), nil
	case 0xce:
		return Inst{Op: INTO}, nil

	case 0xd4:
		v, err := d.u8()
		if err != nil {
			return Inst{}, err
		}
		return inst1(AAM, ImmOp(int64(v))), nil
	case 0xd5:
		v, err := d.u8()
		if err != nil {
			return Inst{}, err
		}
		return inst1(AAD, ImmOp(int64(v))), nil
	case 0xd6:
		return Inst{Op: SALC}, nil
	case 0xd7:
		return Inst{Op: XLAT}, nil

	case 0xe0:
		return d.rel(LOOPNE, 0, 1)
	case 0xe1:
		return d.rel(LOOPE, 0, 1)
	case 0xe2:
		return d.rel(LOOP, 0, 1)
	case 0xe3:
		return d.rel(JECXZ, 0, 1)
	case 0xe8:
		return d.rel(CALL, 0, 4)
	case 0xe9:
		return d.rel(JMP, 0, 4)
	case 0xeb:
		return d.rel(JMP, 0, 1)

	case 0xf4:
		return Inst{Op: HLT}, nil
	case 0xf5:
		return Inst{Op: CMC}, nil
	case 0xf8:
		return Inst{Op: CLC}, nil
	case 0xf9:
		return Inst{Op: STC}, nil
	case 0xfa:
		return Inst{Op: CLI}, nil
	case 0xfb:
		return Inst{Op: STI}, nil
	case 0xfc:
		return Inst{Op: CLD}, nil
	case 0xfd:
		return Inst{Op: STD}, nil

	case 0xf6, 0xf7: // grp3
		size := 1
		if op == 0xf7 {
			size = sz
		}
		reg, rm, err := d.modRM(size)
		if err != nil {
			return Inst{}, err
		}
		switch reg {
		case 0, 1: // TEST r/m, imm
			v, err := d.immBySize(size)
			if err != nil {
				return Inst{}, err
			}
			return inst2(TEST, rm, ImmOp(v)), nil
		case 2:
			return inst1(NOT, rm), nil
		case 3:
			return inst1(NEG, rm), nil
		case 4:
			return inst1(MUL, rm), nil
		case 5:
			return inst1(IMUL, rm), nil
		case 6:
			return inst1(DIV, rm), nil
		case 7:
			return inst1(IDIV, rm), nil
		}
		return Inst{}, ErrBadOpcode

	case 0xfe: // grp4
		reg, rm, err := d.modRM(1)
		if err != nil {
			return Inst{}, err
		}
		switch reg {
		case 0:
			return inst1(INC, rm), nil
		case 1:
			return inst1(DEC, rm), nil
		}
		return Inst{}, ErrBadOpcode
	case 0xff: // grp5
		reg, rm, err := d.modRM(sz)
		if err != nil {
			return Inst{}, err
		}
		switch reg {
		case 0:
			return inst1(INC, rm), nil
		case 1:
			return inst1(DEC, rm), nil
		case 2:
			return inst1(CALL, rm), nil
		case 4:
			return inst1(JMP, rm), nil
		case 6:
			return inst1(PUSH, rm), nil
		}
		return Inst{}, ErrBadOpcode
	}

	return Inst{}, badOpcodeErrs[op]
}

func (d *decoder) twoByte() (Inst, error) {
	op, err := d.u8()
	if err != nil {
		return Inst{}, err
	}
	sz := d.opSize
	switch {
	case op >= 0x40 && op <= 0x4f: // cmovcc r32, r/m32
		reg, rm, err := d.modRM(sz)
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: CMOVCC, Cond: Cond(op & 0xf),
			Args: [3]Operand{RegOp(regBySize(reg, sz)), rm}}, nil
	case op >= 0x80 && op <= 0x8f:
		return d.rel(JCC, Cond(op&0xf), 4)
	case op >= 0x90 && op <= 0x9f:
		_, rm, err := d.modRM(1)
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: SETCC, Cond: Cond(op & 0xf), Args: [3]Operand{rm}}, nil
	case op >= 0xc8 && op <= 0xcf:
		return inst1(BSWAP, RegOp(reg32(op-0xc8))), nil
	}
	switch op {
	case 0xa2:
		return Inst{Op: CPUID}, nil
	case 0x31:
		return Inst{Op: RDTSC}, nil
	case 0xaf: // imul r32, r/m32
		reg, rm, err := d.modRM(sz)
		if err != nil {
			return Inst{}, err
		}
		return inst2(IMUL, RegOp(regBySize(reg, sz)), rm), nil
	case 0xb6: // movzx r32, r/m8
		reg, rm, err := d.modRM(1)
		if err != nil {
			return Inst{}, err
		}
		return inst2(MOVZX, RegOp(regBySize(reg, sz)), rm), nil
	case 0xb7: // movzx r32, r/m16
		reg, rm, err := d.modRM(2)
		if err != nil {
			return Inst{}, err
		}
		return inst2(MOVZX, RegOp(regBySize(reg, sz)), rm), nil
	case 0xbe:
		reg, rm, err := d.modRM(1)
		if err != nil {
			return Inst{}, err
		}
		return inst2(MOVSX, RegOp(regBySize(reg, sz)), rm), nil
	case 0xbf:
		reg, rm, err := d.modRM(2)
		if err != nil {
			return Inst{}, err
		}
		return inst2(MOVSX, RegOp(regBySize(reg, sz)), rm), nil

	case 0xa3, 0xab, 0xb3, 0xbb: // bt/bts/btr/btc r/m32, r32
		reg, rm, err := d.modRM(sz)
		if err != nil {
			return Inst{}, err
		}
		ops := map[byte]Opcode{0xa3: BT, 0xab: BTS, 0xb3: BTR, 0xbb: BTC}
		return inst2(ops[op], rm, RegOp(regBySize(reg, sz))), nil
	case 0xba: // grp8: bt/bts/btr/btc r/m32, imm8
		reg, rm, err := d.modRM(sz)
		if err != nil {
			return Inst{}, err
		}
		if reg < 4 {
			return Inst{}, badOpcodeBAErrs[reg]
		}
		v, err := d.immBySize(1)
		if err != nil {
			return Inst{}, err
		}
		ops := [4]Opcode{BT, BTS, BTR, BTC}
		return inst2(ops[reg-4], rm, ImmOp(v)), nil

	case 0xa4, 0xac: // shld/shrd r/m32, r32, imm8
		reg, rm, err := d.modRM(sz)
		if err != nil {
			return Inst{}, err
		}
		v, err := d.immBySize(1)
		if err != nil {
			return Inst{}, err
		}
		mn := SHLD
		if op == 0xac {
			mn = SHRD
		}
		return Inst{Op: mn, Args: [3]Operand{rm, RegOp(regBySize(reg, sz)), ImmOp(v)}}, nil
	case 0xa5, 0xad: // shld/shrd r/m32, r32, cl
		reg, rm, err := d.modRM(sz)
		if err != nil {
			return Inst{}, err
		}
		mn := SHLD
		if op == 0xad {
			mn = SHRD
		}
		return Inst{Op: mn, Args: [3]Operand{rm, RegOp(regBySize(reg, sz)), RegOp(CL)}}, nil

	case 0xb0: // cmpxchg r/m8, r8
		reg, rm, err := d.modRM(1)
		if err != nil {
			return Inst{}, err
		}
		return inst2(CMPXCHG, rm, RegOp(reg8(reg))), nil
	case 0xb1: // cmpxchg r/m32, r32
		reg, rm, err := d.modRM(sz)
		if err != nil {
			return Inst{}, err
		}
		return inst2(CMPXCHG, rm, RegOp(regBySize(reg, sz))), nil
	case 0xc0: // xadd r/m8, r8
		reg, rm, err := d.modRM(1)
		if err != nil {
			return Inst{}, err
		}
		return inst2(XADD, rm, RegOp(reg8(reg))), nil
	case 0xc1: // xadd r/m32, r32
		reg, rm, err := d.modRM(sz)
		if err != nil {
			return Inst{}, err
		}
		return inst2(XADD, rm, RegOp(regBySize(reg, sz))), nil
	}
	return Inst{}, badOpcode0FErrs[op]
}

package x86

import (
	"fmt"
)

// Asm is a small assembler used by the shellcode corpus and the
// polymorphic engines to construct real machine code. Instructions are
// appended sequentially; relative branches may reference labels that
// are resolved when Bytes is called.
//
// Errors are collected and reported once from Bytes, so call sites can
// chain emission without per-call error handling.
type Asm struct {
	buf    []byte
	labels map[string]int
	fixups []fixup
	errs   []error
}

type fixup struct {
	at    int    // offset of the displacement field
	size  int    // 1 or 4 bytes
	label string // target label
	next  int    // offset of the following instruction (rel base)
}

// NewAsm returns an empty assembler.
func NewAsm() *Asm {
	return &Asm{labels: make(map[string]int)}
}

// Len returns the number of bytes emitted so far.
func (a *Asm) Len() int { return len(a.buf) }

// Label defines name at the current position.
func (a *Asm) Label(name string) *Asm {
	if _, dup := a.labels[name]; dup {
		a.errs = append(a.errs, fmt.Errorf("duplicate label %q", name))
	}
	a.labels[name] = len(a.buf)
	return a
}

// Raw appends raw bytes.
func (a *Asm) Raw(b ...byte) *Asm {
	a.buf = append(a.buf, b...)
	return a
}

// I appends one instruction built from an opcode and operands.
func (a *Asm) I(op Opcode, args ...Operand) *Asm {
	in := Inst{Op: op}
	if len(args) > 3 {
		a.errs = append(a.errs, fmt.Errorf("%s: too many operands", op))
		return a
	}
	copy(in.Args[:], args)
	return a.Inst(in)
}

// Inst encodes in at the current position.
func (a *Asm) Inst(in Inst) *Asm {
	in.Addr = int32(len(a.buf))
	enc, err := Encode(in)
	if err != nil {
		a.errs = append(a.errs, fmt.Errorf("at 0x%x: %w", len(a.buf), err))
		return a
	}
	a.buf = append(a.buf, enc...)
	return a
}

// branchTo emits a label-relative control transfer. Short forms use a
// rel8 placeholder; long forms rel32.
func (a *Asm) branchTo(enc []byte, size int, label string) *Asm {
	a.buf = append(a.buf, enc...)
	at := len(a.buf)
	for i := 0; i < size; i++ {
		a.buf = append(a.buf, 0)
	}
	a.fixups = append(a.fixups, fixup{at: at, size: size, label: label, next: len(a.buf)})
	return a
}

// JmpShort emits a 2-byte jmp rel8 to label.
func (a *Asm) JmpShort(label string) *Asm { return a.branchTo([]byte{0xeb}, 1, label) }

// Jmp emits a 5-byte jmp rel32 to label.
func (a *Asm) Jmp(label string) *Asm { return a.branchTo([]byte{0xe9}, 4, label) }

// JccShort emits a 2-byte conditional jump to label.
func (a *Asm) JccShort(c Cond, label string) *Asm {
	return a.branchTo([]byte{0x70 + byte(c)}, 1, label)
}

// JccNear emits a 6-byte conditional jump (0F 8x rel32) to label.
func (a *Asm) JccNear(c Cond, label string) *Asm {
	return a.branchTo([]byte{0x0f, 0x80 + byte(c)}, 4, label)
}

// Loop emits a loop rel8 to label.
func (a *Asm) Loop(label string) *Asm { return a.branchTo([]byte{0xe2}, 1, label) }

// Jecxz emits a jecxz rel8 to label.
func (a *Asm) Jecxz(label string) *Asm { return a.branchTo([]byte{0xe3}, 1, label) }

// Call emits a call rel32 to label.
func (a *Asm) Call(label string) *Asm { return a.branchTo([]byte{0xe8}, 4, label) }

// Common emission helpers, named after the at&t-free Intel forms used
// in the paper's figures.

// MovRI emits mov reg, imm.
func (a *Asm) MovRI(r Reg, v int64) *Asm { return a.I(MOV, RegOp(r), ImmOp(v)) }

// MovRR emits mov dst, src.
func (a *Asm) MovRR(dst, src Reg) *Asm { return a.I(MOV, RegOp(dst), RegOp(src)) }

// XorRR emits xor dst, src.
func (a *Asm) XorRR(dst, src Reg) *Asm { return a.I(XOR, RegOp(dst), RegOp(src)) }

// AddRI emits add reg, imm.
func (a *Asm) AddRI(r Reg, v int64) *Asm { return a.I(ADD, RegOp(r), ImmOp(v)) }

// SubRI emits sub reg, imm.
func (a *Asm) SubRI(r Reg, v int64) *Asm { return a.I(SUB, RegOp(r), ImmOp(v)) }

// PushR emits push reg.
func (a *Asm) PushR(r Reg) *Asm { return a.I(PUSH, RegOp(r)) }

// PushI emits push imm.
func (a *Asm) PushI(v int64) *Asm { return a.I(PUSH, ImmOp(v)) }

// PopR emits pop reg.
func (a *Asm) PopR(r Reg) *Asm { return a.I(POP, RegOp(r)) }

// IncR emits inc reg.
func (a *Asm) IncR(r Reg) *Asm { return a.I(INC, RegOp(r)) }

// DecR emits dec reg.
func (a *Asm) DecR(r Reg) *Asm { return a.I(DEC, RegOp(r)) }

// IntN emits int imm8.
func (a *Asm) IntN(v int64) *Asm { return a.I(INT, ImmOp(v)) }

// Nop emits nop.
func (a *Asm) Nop() *Asm { return a.I(NOP) }

// Bytes resolves all label fixups and returns the machine code.
func (a *Asm) Bytes() ([]byte, error) {
	if len(a.errs) > 0 {
		return nil, a.errs[0]
	}
	out := make([]byte, len(a.buf))
	copy(out, a.buf)
	for _, f := range a.fixups {
		target, ok := a.labels[f.label]
		if !ok {
			return nil, fmt.Errorf("undefined label %q", f.label)
		}
		rel := target - f.next
		switch f.size {
		case 1:
			if rel < -128 || rel > 127 {
				return nil, fmt.Errorf("label %q out of rel8 range (%d)", f.label, rel)
			}
			out[f.at] = byte(int8(rel))
		case 4:
			v := uint32(int32(rel))
			out[f.at] = byte(v)
			out[f.at+1] = byte(v >> 8)
			out[f.at+2] = byte(v >> 16)
			out[f.at+3] = byte(v >> 24)
		}
	}
	return out, nil
}

// MustBytes is Bytes but panics on error; the shellcode corpus is
// static so failures are programming errors.
func (a *Asm) MustBytes() []byte {
	b, err := a.Bytes()
	if err != nil {
		panic(err)
	}
	return b
}

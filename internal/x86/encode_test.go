package x86

import (
	"bytes"
	"testing"
)

func TestEncodeKnownBytes(t *testing.T) {
	cases := []struct {
		in   Inst
		want []byte
	}{
		{Inst{Op: NOP}, []byte{0x90}},
		{Inst{Op: RET}, []byte{0xc3}},
		{inst2(MOV, RegOp(EAX), ImmOp(0xb)), []byte{0xb8, 0x0b, 0, 0, 0}},
		{inst2(MOV, RegOp(AL), ImmOp(0xb)), []byte{0xb0, 0x0b}},
		{inst2(XOR, RegOp(EAX), RegOp(EAX)), []byte{0x31, 0xc0}},
		{inst1(PUSH, RegOp(EAX)), []byte{0x50}},
		{inst1(POP, RegOp(EBX)), []byte{0x5b}},
		{inst1(INC, RegOp(EAX)), []byte{0x40}},
		{inst1(INT, ImmOp(0x80)), []byte{0xcd, 0x80}},
		{inst1(PUSH, ImmOp(0x0b)), []byte{0x6a, 0x0b}},
		{inst1(PUSH, ImmOp(0x6e69622f)), []byte{0x68, 0x2f, 0x62, 0x69, 0x6e}},
		{inst2(ADD, RegOp(EAX), ImmOp(1)), []byte{0x83, 0xc0, 0x01}},
		{inst2(XOR, MemOp(MemRef{Base: EAX, Size: 1, Scale: 1}), ImmOp(-0x6b)),
			[]byte{0x80, 0x30, 0x95}},
	}
	for _, c := range cases {
		got, err := Encode(c.in)
		if err != nil {
			t.Errorf("Encode(%v): %v", c.in, err)
			continue
		}
		if !bytes.Equal(got, c.want) {
			t.Errorf("Encode(%v) = % x, want % x", c.in, got, c.want)
		}
	}
}

func TestEncodeBranchForms(t *testing.T) {
	// Short backward jump.
	in := Inst{Op: JMP, HasTarget: true, Addr: 10, Target: 0}
	got, err := Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{0xeb, 0xf4}) {
		t.Errorf("short jmp = % x", got)
	}
	// Long forward jump.
	in = Inst{Op: JMP, HasTarget: true, Addr: 0, Target: 0x1000}
	got, err = Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0xe9 || len(got) != 5 {
		t.Errorf("long jmp = % x", got)
	}
	// Loop out of range must error.
	in = Inst{Op: LOOP, HasTarget: true, Addr: 0, Target: 0x1000}
	if _, err := Encode(in); err == nil {
		t.Error("loop out of rel8 range should not encode")
	}
	// Conditional near form.
	in = Inst{Op: JCC, Cond: CondNE, HasTarget: true, Addr: 0, Target: 0x500}
	got, err = Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0x0f || got[1] != 0x85 {
		t.Errorf("jne near = % x", got)
	}
}

func TestEncodeNotEncodable(t *testing.T) {
	bad := []Inst{
		inst1(PUSH, RegOp(AL)),                     // no 8-bit push
		inst2(MOV, ImmOp(1), RegOp(EAX)),           // imm destination
		inst2(MOV, RegOp(EAX), ImmOp(0x1ffffffff)), // imm too wide
		{Op: BAD},                          // undecodable marker
		inst2(SHL, RegOp(EAX), RegOp(EBX)), // shift amount must be CL
	}
	for _, in := range bad {
		if _, err := Encode(in); err == nil {
			t.Errorf("Encode(%v) should fail", in)
		}
	}
}

func TestAsmLabels(t *testing.T) {
	b, err := NewAsm().
		Label("top").
		IncR(EAX).
		Loop("top").
		Jmp("end").
		Nop().
		Label("end").
		Bytes()
	if err != nil {
		t.Fatal(err)
	}
	insts := SweepAll(b)
	if insts[1].Target != 0 {
		t.Errorf("loop target = %d, want 0", insts[1].Target)
	}
	if int(insts[2].Target) != len(b) {
		t.Errorf("jmp target = %d, want %d", insts[2].Target, len(b))
	}
}

func TestAsmErrors(t *testing.T) {
	if _, err := NewAsm().Jmp("nowhere").Bytes(); err == nil {
		t.Error("undefined label should fail")
	}
	if _, err := NewAsm().Label("a").Label("a").Bytes(); err == nil {
		t.Error("duplicate label should fail")
	}
	if _, err := NewAsm().I(PUSH, RegOp(AL)).Bytes(); err == nil {
		t.Error("unencodable instruction should surface from Bytes")
	}
	a := NewAsm().Label("far")
	for i := 0; i < 200; i++ {
		a.Nop()
	}
	if _, err := a.JmpShort("far").Bytes(); err == nil {
		t.Error("short jump out of range should fail")
	}
}

// TestEncodeDecodeCorpus round-trips every instruction the shellcode
// generators rely on.
func TestEncodeDecodeCorpus(t *testing.T) {
	mem := MemOp(MemRef{Base: ESI, Index: ECX, Scale: 2, Disp: -4, Size: 4})
	mem8 := MemOp(MemRef{Base: EDI, Size: 1, Scale: 1})
	corpus := []Inst{
		inst2(MOV, RegOp(EAX), RegOp(EBX)),
		inst2(MOV, RegOp(EAX), mem),
		inst2(MOV, mem, RegOp(EDX)),
		inst2(MOV, mem8, ImmOp(0x41)),
		inst2(ADD, RegOp(ESI), ImmOp(0x1234)),
		inst2(SUB, mem, RegOp(EAX)),
		inst2(AND, RegOp(ECX), ImmOp(0xff)),
		inst2(OR, RegOp(EDX), mem),
		inst2(XOR, mem8, RegOp(BL)),
		inst2(CMP, RegOp(EAX), ImmOp(-1)),
		inst2(TEST, RegOp(EAX), RegOp(EAX)),
		inst2(TEST, RegOp(EBX), ImmOp(0x10)),
		inst1(NOT, RegOp(EDX)),
		inst1(NEG, mem),
		inst1(MUL, RegOp(ECX)),
		inst1(DIV, RegOp(EBX)),
		inst2(XCHG, RegOp(ECX), RegOp(EDX)),
		inst2(XCHG, RegOp(EAX), RegOp(EDI)),
		inst2(LEA, RegOp(EAX), MemOp(MemRef{Base: ESP, Disp: 8, Scale: 1})),
		inst2(MOVZX, RegOp(EAX), RegOp(BL)),
		inst2(MOVSX, RegOp(EDX), mem8),
		inst2(SHL, RegOp(EAX), ImmOp(4)),
		inst2(SHR, mem, RegOp(CL)),
		inst2(SAR, RegOp(EBX), ImmOp(1)),
		inst2(ROL, RegOp(ECX), ImmOp(3)),
		inst1(BSWAP, RegOp(ESI)),
		inst1(PUSH, mem),
		inst1(POP, mem),
		inst2(IMUL, RegOp(EAX), RegOp(EBX)),
		{Op: IMUL, Args: [3]Operand{RegOp(EAX), RegOp(EBX), ImmOp(1000)}},
		{Op: SETCC, Cond: CondG, Args: [3]Operand{RegOp(AL)}},
		inst1(JMP, RegOp(EAX)),
		inst1(CALL, mem),
		inst1(RET, ImmOp(8)),
	}
	for _, want := range corpus {
		enc, err := Encode(want)
		if err != nil {
			t.Errorf("Encode(%v): %v", want, err)
			continue
		}
		got, err := Decode(enc, 0)
		if err != nil {
			t.Errorf("Decode(Encode(%v)) = % x: %v", want, enc, err)
			continue
		}
		if int(got.Len) != len(enc) {
			t.Errorf("%v: decoded len %d, encoded %d bytes", want, got.Len, len(enc))
		}
		if !sameInst(got, want) {
			t.Errorf("round trip %v -> % x -> %v", want, enc, got)
		}
	}
}

// sameInst compares the semantic fields of two instructions, ignoring
// Addr/Len/OpSize bookkeeping and normalizing memory scale.
func sameInst(a, b Inst) bool {
	if a.Op != b.Op || a.Cond != b.Cond || a.HasTarget != b.HasTarget {
		return false
	}
	if a.HasTarget && a.Target != b.Target {
		return false
	}
	for i := range a.Args {
		x, y := a.Args[i], b.Args[i]
		if x.Kind != y.Kind {
			return false
		}
		switch x.Kind {
		case KindReg:
			if x.Reg != y.Reg {
				return false
			}
		case KindImm:
			if x.Imm != y.Imm {
				return false
			}
		case KindMem:
			mx, my := x.Mem, y.Mem
			if mx.Scale == 0 {
				mx.Scale = 1
			}
			if my.Scale == 0 {
				my.Scale = 1
			}
			if mx != my {
				return false
			}
		}
	}
	return true
}

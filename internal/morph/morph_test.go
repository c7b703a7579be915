package morph

import (
	"bytes"
	"testing"

	"semnids/internal/ir"
	"semnids/internal/sem"
	"semnids/internal/shellcode"
	"semnids/internal/sigmatch"
	"semnids/internal/x86"
)

func TestMutatePreservesDetection(t *testing.T) {
	// Every mutated shellcode variant must still match the semantic
	// templates: metamorphism does not change behavior.
	a := sem.NewAnalyzer(sem.BuiltinTemplates())
	mutatable := 0
	for _, sc := range shellcode.Corpus() {
		m := New(42)
		// Payloads carrying literal string data (jmp/call/pop style)
		// are outside Mutate's pure-code contract.
		if _, err := m.Mutate(sc.Bytes); err != nil {
			continue
		}
		mutatable++
		for round := 0; round < 10; round++ {
			mutated, err := m.Mutate(sc.Bytes)
			if err != nil {
				t.Fatalf("%s round %d: %v", sc.Name, round, err)
			}
			found := false
			for _, d := range a.AnalyzeFrame(mutated) {
				if d.Template == "linux-shell-spawn" {
					found = true
				}
			}
			if !found {
				t.Errorf("%s round %d: mutated variant not detected", sc.Name, round)
			}
		}
	}
	if mutatable < 5 {
		t.Errorf("only %d/8 corpus payloads are mutatable pure code", mutatable)
	}
}

func TestMutateBreaksStaticSignatures(t *testing.T) {
	// The motivating contrast: enough mutation rounds defeat every
	// payload-specific byte signature.
	static := sigmatch.NewMatcher(sigmatch.DefaultSignatures())
	payload := shellcode.ClassicPush().Bytes
	if len(static.Match(payload)) == 0 {
		t.Fatal("baseline must match cleartext")
	}
	m := New(7)
	m.SubstProb = 1.0 // substitute aggressively
	m.JunkProb = 1.0  // junk in every gap splits adjacent-instruction signatures
	evaded := 0
	for i := 0; i < 50; i++ {
		mutated, err := m.Mutate(payload)
		if err != nil {
			t.Fatal(err)
		}
		specific := 0
		for _, name := range static.Match(mutated) {
			if name != "nop-sled" && name != "binsh-string" {
				// The /bin/sh *stack push* signatures are the
				// byte-level ones mutation destroys; the jmp-call-pop
				// literal string would legitimately survive, but
				// classic-push has none.
				specific++
			}
		}
		if specific == 0 {
			evaded++
		}
	}
	if evaded < 25 {
		t.Errorf("only %d/50 mutated variants evaded static signatures", evaded)
	}
}

func TestMutateChangesBytes(t *testing.T) {
	m := New(1)
	code := shellcode.ClassicPush().Bytes
	mutated, err := m.Mutate(code)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(mutated, code) {
		t.Error("mutation produced identical bytes")
	}
	// Mutations of mutations keep working (idempotent interface).
	again, err := m.Mutate(mutated)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(again, mutated) {
		t.Error("second-generation mutation identical")
	}
}

func TestMutatePreservesStraightLineSemantics(t *testing.T) {
	// Property: for straight-line constant-register code, the abstract
	// evaluator computes the same final register values before and
	// after mutation.
	build := func() []byte {
		return x86.NewAsm().
			MovRI(x86.EAX, 0x1111).
			MovRI(x86.EBX, 0x31).
			AddRI(x86.EBX, 0x64).
			MovRR(x86.ECX, x86.EBX).
			XorRR(x86.EDX, x86.EDX).
			I(x86.NOT, x86.RegOp(x86.EDX)).
			SubRI(x86.EAX, 0x11).
			Nop().
			MustBytes()
	}
	code := build()
	want := finalConsts(code)
	m := New(3)
	for round := 0; round < 20; round++ {
		mutated, err := m.Mutate(code)
		if err != nil {
			t.Fatal(err)
		}
		got := finalConsts(mutated)
		for _, r := range []x86.Reg{x86.EAX, x86.EBX, x86.ECX, x86.EDX} {
			if got[r] != want[r] {
				t.Fatalf("round %d: %v = %#x, want %#x", round, r, got[r], want[r])
			}
		}
	}
}

// finalConsts runs the IR evaluator and reports the known register
// values after the last instruction.
func finalConsts(code []byte) map[x86.Reg]uint32 {
	// Append a nop so the post-state of the last real instruction is
	// observable as the pre-state of the nop.
	code = append(append([]byte{}, code...), 0x90)
	p := ir.Lift(x86.SweepAll(code))
	last := &p.Nodes[len(p.Nodes)-1]
	out := make(map[x86.Reg]uint32)
	for _, r := range []x86.Reg{x86.EAX, x86.ECX, x86.EDX, x86.EBX, x86.ESI, x86.EDI} {
		if v, ok := last.ConstBefore(r); ok {
			out[r] = v
		}
	}
	return out
}

func TestMutateBranchFixup(t *testing.T) {
	// A loop over mutation rounds: branch targets must stay correct
	// (the loop still targets the xor) even as junk grows the body.
	code := x86.NewAsm().
		Label("decode").
		I(x86.XOR, x86.MemOp(x86.MemRef{Base: x86.EAX, Size: 1, Scale: 1}), x86.ImmOp(0x42)).
		IncR(x86.EAX).
		Loop("decode").
		I(x86.RET).
		MustBytes()
	m := New(11)
	a := sem.NewAnalyzer(sem.BuiltinTemplates())
	for round := 0; round < 30; round++ {
		mutated, err := m.Mutate(code)
		if err != nil {
			t.Fatal(err)
		}
		// The loop must still decode to a backward branch landing on
		// an instruction boundary, and the template must still match.
		found := false
		for _, d := range a.AnalyzeFrame(mutated) {
			if d.Template == "xor-decrypt-loop" {
				found = true
			}
		}
		if !found {
			t.Fatalf("round %d: mutated loop not detected\n% x", round, mutated)
		}
	}
}

func TestMutateRelaxation(t *testing.T) {
	// A short forward jmp over a region that junk will inflate past
	// 127 bytes must be relaxed to the near form.
	// 24 movs = 120 bytes: the original short jmp is in range, but
	// junk insertion inflates the region past 127 bytes.
	a := x86.NewAsm()
	a.JmpShort("end")
	for i := 0; i < 24; i++ {
		a.MovRI(x86.EAX, int64(i)) // 5 bytes each, plenty of junk slots
	}
	a.Label("end").I(x86.RET)
	code := a.MustBytes()

	m := New(13)
	m.JunkProb = 0.9
	mutated, err := m.Mutate(code)
	if err != nil {
		t.Fatal(err)
	}
	if len(mutated) <= len(code) {
		t.Fatal("junk insertion did not grow the code")
	}
	// Find the (possibly junk-preceded) jmp; its target must reach the
	// ret through neutral junk only.
	var jmp *x86.Inst
	for _, in := range x86.SweepAll(mutated) {
		if in.Op == x86.JMP {
			cp := in
			jmp = &cp
			break
		}
	}
	if jmp == nil {
		t.Fatal("no jmp in mutated code")
	}
	if jmp.Target <= jmp.Addr+127 {
		t.Errorf("jmp not relaxed: target %d from %d", jmp.Target, jmp.Addr)
	}
	// Walk from the target: only junk until the ret.
	pos := int(jmp.Target)
	for {
		in, err := x86.Decode(mutated, pos)
		if err != nil {
			t.Fatalf("target walk at %d: %v", pos, err)
		}
		if in.Op == x86.RET {
			break
		}
		switch in.Op {
		case x86.NOP, x86.MOV, x86.LEA, x86.PUSH, x86.POP:
			pos += int(in.Len)
		default:
			t.Fatalf("unexpected %v between jmp target and ret", in)
		}
	}
}

func TestMutateErrors(t *testing.T) {
	m := New(1)
	// Undecodable input.
	if _, err := m.Mutate([]byte{0x0f, 0xff, 0x90}); err == nil {
		t.Error("bad input accepted")
	}
	// Branch into the middle of an instruction.
	bad := []byte{0xeb, 0x01, 0xb8, 0x01, 0x02, 0x03, 0x04, 0xc3} // jmp into mov's imm
	if _, err := m.Mutate(bad); err == nil {
		t.Error("mid-instruction target accepted")
	}
}

func TestMutateLoopOutOfRange(t *testing.T) {
	// A loop spanning ~120 bytes: heavy junk pushes it past rel8 and
	// LOOP cannot be relaxed; Mutate must report it rather than emit
	// broken code.
	a := x86.NewAsm()
	a.Label("top")
	for i := 0; i < 24; i++ {
		a.MovRI(x86.EAX, int64(i)) // 120 bytes: in range before mutation
	}
	a.Loop("top")
	code := a.MustBytes()
	m := New(5)
	m.JunkProb = 1.0
	if _, err := m.Mutate(code); err == nil {
		t.Skip("junk happened to stay small") // rare with JunkProb 1.0
	}
}

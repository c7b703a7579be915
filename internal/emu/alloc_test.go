package emu

import (
	"testing"

	"semnids/internal/x86"
)

// TestRunAllocs pins the emulator's step loop at zero allocations: a
// decoded instruction lives on the stack, and only the error paths
// format it (as a string, so the instruction itself never escapes).
// The payload is a GetPC xor decoder that stops at int 0x80 after
// decrypting 64 bytes — a few hundred steps per run.
func TestRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	a := x86.NewAsm()
	a.Jmp("getpc").
		Label("decoder").
		PopR(x86.ESI).
		MovRI(x86.ECX, 64).
		Label("loop").
		I(x86.XOR, x86.MemOp(x86.MemRef{Base: x86.ESI, Size: 1, Scale: 1}), x86.RegOp(x86.BL)).
		IncR(x86.ESI).
		Loop("loop").
		IntN(0x80).
		Label("getpc").
		Call("decoder")
	image := append(a.MustBytes(), make([]byte, 64)...)

	m := New(image)
	run := func() {
		copy(m.Mem, image)
		m.Regs = [8]uint32{}
		m.Regs[x86.ESP.Num()] = stackBase
		m.Steps, m.stack = 0, m.stack[:0]
		stop, err := m.Run(0)
		if err != nil || stop.Kind != StopSyscall {
			t.Fatalf("run: %+v, %v", stop, err)
		}
	}
	run()
	if m.Steps < 64*3 {
		t.Fatalf("decoder ran %d steps, want the whole loop", m.Steps)
	}
	if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
		t.Fatalf("Machine.Run allocates %.1f times per run (%d steps), want 0", allocs, m.Steps)
	}
}

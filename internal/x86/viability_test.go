package x86

import (
	"math/rand"
	"testing"
)

// naiveViable recomputes DecodeCache.Viable the obvious way: walk the
// chain from start, split it into flow-unbroken runs, poison runs
// reached through an in-frame jmp/call, and report whether any run
// covers a wanted template's requirements.
func naiveViable(b []byte, start int, t *ViabilityTable, want uint64) bool {
	var seg uint64
	for pos := start; pos < len(b); {
		op, l := BAD, 1
		if in, err := Decode(b, pos); err == nil {
			op, l = in.Op, int(in.Len)
			if (op == JMP || op == CALL) && in.HasTarget &&
				in.Target >= 0 && int(in.Target) < len(b) {
				return want != 0
			}
		}
		if op == BAD || op == RET || op == HLT {
			seg = 0
		} else {
			seg |= t.ops[op]
		}
		if t.covered(seg)&want != 0 {
			return true
		}
		pos += l
	}
	return false
}

func testViabilityTable() *ViabilityTable {
	var xorMask, advMask, branchMask, intMask OpSet
	xorMask.Add(XOR)
	xorMask.Add(ADD)
	xorMask.Add(SUB)
	advMask.Add(INC)
	advMask.Add(DEC)
	advMask.Add(ADD)
	advMask.Add(SUB)
	advMask.Add(LEA)
	branchMask.Add(JCC)
	branchMask.Add(LOOP)
	branchMask.Add(JECXZ)
	intMask.Add(INT)
	return NewViabilityTable(
		[]OpSet{xorMask, advMask, branchMask, intMask},
		// Template 0: xor ∧ advance ∧ back edge. Template 1: syscall.
		[]uint64{0b0111, 0b1000},
	)
}

func viabilityCorpora() map[string][]byte {
	junk := make([]byte, 1024)
	rand.New(rand.NewSource(7)).Read(junk)
	text := []byte("GET /index.html HTTP/1.1\r\nHost: example.com\r\nAccept: text/plain\r\n\r\n")
	code := []byte{
		0xb9, 0x10, 0x00, 0x00, 0x00, // mov ecx, 0x10
		0x80, 0x36, 0x55, // xor byte [esi], 0x55
		0x46,       // inc esi
		0xe2, 0xfa, // loop -6
		0xc3,       // ret (breaks the run)
		0xcd, 0x80, // int 0x80
	}
	jumpy := []byte{
		0xeb, 0x02, // jmp +2 (connector: conservatively viable)
		0xc3, 0x90, // ret; nop
		0x80, 0x36, 0x55, // xor byte [esi], 0x55
	}
	return map[string][]byte{
		"junk":  junk,
		"text":  text,
		"code":  code,
		"jumpy": jumpy,
		"tiny":  {0x90},
	}
}

// TestCacheViableDifferential proves the memoized chain-sharing form
// (DecodeCache.Viable) agrees with the same reference at every offset,
// in several sweep/viability interleavings: viability asked cold,
// after the analyzer-style offset-0 sweep, and after sweeping all
// offsets first.
func TestCacheViableDifferential(t *testing.T) {
	table := testViabilityTable()
	wants := []uint64{0b01, 0b10, 0b11}
	orders := map[string]func(c *DecodeCache, n int){
		"cold":        func(c *DecodeCache, n int) {},
		"after-sweep": func(c *DecodeCache, n int) { c.Sweep(0) },
		"after-all": func(c *DecodeCache, n int) {
			for off := 0; off < n && off < 8; off++ {
				c.Sweep(off)
			}
		},
	}
	for name, b := range viabilityCorpora() {
		for oname, prep := range orders {
			c := NewDecodeCache(b)
			prep(c, len(b))
			for start := range b {
				for _, want := range wants {
					got := c.Viable(start, table, want)
					ref := naiveViable(b, start, table, want)
					if got != ref {
						t.Errorf("%s/%s: Viable(start=%d, want=%#x) = %v, reference %v",
							name, oname, start, want, got, ref)
					}
				}
			}
			// Sweeps after viability must still be byte-identical to
			// the naive decoder (the viability pass must not corrupt
			// the memo).
			for start := 0; start < len(b) && start < 6; start++ {
				got := c.Sweep(start)
				want := Sweep(b, start)
				if len(got) != len(want) {
					t.Fatalf("%s/%s: sweep %d length %d, want %d", name, oname, start, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s/%s: sweep %d inst %d differs", name, oname, start, i)
					}
				}
			}
		}
	}
}

// TestCacheViableReset asserts the chain memo rebuilds after Reset.
func TestCacheViableReset(t *testing.T) {
	table := testViabilityTable()
	c := NewDecodeCache([]byte{0xcd, 0x80}) // int 0x80
	if !c.Viable(0, table, 0b10) {
		t.Fatal("syscall not viable on int 0x80 frame")
	}
	c.Reset([]byte{0x90, 0x90})
	if c.Viable(0, table, 0b11) {
		t.Fatal("nop frame viable after Reset")
	}
}

// TestViableRuns pins the run semantics directly: a complete
// decrypt-loop shape is viable from its start, the syscall after a ret
// is viable for the syscall template only, and a run split by ret does
// not leak bits across.
func TestViableRuns(t *testing.T) {
	table := testViabilityTable()
	code := []byte{
		0x80, 0x36, 0x55, // xor byte [esi], 0x55
		0x46,       // inc esi
		0x75, 0xfa, // jnz -6
		0xc3,       // ret
		0x90, 0x90, // nop; nop (run with nothing in it)
	}
	c := NewDecodeCache(code)
	if !c.Viable(0, table, 0b01) {
		t.Error("decrypt loop not viable from offset 0")
	}
	if c.Viable(0, table, 0b10) {
		t.Error("syscall template viable with no int 0x80 in frame")
	}
	if c.Viable(7, table, 0b11) {
		t.Error("post-ret nop run reported viable")
	}

	c.Reset([]byte{0xc3, 0xcd, 0x80}) // ret; int 0x80
	if !c.Viable(0, table, 0b10) {
		t.Error("syscall after ret not viable (runs must restart)")
	}
	if c.Viable(0, table, 0b01) {
		t.Error("decrypt loop viable in ret; int 0x80")
	}
}

// TestViableEdges covers degenerate inputs.
func TestViableEdges(t *testing.T) {
	table := testViabilityTable()
	if NewDecodeCache(nil).Viable(0, table, ^uint64(0)) {
		t.Error("empty frame viable")
	}
	if NewDecodeCache([]byte{0x90}).Viable(5, table, ^uint64(0)) {
		t.Error("start past end viable")
	}
	if NewDecodeCache([]byte{0xcd, 0x80}).Viable(0, table, 0) {
		t.Error("empty want set viable")
	}
	if NewDecodeCache([]byte{0xcd, 0x80}).Viable(0, nil, ^uint64(0)) {
		t.Error("nil table viable")
	}
}

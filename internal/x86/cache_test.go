package x86_test

import (
	"math/rand"
	"testing"

	"semnids/internal/exploits"
	"semnids/internal/shellcode"
	"semnids/internal/x86"
)

// corpora returns the byte sets the differential tests sweep: random
// data at several densities (junk-heavy frames are the common case on
// a sensor), plus real exploit payloads and a packed binary.
func corpora(t testing.TB) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	rng := rand.New(rand.NewSource(0x5eed))
	for _, n := range []int{1, 2, 7, 64, 512, 4096} {
		b := make([]byte, n)
		rng.Read(b)
		out["random-"+itoa(n)] = b
	}
	// Text-heavy buffer: long runs of printable bytes decode very
	// differently from uniform random bytes.
	text := make([]byte, 1024)
	for i := range text {
		text[i] = byte('A' + i%26)
	}
	out["text"] = text
	for _, e := range exploits.Table1Exploits() {
		out["exploit-"+e.Name] = e.Payload
	}
	out["netsky"] = exploits.NetskyBinary(7, 8*1024)
	out["shellcode"] = shellcode.ClassicPush().Bytes
	return out
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func instEqual(a, b x86.Inst) bool {
	return a == b
}

// TestDecodeCacheDifferential asserts that the memoized sweep is
// byte-identical to the naive decoder at every start offset, in every
// interleaving of offset requests, over random and exploit corpora.
// This is the contract the whole hot path rests on: memoization must
// be invisible to the analyzer.
func TestDecodeCacheDifferential(t *testing.T) {
	for name, data := range corpora(t) {
		t.Run(name, func(t *testing.T) {
			maxOff := len(data)
			if maxOff > 16 {
				maxOff = 16
			}
			// Forward, reverse and interleaved request orders: the
			// cache's canonical chain is seeded by the first request,
			// so the shared-tail logic must hold whichever offset
			// comes first.
			orders := [][]int{nil, nil, {3, 1, 0, 2}}
			for off := 0; off < maxOff; off++ {
				orders[0] = append(orders[0], off)
				orders[1] = append([]int{off}, orders[1]...)
			}
			for oi, order := range orders {
				c := x86.NewDecodeCache(data)
				for _, off := range order {
					if off >= len(data) {
						continue
					}
					want := x86.Sweep(data, off)
					got := c.Sweep(off)
					if len(got) != len(want) {
						t.Fatalf("order %d offset %d: %d insts, want %d", oi, off, len(got), len(want))
					}
					for i := range want {
						if !instEqual(got[i], want[i]) {
							t.Fatalf("order %d offset %d inst %d:\n got %v (addr %#x)\nwant %v (addr %#x)",
								oi, off, i, got[i], got[i].Addr, want[i], want[i].Addr)
						}
					}
				}
			}
		})
	}
}

// TestDecodeCacheReset asserts a reused (pooled) cache decodes a new
// frame correctly after Reset, with no state leaking between frames.
func TestDecodeCacheReset(t *testing.T) {
	c := x86.NewDecodeCache(nil)
	rng := rand.New(rand.NewSource(99))
	for frame := 0; frame < 50; frame++ {
		data := make([]byte, 16+rng.Intn(600))
		rng.Read(data)
		c.Reset(data)
		for off := 0; off < 4 && off < len(data); off++ {
			want := x86.Sweep(data, off)
			got := c.Sweep(off)
			if len(got) != len(want) {
				t.Fatalf("frame %d offset %d: %d insts, want %d", frame, off, len(got), len(want))
			}
			for i := range want {
				if !instEqual(got[i], want[i]) {
					t.Fatalf("frame %d offset %d inst %d: got %v want %v", frame, off, i, got[i], want[i])
				}
			}
		}
	}
}

// TestDecodeCacheCodeRatio asserts the cached code ratio matches the
// naive computation.
func TestDecodeCacheCodeRatio(t *testing.T) {
	for name, data := range corpora(t) {
		if got, want := x86.NewDecodeCache(data).CodeRatio(), x86.CodeRatio(data); got != want {
			t.Errorf("%s: cached CodeRatio=%v, naive=%v", name, got, want)
		}
	}
	if got := x86.NewDecodeCache(nil).CodeRatio(); got != 0 {
		t.Errorf("empty frame: CodeRatio=%v, want 0", got)
	}
}

// TestThreadOrderAppendMatchesThreadOrder pins the position-returning
// variant, and ThreadOrder built on it, to a naive map-based walk. The
// misaligned sweeps of one frame follow each other, so an address
// table entry left over from the previous sweep would redirect a jump.
func TestThreadOrderAppendMatchesThreadOrder(t *testing.T) {
	for name, data := range corpora(t) {
		for off := 0; off < 4 && off < len(data); off++ {
			insts := x86.Sweep(data, off)
			want := naiveThreadOrder(insts)
			got := x86.ThreadOrderAppend(nil, insts)
			copies := x86.ThreadOrder(insts)
			if len(got) != len(want) || len(copies) != len(want) {
				t.Fatalf("%s@%d: %d positions, %d insts, want %d", name, off, len(got), len(copies), len(want))
			}
			for i := range want {
				if !instEqual(insts[got[i]], want[i]) || !instEqual(copies[i], want[i]) {
					t.Fatalf("%s@%d inst %d: got %v / %v want %v", name, off, i, insts[got[i]], copies[i], want[i])
				}
			}
		}
	}
	// A jump into the middle of an instruction stops the walk, even
	// when the previous call saw an instruction at that address.
	nops := []byte{0x90, 0x90, 0x90, 0x90, 0x90, 0x90, 0x90, 0x90}
	x86.ThreadOrderAppend(nil, x86.SweepAll(nops))
	midJump := append([]byte{0xb8, 0, 0, 0, 0, 0xeb, 0xfb}, nops...) // mov eax, 0; jmp 2
	if got := x86.ThreadOrderAppend(nil, x86.SweepAll(midJump)); len(got) != 1 {
		t.Fatalf("jump into an instruction threaded to positions %v, want [0]", got)
	}
}

// naiveThreadOrder is the reference jmp-threading walk: follow
// fall-through, thread unconditional jumps and in-frame calls, stop at
// ret/hlt, an unresolved jump or a revisit.
func naiveThreadOrder(insts []x86.Inst) []x86.Inst {
	at := map[int32]int{}
	for i := range insts {
		at[insts[i].Addr] = i
	}
	var out []x86.Inst
	seen := map[int]bool{}
	for i := 0; i < len(insts) && !seen[i]; {
		seen[i] = true
		in := insts[i]
		if in.Op == x86.JMP && in.HasTarget {
			j, ok := at[in.Target]
			if !ok {
				break
			}
			i = j
			continue
		}
		out = append(out, in)
		if in.Op == x86.RET || in.Op == x86.HLT {
			break
		}
		if j, ok := at[in.Target]; in.Op == x86.CALL && in.HasTarget && ok {
			i = j
			continue
		}
		i++
	}
	return out
}

// TestDecodeAllocs pins the allocation behavior of single-instruction
// decode: Decode must not allocate at all.
func TestDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates; allocation pin not meaningful")
	}
	code := exploits.NetskyBinary(3, 1024)
	pos := 0
	allocs := testing.AllocsPerRun(200, func() {
		in, err := x86.Decode(code, pos)
		if err != nil {
			pos++
		} else {
			pos += int(in.Len)
		}
		if pos >= len(code)-16 {
			pos = 0
		}
	})
	if allocs > 0 {
		t.Errorf("Decode allocates %.1f objects per call, want 0", allocs)
	}
}

// TestSweepCachedAllocs pins the steady-state allocation behavior of
// the memoized sweep: after warm-up, re-sweeping a same-size frame
// through a Reset cache must not allocate.
func TestSweepCachedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates; allocation pin not meaningful")
	}
	code := exploits.NetskyBinary(5, 4096)
	c := x86.NewDecodeCache(nil)
	// Warm up the internal tables.
	c.Reset(code)
	for off := 0; off < 4; off++ {
		c.Sweep(off)
	}
	allocs := testing.AllocsPerRun(20, func() {
		c.Reset(code)
		for off := 0; off < 4; off++ {
			c.Sweep(off)
		}
	})
	if allocs > 1 {
		t.Errorf("cached sweep allocates %.1f objects per frame, want <= 1", allocs)
	}
}

package sem

import (
	"math/rand"
	"slices"
	"testing"

	"semnids/internal/ir"
	"semnids/internal/x86"
)

// junkFrame returns a deterministic junk-heavy frame (the common case
// for an analyzer fed by a sensor: binary data that is not an
// exploit).
func junkFrame(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// TestAnalyzeFrameAllocs pins the steady-state allocation behavior of
// the hot path: analyzing a benign frame with a warmed scratch pool
// must not allocate per frame beyond a tiny fixed slack (the scratch
// pool itself may be repopulated after a GC).
func TestAnalyzeFrameAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates; allocation pin not meaningful")
	}
	a := NewAnalyzer(BuiltinTemplates())
	frame := junkFrame(42, 2048)
	// Warm up: grows the pooled scratch to frame size and compiles the
	// templates.
	for i := 0; i < 3; i++ {
		if ds := a.AnalyzeFrame(frame); len(ds) != 0 {
			t.Fatalf("junk frame unexpectedly detected: %v", ds)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		a.AnalyzeFrame(frame)
	})
	// The old matcher allocated two maps per candidate node — hundreds
	// of thousands of objects for a frame this size. Steady state is
	// now zero; 2 leaves slack for pool refills after a GC cycle.
	if allocs > 2 {
		t.Errorf("AnalyzeFrame allocates %.1f objects per benign frame, want <= 2", allocs)
	}
}

// TestAnalyzeFrameCachedEquivalence asserts that analysis through a
// pre-built (extraction-shared) decode cache produces exactly the same
// detections as the self-contained path, over junk, text and
// detection-triggering frames.
func TestAnalyzeFrameCachedEquivalence(t *testing.T) {
	a := NewAnalyzer(BuiltinTemplates())
	frames := [][]byte{
		junkFrame(1, 64),
		junkFrame(2, 1024),
		junkFrame(3, 4096),
	}
	// A frame that actually triggers the xor template: xor byte
	// [esi], 0x55; inc esi; jnz back.
	frames = append(frames, []byte{
		0x80, 0x36, 0x55, // xor byte [esi], 0x55
		0x46,       // inc esi
		0x75, 0xfa, // jnz -6
	})
	for i, frame := range frames {
		plain := a.AnalyzeFrame(frame)
		cache := x86.NewDecodeCache(frame)
		// Pre-sweep offset 0 as the extraction stage's code-ratio
		// estimate does, then analyze through the same cache.
		cache.CodeRatio()
		cached := a.AnalyzeFrameCached(frame, cache)
		if len(plain) != len(cached) {
			t.Fatalf("frame %d: %d detections plain, %d cached", i, len(plain), len(cached))
		}
		for j := range plain {
			if plain[j].String() != cached[j].String() {
				t.Errorf("frame %d detection %d: plain %v, cached %v", i, j, plain[j], cached[j])
			}
			for k, v := range plain[j].Bindings {
				if cached[j].Bindings[k] != v {
					t.Errorf("frame %d detection %d binding %s: plain %s, cached %s",
						i, j, k, v, cached[j].Bindings[k])
				}
			}
		}
	}
}

// TestTemplateCompileIdempotent asserts Compile is a safe no-op when
// repeated and that compiled state survives concurrent first use.
func TestTemplateCompileIdempotent(t *testing.T) {
	tpl := XorDecryptLoop()
	c1 := tpl.Compile().compiled()
	c2 := tpl.Compile().compiled()
	if c1 != c2 {
		t.Fatal("Compile rebuilt the compiled form")
	}
	done := make(chan *compiledTemplate, 8)
	fresh := AltDecodeLoop()
	for i := 0; i < 8; i++ {
		go func() { done <- fresh.compiled() }()
	}
	first := <-done
	for i := 1; i < 8; i++ {
		if got := <-done; got != first {
			t.Fatal("concurrent compilation produced distinct compiled forms")
		}
	}
}

// TestCompiledPrefilterSuperset asserts the opcode prefilter never
// rejects an order the full search would match: every statement kind's
// mask must accept every opcode matchStmt can accept. It drives the
// matcher over single-instruction sequences for each opcode and
// cross-checks against the mask.
func TestCompiledPrefilterSuperset(t *testing.T) {
	kinds := []Stmt{
		{Kind: SMemLoad},
		{Kind: SMemStore},
		{Kind: SAdvance},
		{Kind: SBackEdge},
		{Kind: SSyscall, Num: 1},
		{Kind: SConstInRange, Lo: 1, Hi: 2},
		{Kind: SIndirect},
	}
	for _, st := range kinds {
		mask, restricted := stmtOpMask(&st)
		if !restricted {
			continue
		}
		// Masks must cover at least the opcodes the matcher's
		// acceptance logic names for the kind; spot-check a few known
		// required members.
		var need []x86.Opcode
		switch st.Kind {
		case SMemLoad:
			need = []x86.Opcode{x86.MOV, x86.LODSB, x86.LODSD}
		case SMemStore:
			need = []x86.Opcode{x86.MOV, x86.STOSB, x86.STOSD}
		case SAdvance:
			need = []x86.Opcode{x86.INC, x86.DEC, x86.ADD, x86.SUB, x86.LEA}
		case SBackEdge:
			need = []x86.Opcode{x86.JCC, x86.LOOP, x86.LOOPE, x86.LOOPNE, x86.JECXZ}
		case SSyscall:
			need = []x86.Opcode{x86.INT}
		case SConstInRange:
			need = []x86.Opcode{x86.MOV, x86.PUSH}
		case SIndirect:
			need = []x86.Opcode{x86.CALL, x86.JMP}
		}
		for _, op := range need {
			if !mask.Has(op) {
				t.Errorf("kind %d: prefilter mask missing opcode %v", st.Kind, op)
			}
		}
	}
}

// TestStmtVocabSuperset checks the search's per-node vocabulary gate
// exhaustively over opcodes: for every opcode, across a spread of
// operand shapes with known register constants, whenever matchStmt
// accepts an instruction for a restricted statement, the statement's
// vocabulary contains that opcode. The gate skips matchStmt for every
// other opcode, so this is what keeps the gate invisible to detection.
func TestStmtVocabSuperset(t *testing.T) {
	stmts := []Stmt{
		{Kind: SMemXform, Ptr: "p", Key: "k", Ops: []x86.Opcode{x86.XOR, x86.ADD, x86.NOT}},
		{Kind: SMemLoad, Ptr: "p", Reg: "r"},
		{Kind: SMemStore, Ptr: "p"},
		{Kind: SRegXform, Ops: []x86.Opcode{x86.ROL, x86.OR}},
		{Kind: SAdvance, Ptr: "p"},
		{Kind: SBackEdge},
		{Kind: SSyscall, Num: 1},
		{Kind: SConstInRange, Reg: "r", Lo: 1, Hi: 2},
		{Kind: SIndirect, Reg: "r"},
	}
	mem := x86.MemOp(x86.MemRef{Base: x86.EAX, Disp: 1, Size: 1, Scale: 1})
	reg, reg2, imm := x86.RegOp(x86.EAX), x86.RegOp(x86.EBX), x86.ImmOp(1)
	shapes := [][3]x86.Operand{
		{}, {reg}, {mem}, {x86.ImmOp(0x80)}, {imm},
		{reg, imm}, {reg, reg2}, {reg, mem}, {mem, reg2}, {mem, imm},
	}
	// Every register starts known, so constant-dependent statements
	// can accept.
	var prefix []x86.Inst
	for r := x86.EAX; r <= x86.EDI; r++ {
		prefix = append(prefix, x86.Inst{Op: x86.MOV, Args: [3]x86.Operand{x86.RegOp(r), imm}})
	}
	cts := make([]*compiledTemplate, len(stmts))
	for si := range stmts {
		cts[si] = compileTemplate(&Template{Name: "t", Stmts: stmts[si : si+1]})
	}
	accepted := make([]int, len(stmts))
	var m matcher
	for op := 0; op < 256; op++ {
		for _, args := range shapes {
			for _, branch := range []bool{false, true} {
				in := x86.Inst{Op: x86.Opcode(op), Args: args, HasTarget: branch}
				insts := append(append([]x86.Inst(nil), prefix...), in)
				for i := range insts {
					insts[i].Addr, insts[i].Len = int32(i), 1
				}
				prog := ir.Lift(insts)
				m.reset(prog.Raw, prog.Insts, nil)
				for si, ct := range cts {
					st := &ct.stmts[0]
					if !m.matchStmt(st, len(insts)-1, &binding{}) {
						continue
					}
					accepted[si]++
					if !st.anyOp && !st.vocab.Has(in.Op) {
						t.Errorf("kind %d accepts %v outside its vocabulary", st.Kind, &in)
					}
				}
			}
		}
	}
	for si, n := range accepted {
		if n == 0 {
			t.Errorf("kind %d accepted no instruction; the check is vacuous", stmts[si].Kind)
		}
	}
}

// TestMatcherReuseMatchesFresh rebinds one matcher to orders of frames
// of shrinking and growing size and checks every per-order table, and
// every address lookup, against a fresh matcher: reset clears only the
// address-index entries it set, so a stale entry would surface here as
// a back-edge target that is not in the current order.
func TestMatcherReuseMatchesFresh(t *testing.T) {
	frames := [][]byte{junkFrame(7, 3000), junkFrame(8, 200), junkFrame(9, 1200), junkFrame(10, 40)}
	var reused matcher
	var prog ir.Program
	for fi, frame := range frames {
		for off := 0; off < 4; off++ {
			prog.Reuse(x86.Sweep(frame, off))
			for oi, nodes := range [][]ir.Node{prog.Nodes, prog.Raw} {
				var fresh matcher
				fresh.reset(nodes, prog.Insts, frame)
				reused.reset(nodes, prog.Insts, frame)
				if !slices.Equal(reused.ops, fresh.ops) || !slices.Equal(reused.addrs, fresh.addrs) ||
					!slices.Equal(reused.defCount, fresh.defCount) || !slices.Equal(reused.flowCount, fresh.flowCount) ||
					reused.opsSeen != fresh.opsSeen {
					t.Fatalf("frame %d offset %d order %d: reused tables differ from fresh", fi, off, oi)
				}
				for a := int32(-1); int(a) <= len(reused.addrIndex); a++ {
					j1, ok1 := reused.lookupAddr(a)
					j2, ok2 := fresh.lookupAddr(a)
					if j1 != j2 || ok1 != ok2 {
						t.Fatalf("frame %d offset %d order %d: lookupAddr(%d) = %d,%v, fresh %d,%v", fi, off, oi, a, j1, ok1, j2, ok2)
					}
				}
			}
		}
	}
}

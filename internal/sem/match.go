package sem

import (
	"bytes"
	"math/bits"
	"slices"

	"semnids/internal/ir"
	"semnids/internal/x86"
)

// matcher holds the per-sequence matching context. A matcher is
// reusable: reset rebinds it to a new node sequence, retaining the
// grown index buffers, so the hot path builds its per-order tables
// without allocating.
type matcher struct {
	nodes []ir.Node
	insts []x86.Inst // the lifted sweep the nodes refer into
	frame []byte

	// ops[i] is the opcode of nodes[i]'s instruction, kept flat so the
	// search's vocabulary check does not chase the node's reference.
	ops []x86.Opcode

	// defCount[i][fam] = number of defs of register family fam in
	// nodes[0:i]; lets the clobber check run in O(1) per candidate.
	defCount [][8]int32

	// flowCount[i] = number of flow-breaking nodes (undecodable bytes,
	// ret, hlt) in nodes[0:i]. A matched behavior must be control-flow
	// connected: execution cannot pass through a ret or an
	// undecodable byte between one matched statement and the next.
	flowCount []int32

	// addrIndex maps instruction frame offsets to sequence position
	// (-1 = no instruction at that offset). Indexed directly by
	// offset, which the SBackEdge check hits once per candidate. It
	// only ever grows; reset clears just the entries the previous
	// sequence set, which addrs records.
	addrIndex []int32
	addrs     []int32

	// opsSeen is the set of opcodes present in nodes; compiled
	// template prefilters reject impossible templates against it
	// before any search starts.
	opsSeen opMask

	matched []int // scratch for the matched node indices

	// binds is the binding stack: binds[d] is the candidate binding at
	// search depth d. An explicit stack (rather than locals passed by
	// pointer through the recursion) keeps candidate bindings out of
	// the heap — escape analysis must otherwise assume a pointer
	// passed into a recursive call escapes.
	binds []binding

	steps int // backtracking budget
}

// maxSearchSteps bounds the backtracking search so that adversarial
// frames cannot consume unbounded CPU in the analyzer.
const maxSearchSteps = 1 << 20

// reset rebinds the matcher to a node sequence over the lifted sweep
// insts, rebuilding the def/flow prefix sums, the address index and
// the opcode presence set.
func (m *matcher) reset(nodes []ir.Node, insts []x86.Inst, frame []byte) {
	m.nodes, m.insts, m.frame = nodes, insts, frame
	m.opsSeen = opMask{}

	for _, a := range m.addrs {
		m.addrIndex[a] = -1
	}
	n := len(nodes)
	m.ops = slices.Grow(m.ops[:0], n)[:n]
	m.addrs = slices.Grow(m.addrs[:0], n)[:n]
	m.defCount = slices.Grow(m.defCount[:0], n+1)[:n+1]
	m.flowCount = slices.Grow(m.flowCount[:0], n+1)[:n+1]
	m.defCount[0] = [8]int32{}
	m.flowCount[0] = 0

	maxAddr := int32(-1)
	for i := range nodes {
		in := &insts[nodes[i].Idx]
		m.ops[i], m.addrs[i] = in.Op, in.Addr
		maxAddr = max(maxAddr, in.Addr)
		m.opsSeen.Add(in.Op)

		row := m.defCount[i]
		for defs := nodes[i].Defs; defs != 0; defs &= defs - 1 {
			row[bits.TrailingZeros8(uint8(defs))]++
		}
		m.defCount[i+1] = row

		fc := m.flowCount[i]
		switch in.Op {
		case x86.BAD, x86.RET, x86.HLT:
			fc++
		}
		m.flowCount[i+1] = fc
	}

	if need, old := int(maxAddr)+1, len(m.addrIndex); need > old {
		m.addrIndex = slices.Grow(m.addrIndex, need-old)[:need]
		for i := old; i < need; i++ {
			m.addrIndex[i] = -1
		}
	}
	for i, a := range m.addrs {
		m.addrIndex[a] = int32(i)
	}
}

// lookupAddr returns the sequence position of the instruction at frame
// offset addr, if any.
func (m *matcher) lookupAddr(addr int32) (int, bool) {
	if addr < 0 || int(addr) >= len(m.addrIndex) {
		return 0, false
	}
	if j := m.addrIndex[addr]; j >= 0 {
		return int(j), true
	}
	return 0, false
}

// canMatch is the per-order prefilter: every mandatory restricted-
// vocabulary statement needs at least one instruction with an
// acceptable opcode somewhere in the sequence.
func (m *matcher) canMatch(ct *compiledTemplate) bool {
	for i := range ct.opNeeds {
		if !ct.opNeeds[i].Intersects(&m.opsSeen) {
			return false
		}
	}
	return true
}

// flowBroken reports whether control flow is broken strictly between
// nodes lo and hi.
func (m *matcher) flowBroken(lo, hi int) bool {
	if hi <= lo+1 {
		return false
	}
	return m.flowCount[hi]-m.flowCount[lo+1] > 0
}

// defsInRange reports whether any register family in set is defined by
// nodes strictly between lo and hi.
func (m *matcher) defsInRange(set ir.RegSet, lo, hi int) bool {
	if hi <= lo+1 {
		return false
	}
	from, to := &m.defCount[lo+1], &m.defCount[hi]
	for ; set != 0; set &= set - 1 {
		if f := bits.TrailingZeros8(uint8(set)); to[f] > from[f] {
			return true
		}
	}
	return false
}

// match searches nodes (one specific order) for the compiled template.
// The returned binding and index slice are the matcher's scratch,
// valid until the next match call.
func (m *matcher) match(ct *compiledTemplate) (*binding, []int, bool) {
	if !m.canMatch(ct) {
		return nil, nil, false
	}
	m.steps = 0
	if cap(m.binds) < len(ct.stmts)+1 {
		m.binds = make([]binding, len(ct.stmts)+1)
	} else {
		m.binds = m.binds[:len(ct.stmts)+1]
	}
	m.binds[0] = binding{}
	m.matched = m.matched[:0]
	if m.search(ct, 0, -1, 0, &m.matched) {
		return &m.binds[0], m.matched, true
	}
	return nil, nil, false
}

// search assigns statement s to a node after position prev. bi indexes
// the binding stack entry holding the assignment built so far; on
// success the completed binding has been copied back into binds[bi].
func (m *matcher) search(ct *compiledTemplate, s, prev, bi int, matched *[]int) bool {
	if s == len(ct.stmts) {
		return true
	}
	st := &ct.stmts[s]

	// Zero-width statements consume no node.
	if st.Kind == SFrameData {
		if m.frameHasData(&st.Stmt) || st.Optional {
			return m.search(ct, s+1, prev, bi, matched)
		}
		return false
	}

	// live: registers bound to variables that must survive the gap
	// into this statement.
	b := &m.binds[bi]
	var live ir.RegSet
	for _, id := range ct.liveVars[s] {
		if reg, ok := b.reg(id); ok {
			live.Add(reg)
		}
	}

	for i := prev + 1; i < len(m.nodes); i++ {
		if m.steps++; m.steps > maxSearchSteps {
			return false
		}
		// The statement's opcode vocabulary rejects most nodes before
		// the candidate binding is copied for matchStmt to extend.
		ok := st.anyOp || st.vocab.Has(m.ops[i])
		if ok {
			m.binds[bi+1] = *b
			ok = m.matchStmt(st, i, &m.binds[bi+1])
		}
		if ok {
			// Bound live registers must not be clobbered, and control
			// flow must not break, between the previous match and
			// this one.
			if prev >= 0 && (m.defsInRange(live, prev, i) || m.flowBroken(prev, i)) {
				break
			}
			*matched = append(*matched, i)
			if m.search(ct, s+1, i, bi+1, matched) {
				m.binds[bi] = m.binds[bi+1]
				return true
			}
			*matched = (*matched)[:len(*matched)-1]
		}
		// Whether or not node i matched, if it clobbers a live
		// register or ends control flow, no candidate beyond it can
		// be valid: the gap (prev, i'] for i' > i necessarily
		// contains the violation. This bounds the scan to the
		// clobber-free window, which is what keeps matching fast on
		// junk-heavy or random frames.
		if prev >= 0 && (m.nodes[i].Defs.Intersects(live) || m.flowCount[i+1] > m.flowCount[i]) {
			break
		}
	}
	if st.Optional {
		return m.search(ct, s+1, prev, bi, matched)
	}
	return false
}

// frameHasData checks the SFrameData predicate. The byte string is
// carried in the statement's FrameBytes field.
func (m *matcher) frameHasData(st *Stmt) bool {
	return len(st.FrameBytes) > 0 && bytes.Contains(m.frame, st.FrameBytes)
}

// matchStmt tests a single statement against node i, extending the
// binding nb on success. The matcher's matched scratch holds the node
// indices assigned to earlier statements.
func (m *matcher) matchStmt(st *cstmt, i int, nb *binding) bool {
	n := &m.nodes[i]
	in := &m.insts[n.Idx]

	opAllowed := func(op x86.Opcode) bool {
		if len(st.Ops) == 0 {
			return true
		}
		for _, o := range st.Ops {
			if o == op {
				return true
			}
		}
		return false
	}

	// ptrMem accepts the effective-address shapes decryption loops
	// actually use: the pointer register itself, possibly with a small
	// displacement ([esi], [eax+1]). Random data misdecodes produce
	// operands like [ecx-0x49bbc9bb], which no loop that derives its
	// pointer from the payload address would ever contain.
	ptrMem := func(m x86.MemRef) bool {
		if st.MemSize != 0 && m.Size != st.MemSize {
			return false
		}
		return m.Base != x86.RegNone && m.Index == x86.RegNone &&
			m.Disp >= -255 && m.Disp <= 255
	}

	switch st.Kind {
	case SMemXform:
		if !opAllowed(in.Op) {
			return false
		}
		a0, a1 := in.Args[0], in.Args[1]
		if a0.Kind != x86.KindMem || !ptrMem(a0.Mem) {
			return false
		}
		if !nb.bindReg(st.ptrVar, a0.Mem.Base) {
			return false
		}
		// Resolve the key.
		switch a1.Kind {
		case x86.KindImm:
			key := uint32(a1.Imm) & widthMaskFor(a0.Mem.Size)
			if key == 0 {
				return false // a zero key is not a transformation
			}
			nb.setKey(st.keyVar, key)
		case x86.KindReg:
			// The key must resolve to a concrete constant, exactly as
			// the symbolic constants of [5]'s templates must bind to a
			// value. A real decryptor's key register is loaded from
			// (possibly obscured) constants that the IR's folding
			// resolves; a random byte-soup `xor [edi], dl` has no
			// resolvable key and is rejected — the major benign-data
			// false-positive class.
			v, known := n.ConstBefore(a1.Reg)
			if !known {
				return false
			}
			key := v & widthMaskFor(a0.Mem.Size)
			if key == 0 {
				return false
			}
			nb.setKey(st.keyVar, key)
		case x86.KindNone:
			// Unary transforms (not/neg/inc/dec on memory).
			if in.Op != x86.NOT && in.Op != x86.NEG && in.Op != x86.INC && in.Op != x86.DEC {
				return false
			}
		}
		return true

	case SMemLoad:
		switch in.Op {
		case x86.MOV:
			a0, a1 := in.Args[0], in.Args[1]
			if a0.Kind != x86.KindReg || a1.Kind != x86.KindMem || !ptrMem(a1.Mem) {
				return false
			}
			return nb.bindReg(st.ptrVar, a1.Mem.Base) && nb.bindReg(st.regVar, a0.Reg)
		case x86.LODSB, x86.LODSD:
			return nb.bindReg(st.ptrVar, x86.ESI) && nb.bindReg(st.regVar, x86.EAX)
		}
		return false

	case SMemStore:
		switch in.Op {
		case x86.MOV:
			a0, a1 := in.Args[0], in.Args[1]
			if a0.Kind != x86.KindMem || !ptrMem(a0.Mem) || a1.Kind != x86.KindReg {
				return false
			}
			return nb.bindReg(st.ptrVar, a0.Mem.Base)
		case x86.STOSB, x86.STOSD:
			return nb.bindReg(st.ptrVar, x86.EDI)
		}
		return false

	case SRegXform:
		if !opAllowed(in.Op) {
			return false
		}
		a0, a1 := in.Args[0], in.Args[1]
		if a0.Kind != x86.KindReg {
			return false
		}
		// Source must not be memory: loads are a separate statement.
		if a1.Kind == x86.KindMem {
			return false
		}
		return true

	case SAdvance:
		fam, delta, ok := n.Advance(in)
		if !ok {
			return false
		}
		if delta < 0 {
			delta = -delta
		}
		min, max := st.MinDelta, st.MaxDelta
		if min == 0 && max == 0 {
			min, max = 1, 8
		}
		if delta < min || delta > max {
			return false
		}
		return nb.bindReg(st.ptrVar, fam)

	case SBackEdge:
		if !in.Op.IsCondBranch() || !in.HasTarget {
			return false
		}
		// The target must be a real instruction boundary in this
		// decode, already visited in sequence order. This covers both
		// plain backward loops and out-of-order code (where the
		// back-edge target can be later in address order but earlier
		// in execution order), while rejecting phantom loops in
		// misaligned decodes whose targets fall between instructions.
		j, ok := m.lookupAddr(in.Target)
		if !ok || j >= i {
			return false
		}
		// The loop must actually re-execute the matched behavior: the
		// back edge re-enters at or before the first matched
		// statement (loop setup code may sit between the entry point
		// and the transform, so "at or before" is the right bound).
		if matched := m.matched; len(matched) > 0 && j > matched[0] {
			return false
		}
		// Executable loops contain no undecodable bytes and no
		// early returns: a BAD marker or a ret inside [target,
		// backedge] means this "loop" is a phantom in misdecoded
		// data, since execution could never complete an iteration.
		if m.flowCount[i+1]-m.flowCount[j] > 0 {
			return false
		}
		return true

	case SSyscall:
		if in.Op != x86.INT || in.Args[0].Kind != x86.KindImm || in.Args[0].Imm != 0x80 {
			return false
		}
		v, known := n.ConstBefore(x86.EAX)
		if !known || v != st.Num {
			return false
		}
		if st.EBX != nil {
			bv, bknown := n.ConstBefore(x86.EBX)
			if !bknown || bv != *st.EBX {
				return false
			}
		}
		return true

	case SConst:
		for k := range in.Args {
			switch a := &in.Args[k]; a.Kind {
			case x86.KindImm:
				for _, v := range st.Values {
					if uint32(a.Imm) == v {
						return true
					}
				}
			case x86.KindReg:
				if cv, known := n.ConstBefore(a.Reg); known {
					for _, v := range st.Values {
						if cv == v {
							return true
						}
					}
				}
			}
		}
		return false

	case SConstInRange:
		if in.Op != x86.MOV && in.Op != x86.PUSH {
			return false
		}
		a0, a1 := in.Args[0], in.Args[1]
		if in.Op == x86.MOV {
			if a0.Kind != x86.KindReg || a1.Kind != x86.KindImm {
				return false
			}
			v := uint32(a1.Imm)
			if v < st.Lo || v > st.Hi {
				return false
			}
			return nb.bindReg(st.regVar, a0.Reg)
		}
		// push imm in range (followed elsewhere by ret/pop)
		if a0.Kind != x86.KindImm {
			return false
		}
		v := uint32(a0.Imm)
		return v >= st.Lo && v <= st.Hi

	case SIndirect:
		if in.Op != x86.CALL && in.Op != x86.JMP {
			return false
		}
		var through x86.Reg
		switch a0 := in.Args[0]; a0.Kind {
		case x86.KindReg:
			through = a0.Reg
		case x86.KindMem:
			through = a0.Mem.Base
		}
		if through == x86.RegNone {
			return false
		}
		if !nb.bindReg(st.regVar, through) {
			return false
		}
		if st.Lo != 0 || st.Hi != 0 {
			v, known := n.ConstBefore(through)
			if !known || v < st.Lo || v > st.Hi {
				return false
			}
		}
		return true
	}
	return false
}

func widthMaskFor(size uint8) uint32 {
	switch size {
	case 1:
		return 0xff
	case 2:
		return 0xffff
	default:
		return 0xffffffff
	}
}

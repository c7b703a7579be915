package sem

import (
	"fmt"

	"semnids/internal/x86"
)

// maxTemplateVars bounds the distinct variables one template may name.
// The compiled matcher keeps bindings in fixed-size arrays indexed by a
// small variable id, which is what makes extending a candidate binding
// a register copy instead of a map clone on the hot path.
const maxTemplateVars = 16

// opMask is a bitset over the full Opcode space (x86.OpSet: the type
// moved next to the decoder so the sweep-start viability pass can
// share it).
type opMask = x86.OpSet

// cstmt is one expanded template statement with its variable references
// resolved to ids.
type cstmt struct {
	Stmt
	ptrVar int8 // id of Ptr, -1 if unnamed
	regVar int8 // id of Reg, -1 if unnamed
	keyVar int8 // id of Key, -1 if unnamed

	// vocab is the opcode set matchStmt can accept for the statement
	// (stmtOpMask); anyOp is set when the statement restricts no
	// opcode. The search rejects a node outside vocab before copying
	// the candidate binding.
	vocab opMask
	anyOp bool
}

// compiledTemplate is the one-time-preprocessed form of a Template:
// repetitions expanded, variables interned, liveness precomputed, and
// impossibility prefilters derived. Everything here used to be rebuilt
// by the matcher for every frame × offset × order; now it is computed
// exactly once per template.
type compiledTemplate struct {
	stmts []cstmt

	// varNames[id] is the source name of variable id.
	varNames []string

	// liveVars[s] lists the variable ids whose bound register must
	// survive the gap into statement s (ids first referenced by an
	// earlier statement; a bound register stays live to the end of the
	// behavior — see liveRanges).
	liveVars [][]int8

	// frameNeeds are the byte strings of mandatory SFrameData
	// statements: if any is absent from the raw frame, the template
	// cannot match at any sweep offset or order.
	frameNeeds [][]byte

	// opNeeds holds, for each mandatory node-consuming statement whose
	// vocabulary is a restricted opcode set, that set. If any entry
	// has an empty intersection with the opcodes present in an
	// instruction order, the template cannot match in that order and
	// the backtracking search is skipped.
	opNeeds []opMask
}

// compiled returns the template's compiled form, building it on first
// use. Safe for concurrent use.
func (t *Template) compiled() *compiledTemplate {
	t.compileOnce.Do(func() { t.ct = compileTemplate(t) })
	return t.ct
}

// Compile precompiles the template's matcher form eagerly (it is
// otherwise built lazily on first match) and returns the template for
// chaining. It panics if the template names more than maxTemplateVars
// distinct variables; ParseTemplates rejects such templates earlier
// with an error.
func (t *Template) Compile() *Template {
	t.compiled()
	return t
}

func compileTemplate(t *Template) *compiledTemplate {
	expanded := expandStmts(t.Stmts)
	ct := &compiledTemplate{stmts: make([]cstmt, len(expanded))}

	intern := func(name string) int8 {
		if name == "" {
			return -1
		}
		for id, n := range ct.varNames {
			if n == name {
				return int8(id)
			}
		}
		if len(ct.varNames) >= maxTemplateVars {
			panic(fmt.Sprintf("sem: template %s names more than %d variables", t.Name, maxTemplateVars))
		}
		ct.varNames = append(ct.varNames, name)
		return int8(len(ct.varNames) - 1)
	}

	for i, s := range expanded {
		vocab, restricted := stmtOpMask(&s)
		ct.stmts[i] = cstmt{
			Stmt:   s,
			ptrVar: intern(s.Ptr),
			regVar: intern(s.Reg),
			keyVar: intern(s.Key),
			vocab:  vocab,
			anyOp:  !restricted,
		}
	}

	// Liveness: a variable first referenced by statement i must keep
	// its binding from i through the last statement (liveRanges), so
	// the set live into statement s is every register variable first
	// referenced strictly before s.
	lr := liveRanges(expanded)
	ct.liveVars = make([][]int8, len(expanded))
	for s := range expanded {
		var ids []int8
		for id, name := range ct.varNames {
			if r, ok := lr[name]; ok && r.first < s && r.last >= s {
				ids = append(ids, int8(id))
			}
		}
		ct.liveVars[s] = ids
	}

	// Prefilters, from mandatory statements only: an optional statement
	// can be skipped, so it cannot make a match impossible.
	for i := range ct.stmts {
		st := &ct.stmts[i]
		if st.Optional {
			continue
		}
		if st.Kind == SFrameData {
			if len(st.FrameBytes) > 0 {
				ct.frameNeeds = append(ct.frameNeeds, st.FrameBytes)
			}
			continue
		}
		if !st.anyOp {
			ct.opNeeds = append(ct.opNeeds, st.vocab)
		}
	}
	return ct
}

// stmtOpMask returns the set of opcodes an instruction must have for
// the statement to possibly match it, and whether such a restriction
// exists. The sets mirror matchStmt's acceptance logic exactly and
// must stay a (possibly proper) superset of what matchStmt accepts.
func stmtOpMask(st *Stmt) (opMask, bool) {
	var m opMask
	switch st.Kind {
	case SMemXform, SRegXform:
		if len(st.Ops) == 0 {
			return m, false // any opcode allowed
		}
		for _, op := range st.Ops {
			m.Add(op)
		}
		return m, true
	case SMemLoad:
		m.Add(x86.MOV)
		m.Add(x86.LODSB)
		m.Add(x86.LODSD)
		return m, true
	case SMemStore:
		m.Add(x86.MOV)
		m.Add(x86.STOSB)
		m.Add(x86.STOSD)
		return m, true
	case SAdvance:
		// Node.Advance only recognizes these opcodes.
		m.Add(x86.INC)
		m.Add(x86.DEC)
		m.Add(x86.ADD)
		m.Add(x86.SUB)
		m.Add(x86.LEA)
		return m, true
	case SBackEdge:
		// Opcode.IsCondBranch.
		m.Add(x86.JCC)
		m.Add(x86.LOOP)
		m.Add(x86.LOOPE)
		m.Add(x86.LOOPNE)
		m.Add(x86.JECXZ)
		return m, true
	case SSyscall:
		m.Add(x86.INT)
		return m, true
	case SConstInRange:
		m.Add(x86.MOV)
		m.Add(x86.PUSH)
		return m, true
	case SIndirect:
		m.Add(x86.CALL)
		m.Add(x86.JMP)
		return m, true
	}
	return m, false
}

// expandStmts rewrites repetition (MinRep/MaxRep) into mandatory and
// optional copies so that the search only deals with optionality.
func expandStmts(stmts []Stmt) []Stmt {
	var out []Stmt
	for _, s := range stmts {
		min, max := s.MinRep, s.MaxRep
		if min == 0 && max == 0 {
			out = append(out, s)
			continue
		}
		if min < 1 {
			min = 1
		}
		if max < min {
			max = min
		}
		base := s
		base.MinRep, base.MaxRep = 0, 0
		for i := 0; i < min; i++ {
			c := base
			c.Optional = false
			out = append(out, c)
		}
		for i := min; i < max; i++ {
			c := base
			c.Optional = true
			out = append(out, c)
		}
	}
	return out
}

// liveness computes, for each variable, the expanded-statement index
// range [first, last] over which its register binding must survive.
type liveRange struct{ first, last int }

func varRefs(s *Stmt) []string {
	var v []string
	if s.Ptr != "" {
		v = append(v, s.Ptr)
	}
	if s.Reg != "" {
		v = append(v, s.Reg)
	}
	return v
}

func liveRanges(stmts []Stmt) map[string]liveRange {
	lr := make(map[string]liveRange)
	for i := range stmts {
		for _, v := range varRefs(&stmts[i]) {
			if _, ok := lr[v]; !ok {
				// A bound register must survive until the whole
				// behavior completes: a decryption loop whose pointer
				// is clobbered before the back edge would transform a
				// different location on the next iteration, so the
				// liveness of every variable extends to the last
				// statement.
				lr[v] = liveRange{i, len(stmts) - 1}
			}
		}
	}
	return lr
}

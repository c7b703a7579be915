// Package ir lifts decoded x86 instructions into an analyzed program:
// instructions in recovered execution order, annotated with the
// abstract machine state before each instruction (known constant
// register values, a symbolic stack) and def/use register sets.
//
// This is the "intermediate representation generator" stage of the
// paper's NIDS (Section 4, component (d)). The constant folding
// implemented here is what makes the template matcher semantic rather
// than syntactic: `mov ebx, 31h; add ebx, 64h; xor [eax], ebx` exposes
// the same decryption key 0x95 as `xor byte ptr [eax], 95h`.
package ir

import (
	"semnids/internal/x86"
)

// regVal tracks partially known register contents: bit i of mask set
// means byte i of val is known. This makes idioms like
// `xor eax, eax; mov al, 0xb` resolve EAX to the constant 11.
type regVal struct {
	val  uint32
	mask uint32
}

func (rv regVal) knownAll(width, off uint) bool {
	m := widthMask(width) << (8 * off)
	return rv.mask&m == m
}

func (rv regVal) get(width, off uint) uint32 {
	return (rv.val >> (8 * off)) & widthMask(width)
}

func (rv *regVal) set(width, off uint, v uint32, known bool) {
	m := widthMask(width) << (8 * off)
	rv.val = rv.val&^m | (v<<(8*off))&m
	if known {
		rv.mask |= m
	} else {
		rv.mask &^= m
	}
}

func widthMask(width uint) uint32 {
	switch width {
	case 1:
		return 0xff
	case 2:
		return 0xffff
	default:
		return 0xffffffff
	}
}

// stackVal is one tracked push.
type stackVal struct {
	val   uint32
	known bool
}

// Regs is the register half of an abstract state: per-family constant
// knowledge, indexed by x86 family register number (EAX..EDI). It is
// what a Node keeps of the state before its instruction — 64 bytes,
// no pointers.
type Regs [8]regVal

// Get returns the value of register r if fully known.
func (rs *Regs) Get(r x86.Reg) (uint32, bool) {
	if r == x86.RegNone {
		return 0, false
	}
	w, off := regGeom(r)
	rv := rs[r.Family().Num()]
	if !rv.knownAll(w, off) {
		return 0, false
	}
	return rv.get(w, off), true
}

// Env is the abstract machine state at a program point: per-register
// constant knowledge plus a bounded symbolic stack.
type Env struct {
	regs  Regs
	stack []stackVal
	// stackOK is false once ESP has been manipulated in a way the
	// symbolic stack does not model (mov esp, pushad, add esp...).
	stackOK bool
}

// NewEnv returns the initial (nothing known) state.
func NewEnv() Env {
	return Env{stackOK: true}
}

// regGeom returns the byte width and offset of r within its family.
func regGeom(r x86.Reg) (width, off uint) {
	switch {
	case r.Size() == 4:
		return 4, 0
	case r.Size() == 2:
		return 2, 0
	case r.IsHigh8():
		return 1, 1
	default:
		return 1, 0
	}
}

// Get returns the value of register r if fully known.
func (e *Env) Get(r x86.Reg) (uint32, bool) { return e.regs.Get(r) }

// Set records that register r holds v (or becomes unknown).
func (e *Env) Set(r x86.Reg, v uint32, known bool) {
	if r == x86.RegNone {
		return
	}
	fam := r.Family().Num()
	w, off := regGeom(r)
	e.regs[fam].set(w, off, v, known)
}

// Invalidate marks an entire register family unknown.
func (e *Env) Invalidate(r x86.Reg) {
	if r == x86.RegNone {
		return
	}
	e.regs[r.Family().Num()] = regVal{}
}

// InvalidateAll forgets everything.
func (e *Env) InvalidateAll() {
	for i := range e.regs {
		e.regs[i] = regVal{}
	}
	// Truncate rather than nil: stackOK gates every read, and keeping
	// the backing array lets a reused env track the next lift's stack
	// without reallocating.
	e.stack = e.stack[:0]
	e.stackOK = false
}

const maxTrackedStack = 64

func (e *Env) push(v uint32, known bool) {
	if !e.stackOK {
		return
	}
	if len(e.stack) >= maxTrackedStack {
		e.stackOK = false
		e.stack = e.stack[:0]
		return
	}
	e.stack = append(e.stack, stackVal{v, known})
}

// pop returns the top tracked stack value.
func (e *Env) pop() (uint32, bool) {
	if !e.stackOK || len(e.stack) == 0 {
		return 0, false
	}
	top := e.stack[len(e.stack)-1]
	e.stack = e.stack[:len(e.stack)-1]
	return top.val, top.known
}

// breakStack abandons symbolic stack tracking (unmodeled ESP use).
func (e *Env) breakStack() {
	e.stackOK = false
	e.stack = e.stack[:0]
}

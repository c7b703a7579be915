// Package emu is a concrete IA-32 emulator for self-contained code
// frames: registers, arithmetic flags, a flat memory image, and a
// stack. It executes the instruction subset our shellcode corpus and
// polymorphic engines emit, and stops at system calls.
//
// Its role in the reproduction is dynamic validation: the test suite
// *executes* generated exploit samples — the sled, the getpc idiom,
// the obfuscated decoder loop — and verifies that the decoded payload
// bytes materialize in memory and that execution reaches
// execve("/bin/sh") with the right register state. This proves the
// workloads are real attacks, not byte soup that happens to match the
// templates.
package emu

import (
	"errors"
	"fmt"

	"semnids/internal/x86"
)

// Errors reported by Run.
var (
	ErrStepLimit   = errors.New("emu: step limit exceeded")
	ErrBadFetch    = errors.New("emu: execution left the code image")
	ErrDecode      = errors.New("emu: undecodable instruction")
	ErrUnsupported = errors.New("emu: unsupported instruction")
	ErrMemFault    = errors.New("emu: memory access out of range")
	ErrStack       = errors.New("emu: stack fault")
)

// StopKind says why execution stopped.
type StopKind int

const (
	StopSyscall StopKind = iota // int 0x80 reached
	StopRet                     // ret with an empty call stack... (ret to sentinel)
	StopEnd                     // execution ran past the end of the image
)

// Machine is one emulator instance. The code/data image occupies
// addresses [0, len(Mem)); the stack is a separate region growing down
// from StackBase.
type Machine struct {
	Mem   []byte
	Regs  [8]uint32 // indexed by register family number
	ZF    bool
	SF    bool
	CF    bool
	OF    bool
	DF    bool
	EIP   int
	Steps int

	// MaxSteps bounds execution (default 1 << 20).
	MaxSteps int

	stack []uint32 // modeled separately from Mem; esp mirrors len

	// stop is the storage exec's stop result points at, so stopping at
	// a syscall or ret does not allocate.
	stop Stop
}

// stackBase is the virtual ESP start; only relative motion matters.
const stackBase = 0x7fff0000

// New builds a machine over a copy of image.
func New(image []byte) *Machine {
	m := &Machine{
		Mem:      append([]byte(nil), image...),
		MaxSteps: 1 << 20,
	}
	m.Regs[x86.ESP.Num()] = stackBase
	return m
}

// Reg returns a register value (any width).
func (m *Machine) Reg(r x86.Reg) uint32 {
	v := m.Regs[r.Family().Num()]
	switch {
	case r.Size() == 4:
		return v
	case r.Size() == 2:
		return v & 0xffff
	case r.IsHigh8():
		return (v >> 8) & 0xff
	default:
		return v & 0xff
	}
}

// SetReg writes a register at its width.
func (m *Machine) SetReg(r x86.Reg, v uint32) {
	fam := r.Family().Num()
	cur := m.Regs[fam]
	switch {
	case r.Size() == 4:
		m.Regs[fam] = v
	case r.Size() == 2:
		m.Regs[fam] = cur&0xffff0000 | v&0xffff
	case r.IsHigh8():
		m.Regs[fam] = cur&0xffff00ff | (v&0xff)<<8
	default:
		m.Regs[fam] = cur&0xffffff00 | v&0xff
	}
}

// ea computes the effective address of a memory operand.
func (m *Machine) ea(ref x86.MemRef) uint32 {
	addr := uint32(ref.Disp)
	if ref.Base != x86.RegNone {
		addr += m.Reg(ref.Base)
	}
	if ref.Index != x86.RegNone {
		addr += m.Reg(ref.Index) * uint32(ref.Scale)
	}
	return addr
}

// load reads size bytes from the image.
func (m *Machine) load(addr uint32, size int) (uint32, error) {
	if int64(addr)+int64(size) > int64(len(m.Mem)) || int64(addr) < 0 {
		return 0, fmt.Errorf("%w: read %d@%#x", ErrMemFault, size, addr)
	}
	var v uint32
	for i := size - 1; i >= 0; i-- {
		v = v<<8 | uint32(m.Mem[int(addr)+i])
	}
	return v, nil
}

// store writes size bytes to the image.
func (m *Machine) store(addr uint32, size int, v uint32) error {
	if int64(addr)+int64(size) > int64(len(m.Mem)) || int64(addr) < 0 {
		return fmt.Errorf("%w: write %d@%#x", ErrMemFault, size, addr)
	}
	for i := 0; i < size; i++ {
		m.Mem[int(addr)+i] = byte(v >> (8 * i))
	}
	return nil
}

// push/pop model the stack region.
func (m *Machine) push(v uint32) {
	m.stack = append(m.stack, v)
	m.Regs[x86.ESP.Num()] -= 4
}

func (m *Machine) pop() (uint32, error) {
	if len(m.stack) == 0 {
		return 0, ErrStack
	}
	v := m.stack[len(m.stack)-1]
	m.stack = m.stack[:len(m.stack)-1]
	m.Regs[x86.ESP.Num()] += 4
	return v, nil
}

// StackTop returns the i-th dword from the top of the stack (0 = top).
func (m *Machine) StackTop(i int) (uint32, bool) {
	if i >= len(m.stack) {
		return 0, false
	}
	return m.stack[len(m.stack)-1-i], true
}

// Stop describes why Run returned.
type Stop struct {
	Kind   StopKind
	Sysnum uint32 // EAX at the syscall for StopSyscall
	EIP    int
}

// widthOf returns operand width in bytes.
func widthOf(o x86.Operand) int {
	switch o.Kind {
	case x86.KindReg:
		return o.Reg.Size()
	case x86.KindMem:
		if o.Mem.Size == 0 {
			return 4
		}
		return int(o.Mem.Size)
	}
	return 4
}

// getOp reads an operand value.
func (m *Machine) getOp(o x86.Operand) (uint32, error) {
	switch o.Kind {
	case x86.KindReg:
		return m.Reg(o.Reg), nil
	case x86.KindImm:
		return uint32(o.Imm), nil
	case x86.KindMem:
		return m.load(m.ea(o.Mem), widthOf(o))
	}
	return 0, ErrUnsupported
}

// setOp writes an operand.
func (m *Machine) setOp(o x86.Operand, v uint32) error {
	switch o.Kind {
	case x86.KindReg:
		m.SetReg(o.Reg, v)
		return nil
	case x86.KindMem:
		return m.store(m.ea(o.Mem), widthOf(o), v)
	}
	return ErrUnsupported
}

// setFlagsLogic updates ZF/SF and clears CF/OF after a logic op.
func (m *Machine) setFlagsLogic(v uint32, width int) {
	mask, sign := widthMask(width)
	v &= mask
	m.ZF = v == 0
	m.SF = v&sign != 0
	m.CF = false
	m.OF = false
}

func widthMask(width int) (mask, sign uint32) {
	switch width {
	case 1:
		return 0xff, 0x80
	case 2:
		return 0xffff, 0x8000
	default:
		return 0xffffffff, 0x80000000
	}
}

// addFlags computes a+b and the resulting flags.
func (m *Machine) addFlags(a, b uint32, width int) uint32 {
	mask, sign := widthMask(width)
	a, b = a&mask, b&mask
	r := (a + b) & mask
	m.ZF = r == 0
	m.SF = r&sign != 0
	m.CF = uint64(a)+uint64(b) > uint64(mask)
	m.OF = (a&sign == b&sign) && (r&sign != a&sign)
	return r
}

// subFlags computes a-b and the resulting flags.
func (m *Machine) subFlags(a, b uint32, width int) uint32 {
	mask, sign := widthMask(width)
	a, b = a&mask, b&mask
	r := (a - b) & mask
	m.ZF = r == 0
	m.SF = r&sign != 0
	m.CF = a < b
	m.OF = (a&sign != b&sign) && (r&sign != a&sign)
	return r
}

// cond evaluates a condition code against the flags.
func (m *Machine) cond(c x86.Cond) bool {
	switch c {
	case x86.CondO:
		return m.OF
	case x86.CondNO:
		return !m.OF
	case x86.CondB:
		return m.CF
	case x86.CondAE:
		return !m.CF
	case x86.CondE:
		return m.ZF
	case x86.CondNE:
		return !m.ZF
	case x86.CondBE:
		return m.CF || m.ZF
	case x86.CondA:
		return !m.CF && !m.ZF
	case x86.CondS:
		return m.SF
	case x86.CondNS:
		return !m.SF
	case x86.CondL:
		return m.SF != m.OF
	case x86.CondGE:
		return m.SF == m.OF
	case x86.CondLE:
		return m.ZF || m.SF != m.OF
	case x86.CondG:
		return !m.ZF && m.SF == m.OF
	}
	return false // P/NP unsupported by the flag model
}

// Run executes from entry until a syscall, a terminal ret, the end of
// the image, or an error.
func (m *Machine) Run(entry int) (Stop, error) {
	return m.runFrom(entry)
}

// ResumeAfterSyscall continues past an int 0x80 stop, installing ret
// as the syscall's return value in EAX. This lets tests drive
// multi-syscall payloads (bind shells) with a faked kernel.
func (m *Machine) ResumeAfterSyscall(ret uint32) (Stop, error) {
	m.SetReg(x86.EAX, ret)
	return m.runFrom(m.EIP + 2) // int 0x80 is two bytes
}

func (m *Machine) runFrom(entry int) (Stop, error) {
	m.EIP = entry
	for {
		if m.Steps++; m.Steps > m.MaxSteps {
			return Stop{}, ErrStepLimit
		}
		if m.EIP == len(m.Mem) {
			return Stop{Kind: StopEnd, EIP: m.EIP}, nil
		}
		if m.EIP < 0 || m.EIP > len(m.Mem) {
			return Stop{}, fmt.Errorf("%w: eip=%#x", ErrBadFetch, m.EIP)
		}
		in, err := x86.Decode(m.Mem, m.EIP)
		if err != nil {
			return Stop{}, fmt.Errorf("%w at %#x: %v", ErrDecode, m.EIP, err)
		}
		next := m.EIP + int(in.Len)
		stop, jump, err := m.exec(&in, next)
		if err != nil {
			return Stop{}, fmt.Errorf("at %#x (%s): %w", m.EIP, in.String(), err)
		}
		if stop != nil {
			stop.EIP = m.EIP
			return *stop, nil
		}
		if jump >= 0 {
			m.EIP = jump
		} else {
			m.EIP = next
		}
	}
}

// exec performs one instruction. jump < 0 means fall through.
func (m *Machine) exec(in *x86.Inst, next int) (stop *Stop, jump int, err error) {
	jump = -1
	a0, a1, a2 := in.Args[0], in.Args[1], in.Args[2]

	switch in.Op {
	case x86.NOP, x86.WAIT, x86.CPUID, x86.RDTSC, x86.SAHF, x86.LAHF:
		// No-ops for our purposes (cpuid/rdtsc clobber handled below
		// would matter only for junk; keep registers stable).
	case x86.CLD:
		m.DF = false
	case x86.STD:
		m.DF = true
	case x86.CLC:
		m.CF = false
	case x86.STC:
		m.CF = true
	case x86.CMC:
		m.CF = !m.CF
	case x86.CLI, x86.STI:
		// Interrupt flag not modeled.
	case x86.SALC:
		if m.CF {
			m.SetReg(x86.AL, 0xff)
		} else {
			m.SetReg(x86.AL, 0)
		}
	case x86.DAA, x86.DAS, x86.AAA, x86.AAS:
		// BCD adjusts appear only in sleds; their exact result is
		// irrelevant to decoder correctness. Model as AL-preserving.
	case x86.CWDE:
		v := m.Reg(x86.AX)
		m.SetReg(x86.EAX, uint32(int32(int16(v))))
	case x86.CDQ:
		if int32(m.Reg(x86.EAX)) < 0 {
			m.SetReg(x86.EDX, 0xffffffff)
		} else {
			m.SetReg(x86.EDX, 0)
		}
	case x86.XLAT:
		v, lerr := m.load(m.Reg(x86.EBX)+m.Reg(x86.AL), 1)
		if lerr != nil {
			return nil, -1, lerr
		}
		m.SetReg(x86.AL, v)

	case x86.MOV:
		v, gerr := m.getOp(a1)
		if gerr != nil {
			return nil, -1, gerr
		}
		return nil, -1, m.setOp(a0, v)
	case x86.LEA:
		m.SetReg(a0.Reg, m.ea(a1.Mem))
	case x86.MOVZX:
		v, gerr := m.getOp(a1)
		if gerr != nil {
			return nil, -1, gerr
		}
		mask, _ := widthMask(widthOf(a1))
		m.SetReg(a0.Reg, v&mask)
	case x86.MOVSX:
		v, gerr := m.getOp(a1)
		if gerr != nil {
			return nil, -1, gerr
		}
		if widthOf(a1) == 1 {
			m.SetReg(a0.Reg, uint32(int32(int8(v))))
		} else {
			m.SetReg(a0.Reg, uint32(int32(int16(v))))
		}
	case x86.XCHG:
		v0, e0 := m.getOp(a0)
		if e0 != nil {
			return nil, -1, e0
		}
		v1, e1 := m.getOp(a1)
		if e1 != nil {
			return nil, -1, e1
		}
		if err := m.setOp(a0, v1); err != nil {
			return nil, -1, err
		}
		return nil, -1, m.setOp(a1, v0)

	case x86.ADD, x86.ADC, x86.SUB, x86.SBB, x86.AND, x86.OR, x86.XOR, x86.CMP, x86.TEST:
		va, e0 := m.getOp(a0)
		if e0 != nil {
			return nil, -1, e0
		}
		vb, e1 := m.getOp(a1)
		if e1 != nil {
			return nil, -1, e1
		}
		w := widthOf(a0)
		var r uint32
		writeBack := true
		switch in.Op {
		case x86.ADD:
			r = m.addFlags(va, vb, w)
		case x86.ADC:
			c := uint32(0)
			if m.CF {
				c = 1
			}
			r = m.addFlags(va, vb+c, w)
		case x86.SUB:
			r = m.subFlags(va, vb, w)
		case x86.SBB:
			c := uint32(0)
			if m.CF {
				c = 1
			}
			r = m.subFlags(va, vb+c, w)
		case x86.AND:
			r = va & vb
			m.setFlagsLogic(r, w)
		case x86.OR:
			r = va | vb
			m.setFlagsLogic(r, w)
		case x86.XOR:
			r = va ^ vb
			m.setFlagsLogic(r, w)
		case x86.CMP:
			m.subFlags(va, vb, w)
			writeBack = false
		case x86.TEST:
			m.setFlagsLogic(va&vb, w)
			writeBack = false
		}
		if writeBack {
			return nil, -1, m.setOp(a0, r)
		}
	case x86.NOT:
		v, gerr := m.getOp(a0)
		if gerr != nil {
			return nil, -1, gerr
		}
		return nil, -1, m.setOp(a0, ^v)
	case x86.NEG:
		v, gerr := m.getOp(a0)
		if gerr != nil {
			return nil, -1, gerr
		}
		r := m.subFlags(0, v, widthOf(a0))
		return nil, -1, m.setOp(a0, r)
	case x86.INC, x86.DEC:
		v, gerr := m.getOp(a0)
		if gerr != nil {
			return nil, -1, gerr
		}
		// INC/DEC preserve CF.
		cf := m.CF
		var r uint32
		if in.Op == x86.INC {
			r = m.addFlags(v, 1, widthOf(a0))
		} else {
			r = m.subFlags(v, 1, widthOf(a0))
		}
		m.CF = cf
		return nil, -1, m.setOp(a0, r)
	case x86.SHL, x86.SHR, x86.SAR, x86.ROL, x86.ROR:
		v, e0 := m.getOp(a0)
		if e0 != nil {
			return nil, -1, e0
		}
		amt, e1 := m.getOp(a1)
		if e1 != nil {
			return nil, -1, e1
		}
		w := widthOf(a0)
		mask, _ := widthMask(w)
		bits := uint32(w * 8)
		amt &= 31
		var r uint32
		switch in.Op {
		case x86.SHL:
			r = v << amt
		case x86.SHR:
			r = (v & mask) >> amt
		case x86.SAR:
			switch w {
			case 1:
				r = uint32(int32(int8(v)) >> amt)
			case 2:
				r = uint32(int32(int16(v)) >> amt)
			default:
				r = uint32(int32(v) >> amt)
			}
		case x86.ROL:
			s := amt % bits
			r = v<<s | (v&mask)>>(bits-s)
		case x86.ROR:
			s := amt % bits
			r = (v&mask)>>s | v<<(bits-s)
		}
		if amt != 0 {
			m.setFlagsLogic(r, w)
		}
		return nil, -1, m.setOp(a0, r&mask)

	case x86.MUL:
		v, gerr := m.getOp(a0)
		if gerr != nil {
			return nil, -1, gerr
		}
		prod := uint64(m.Reg(x86.EAX)) * uint64(v)
		m.SetReg(x86.EAX, uint32(prod))
		m.SetReg(x86.EDX, uint32(prod>>32))
	case x86.IMUL:
		switch in.NArgs() {
		case 1:
			v, gerr := m.getOp(a0)
			if gerr != nil {
				return nil, -1, gerr
			}
			prod := int64(int32(m.Reg(x86.EAX))) * int64(int32(v))
			m.SetReg(x86.EAX, uint32(prod))
			m.SetReg(x86.EDX, uint32(uint64(prod)>>32))
		case 2:
			v, gerr := m.getOp(a1)
			if gerr != nil {
				return nil, -1, gerr
			}
			m.SetReg(a0.Reg, uint32(int32(m.Reg(a0.Reg))*int32(v)))
		default:
			v, gerr := m.getOp(a1)
			if gerr != nil {
				return nil, -1, gerr
			}
			m.SetReg(a0.Reg, uint32(int32(v)*int32(a2.Imm)))
		}

	case x86.PUSH:
		v, gerr := m.getOp(a0)
		if gerr != nil {
			return nil, -1, gerr
		}
		m.push(v)
	case x86.POP:
		v, perr := m.pop()
		if perr != nil {
			return nil, -1, perr
		}
		return nil, -1, m.setOp(a0, v)
	case x86.PUSHAD:
		sp := m.Regs[x86.ESP.Num()]
		for _, r := range []x86.Reg{x86.EAX, x86.ECX, x86.EDX, x86.EBX} {
			m.push(m.Reg(r))
		}
		m.push(sp)
		for _, r := range []x86.Reg{x86.EBP, x86.ESI, x86.EDI} {
			m.push(m.Reg(r))
		}
	case x86.POPAD:
		for _, r := range []x86.Reg{x86.EDI, x86.ESI, x86.EBP} {
			v, perr := m.pop()
			if perr != nil {
				return nil, -1, perr
			}
			m.SetReg(r, v)
		}
		if _, perr := m.pop(); perr != nil { // discarded esp image
			return nil, -1, perr
		}
		for _, r := range []x86.Reg{x86.EBX, x86.EDX, x86.ECX, x86.EAX} {
			v, perr := m.pop()
			if perr != nil {
				return nil, -1, perr
			}
			m.SetReg(r, v)
		}
	case x86.PUSHFD:
		m.push(0) // flags image not needed by our workloads
	case x86.POPFD:
		if _, perr := m.pop(); perr != nil {
			return nil, -1, perr
		}

	case x86.JMP:
		if in.HasTarget {
			return nil, int(in.Target), nil
		}
		v, gerr := m.getOp(a0)
		if gerr != nil {
			return nil, -1, gerr
		}
		return nil, int(v), nil
	case x86.JCC:
		if m.cond(in.Cond) {
			return nil, int(in.Target), nil
		}
	case x86.LOOP:
		c := m.Reg(x86.ECX) - 1
		m.SetReg(x86.ECX, c)
		if c != 0 {
			return nil, int(in.Target), nil
		}
	case x86.LOOPE:
		c := m.Reg(x86.ECX) - 1
		m.SetReg(x86.ECX, c)
		if c != 0 && m.ZF {
			return nil, int(in.Target), nil
		}
	case x86.LOOPNE:
		c := m.Reg(x86.ECX) - 1
		m.SetReg(x86.ECX, c)
		if c != 0 && !m.ZF {
			return nil, int(in.Target), nil
		}
	case x86.JECXZ:
		if m.Reg(x86.ECX) == 0 {
			return nil, int(in.Target), nil
		}
	case x86.CALL:
		m.push(uint32(next))
		if in.HasTarget {
			return nil, int(in.Target), nil
		}
		v, gerr := m.getOp(a0)
		if gerr != nil {
			return nil, -1, gerr
		}
		return nil, int(v), nil
	case x86.RET:
		v, perr := m.pop()
		if perr != nil {
			m.stop = Stop{Kind: StopRet}
			return &m.stop, -1, nil
		}
		return nil, int(v), nil

	case x86.INT:
		if a0.Imm == 0x80 {
			m.stop = Stop{Kind: StopSyscall, Sysnum: m.Reg(x86.EAX)}
			return &m.stop, -1, nil
		}
		return nil, -1, fmt.Errorf("%w: int %#x", ErrUnsupported, a0.Imm)
	case x86.INT3, x86.INTO, x86.HLT:
		m.stop = Stop{Kind: StopRet}
		return &m.stop, -1, nil

	case x86.SETCC:
		v := uint32(0)
		if m.cond(in.Cond) {
			v = 1
		}
		return nil, -1, m.setOp(a0, v)
	case x86.CMOVCC:
		if m.cond(in.Cond) {
			v, gerr := m.getOp(a1)
			if gerr != nil {
				return nil, -1, gerr
			}
			m.SetReg(a0.Reg, v)
		}
	case x86.BSWAP:
		v := m.Reg(a0.Reg)
		m.SetReg(a0.Reg, v<<24|v>>24|(v&0xff00)<<8|(v>>8)&0xff00)

	case x86.STOSB:
		if err := m.store(m.Reg(x86.EDI), 1, m.Reg(x86.AL)); err != nil {
			return nil, -1, err
		}
		m.stringStep(x86.EDI, 1)
	case x86.STOSD:
		if err := m.store(m.Reg(x86.EDI), 4, m.Reg(x86.EAX)); err != nil {
			return nil, -1, err
		}
		m.stringStep(x86.EDI, 4)
	case x86.LODSB:
		v, lerr := m.load(m.Reg(x86.ESI), 1)
		if lerr != nil {
			return nil, -1, lerr
		}
		m.SetReg(x86.AL, v)
		m.stringStep(x86.ESI, 1)
	case x86.LODSD:
		v, lerr := m.load(m.Reg(x86.ESI), 4)
		if lerr != nil {
			return nil, -1, lerr
		}
		m.SetReg(x86.EAX, v)
		m.stringStep(x86.ESI, 4)
	case x86.MOVSB:
		v, lerr := m.load(m.Reg(x86.ESI), 1)
		if lerr != nil {
			return nil, -1, lerr
		}
		if err := m.store(m.Reg(x86.EDI), 1, v); err != nil {
			return nil, -1, err
		}
		m.stringStep(x86.ESI, 1)
		m.stringStep(x86.EDI, 1)

	default:
		return nil, -1, fmt.Errorf("%w: %s", ErrUnsupported, in.String())
	}
	return nil, jump, nil
}

// stringStep advances a string-op register according to DF.
func (m *Machine) stringStep(r x86.Reg, n uint32) {
	if m.DF {
		m.SetReg(r, m.Reg(r)-n)
	} else {
		m.SetReg(r, m.Reg(r)+n)
	}
}

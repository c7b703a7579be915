package ir_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"semnids/internal/exploits"
	"semnids/internal/ir"
	"semnids/internal/x86"
)

// TestLayoutSizes pins the compact lift layout: a Node refers to its
// instruction instead of embedding it, and an Inst packs its operands.
func TestLayoutSizes(t *testing.T) {
	if got := unsafe.Sizeof(ir.Node{}); got > 72 {
		t.Errorf("sizeof(ir.Node) = %d, want <= 72", got)
	}
	if got := unsafe.Sizeof(x86.Inst{}); got > 96 {
		t.Errorf("sizeof(x86.Inst) = %d, want <= 96", got)
	}
}

// TestLayoutPointerFree walks the lift records' types: neither may
// hold a pointer, so decode and node buffers are never scanned by the
// garbage collector and their copies need no write barriers.
func TestLayoutPointerFree(t *testing.T) {
	for _, v := range []any{ir.Node{}, x86.Inst{}} {
		if path, ok := pointerPath(reflect.TypeOf(v)); ok {
			t.Errorf("%T holds a pointer at %T%s", v, v, path)
		}
	}
}

// pointerPath returns the selector path from typ to its first
// pointer-carrying component, if any.
func pointerPath(typ reflect.Type) (string, bool) {
	switch typ.Kind() {
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if p, ok := pointerPath(f.Type); ok {
				return "." + f.Name + p, true
			}
		}
	case reflect.Array:
		if p, ok := pointerPath(typ.Elem()); ok {
			return "[i]" + p, true
		}
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
		reflect.Chan, reflect.Func, reflect.Interface, reflect.String:
		return " (" + typ.String() + ")", true
	}
	return "", false
}

// render prints every node of both orders with the instruction it
// refers to, so two programs compare by content, not by storage.
func render(p *ir.Program) string {
	var b strings.Builder
	for _, nodes := range [][]ir.Node{p.Nodes, p.Raw} {
		fmt.Fprintf(&b, "%d nodes\n", len(nodes))
		for i := range nodes {
			n := &nodes[i]
			fmt.Fprintf(&b, "%d %v %+v\n", n.Idx, *p.Inst(n), *n)
		}
	}
	return b.String()
}

// TestReuseAliasing lifts one frame into a Program, re-lifts another
// into the same Program, and checks the result against a fresh lift:
// nodes alias the current sweep only, so nothing from the previous
// lift may leak through the reused node storage or a reset decode
// cache — in either direction of frame size.
func TestReuseAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	junk := make([]byte, 700)
	rng.Read(junk)
	frames := [][]byte{exploits.Table1Exploits()[0].Payload, junk, exploits.NetskyBinary(5, 2048), {0x90}}
	for i, a := range frames {
		for j, b := range frames {
			if i == j {
				continue
			}
			var p ir.Program
			c := x86.NewDecodeCache(a)
			for off := 0; off < 4 && off < len(a); off++ {
				p.Reuse(c.Sweep(off))
			}
			c.Reset(b)
			for off := 0; off < 4 && off < len(b); off++ {
				p.Reuse(c.Sweep(off))
				want := render(ir.Lift(x86.Sweep(b, off)))
				if got := render(&p); got != want {
					t.Fatalf("frame %d after %d, offset %d: reused lift differs from fresh lift", j, i, off)
				}
			}
		}
	}
}

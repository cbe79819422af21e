package instrument

import (
	"fmt"
	"strconv"
	"strings"

	"gocured/internal/cil"
)

// KeyPair is one check's reference key next to the key the optimizer
// uses in its place.
type KeyPair struct{ Ref, Got string }

// OptimizerKeys runs Optimize's per-function stages over c and reports,
// for every function, the keys of the checks as the available-check pass
// sees them (reference fact key against interned fact ID) and as SEQ
// coalescing sees them (reference base key against the keyer's).
func OptimizerKeys(c *Cured, visit func(fn string, facts, seqBases []KeyPair)) {
	o := newOptimizer(c.Lay)
	for _, f := range c.Prog.Funcs {
		fo := &FuncOpt{}
		hoistLoops(f.Body, fo)
		g := cil.BuildCFG(f)
		a := o.intern(g)
		var facts []KeyPair
		for i, b := range g.Blocks {
			for j, si := range b.Instrs {
				if chk, ok := si.Ins.(*cil.Check); ok {
					id := a.steps[a.start[i]+j].fact
					facts = append(facts, KeyPair{factKeyRef(chk), strconv.Itoa(int(id))})
				}
			}
		}
		o.eliminateAvailable(g, f, fo)
		var seqBases []KeyPair
		cil.WalkInstrs(f.Body.Stmts, func(i cil.Instr) {
			if chk, ok := i.(*cil.Check); ok && chk.Kind == cil.CheckSeq {
				base, _ := splitConstOffset(chk.Ptr)
				var ref strings.Builder
				keyExprRef(&ref, base)
				fmt.Fprintf(&ref, "|%d", chk.Size)
				seqBases = append(seqBases, KeyPair{ref.String(), string(o.keys.seqBase(base, chk.Size))})
			}
		})
		visit(f.Name, facts, seqBases)
	}
}

// factKeyRef, keyExprRef and keyLvalRef are the optimizer's original
// fmt-based keys, kept as the reference the interned keys must agree with:
// two checks share a fact ID exactly when their reference keys are equal.
// Type occurrences are keyed by node address (%p).
func factKeyRef(c *cil.Check) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d|", int(c.Kind))
	keyExprRef(&b, c.Ptr)
	fmt.Fprintf(&b, "|%d", c.Size)
	if c.RttiTarget != nil {
		fmt.Fprintf(&b, "|%p", c.RttiTarget)
	}
	if c.DstLV != nil {
		b.WriteString("|dst:")
		keyLvalRef(&b, c.DstLV)
	}
	return b.String()
}

func keyExprRef(b *strings.Builder, e cil.Expr) {
	switch x := e.(type) {
	case nil:
	case *cil.Const:
		fmt.Fprintf(b, "c%d", x.I)
	case *cil.FConst:
		fmt.Fprintf(b, "f%g", x.F)
	case *cil.StrConst:
		fmt.Fprintf(b, "s%q", x.S)
	case *cil.FnConst:
		fmt.Fprintf(b, "fn:%s", x.Name)
	case *cil.SizeOf:
		fmt.Fprintf(b, "sz%p", x.Of)
	case *cil.Lval:
		keyLvalRef(b, x.LV)
	case *cil.AddrOf:
		b.WriteByte('&')
		keyLvalRef(b, x.LV)
	case *cil.BinOp:
		fmt.Fprintf(b, "(%d ", int(x.Op))
		keyExprRef(b, x.A)
		b.WriteByte(' ')
		keyExprRef(b, x.B)
		b.WriteByte(')')
	case *cil.UnOp:
		fmt.Fprintf(b, "(u%d ", int(x.Op))
		keyExprRef(b, x.X)
		b.WriteByte(')')
	case *cil.Cast:
		fmt.Fprintf(b, "(cast%p ", x.To)
		keyExprRef(b, x.X)
		b.WriteByte(')')
	default:
		fmt.Fprintf(b, "?%T", e)
	}
}

func keyLvalRef(b *strings.Builder, lv *cil.Lvalue) {
	if lv.Var != nil {
		if lv.Var.Global {
			fmt.Fprintf(b, "g%d", lv.Var.ID)
		} else {
			fmt.Fprintf(b, "l%d", lv.Var.ID)
		}
	} else {
		b.WriteString("(*")
		keyExprRef(b, lv.Mem)
		b.WriteByte(')')
	}
	for _, o := range lv.Offset {
		if o.Field != nil {
			fmt.Fprintf(b, ".%s", o.Field.Name)
		} else {
			b.WriteByte('[')
			keyExprRef(b, o.Index)
			b.WriteByte(']')
		}
	}
}

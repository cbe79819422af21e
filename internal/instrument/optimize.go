package instrument

import (
	"bytes"
	"reflect"
	"slices"
	"strconv"

	"gocured/internal/cil"
	"gocured/internal/ctypes"
	"gocured/internal/diag"
)

// Check-elimination over a real control-flow graph. The paper notes that,
// unlike binary instrumentors, CCured can use static information to remove
// checks; this pass is where that advantage is cashed in. Three
// transformations run per function, in order:
//
//  1. Loop pass (structured tree): checks in the guaranteed prefix of a
//     loop body — the statements that execute on every iteration before
//     anything can write memory or leave the loop, crossing only
//     `if (c) break;` guards — are moved to a guarded preheader when their
//     operands are loop-invariant, and *widened* to a pair of endpoint
//     checks when they are affine in a recognized induction variable
//     (`for (i = i0; i < N; i++) ... a[i]`: check a+i0 and a+N-1 once,
//     instead of a+i every iteration).
//
//  2. Available-check elimination (CFG dataflow): a check is deleted when
//     an identical check is available on *every* path from the entry and
//     nothing that could change its outcome intervenes. Availability is an
//     intersection dataflow over the basic-block graph, so facts survive
//     branches and joins: a check established before an `if` (or in both
//     arms) still covers the code after the join, and a check dominated by
//     an identical unkilled check is always removed (availability on every
//     path subsumes availability on the dominating path). This replaces
//     the old straight-line pass, whose "entering or leaving nested
//     control flow clears all facts" conservatism gave loops — exactly
//     where SEQ bounds checks dominate cost — no relief. Each function's
//     checks are interned to dense fact IDs once, before the fixpoint,
//     and fact sets are bitsets: the join is AND and kills are
//     precomputed masks.
//
//  3. SEQ coalescing (per block): adjacent SEQ bounds checks on the same
//     base pointer with constant element offsets collapse into the first
//     check, widened to cover the whole constant range (`p[0] + p[1] +
//     p[2]` pays one check, not three).
//
// Safety argument (the differential fuzzer in internal/interp enforces it
// empirically): a hoisted or widened check may trap *earlier* than the
// checks it replaces, but only on executions that would have trapped
// anyway — the guaranteed-prefix rule means the moved check runs in the
// preheader exactly when the first iteration would have run it, and the
// endpoint pair of a widened check fails exactly when some iteration's
// check would have failed (the offsets are monotone in the induction
// variable, so the endpoints bound every intermediate access). Eliminated
// checks are re-proved by an identical check on every incoming path.
// Coalescing can move a bounds trap from a later access in a group to the
// group head, but the group spans no observable effect (checks are emitted
// adjacently, before the statement they guard), so only the trap's column
// and pointer value can differ — never whether the program traps, the trap
// kind, or anything it printed.

// Kill rules (shared by every pass):
//
//   - a Set to a variable kills facts that mention that variable;
//   - a store through memory kills facts that read memory or mention
//     address-taken or global variables (potential aliases);
//   - a call kills the same set (a callee cannot touch the caller's
//     non-address-taken locals).

// OptStats summarizes one optimization run over a program.
type OptStats struct {
	// Eliminated counts checks deleted by available-check elimination;
	// Coalesced counts SEQ checks merged into a widened neighbor. Both are
	// static deletions.
	Eliminated int
	Coalesced  int
	// Hoisted counts loop-invariant checks moved to a preheader; Widened
	// counts induction checks replaced by an endpoint pair. These keep a
	// static site but stop executing once per iteration.
	Hoisted int
	Widened int
	// EliminatedByKind breaks the static deletions down by check kind.
	EliminatedByKind map[cil.CheckKind]int
	// PerFunc maps function name to its per-function statistics.
	PerFunc map[string]*FuncOpt
	// Sites attributes every statically deleted check to its source
	// position, so run-time reporting (TopSites, -explain) can show what
	// the optimizer removed instead of silently under-counting.
	Sites []SiteElim
}

// Removed returns the number of check instructions deleted outright.
func (s *OptStats) Removed() int { return s.Eliminated + s.Coalesced }

// FuncOpt is the per-function optimization summary.
type FuncOpt struct {
	Before, After                           int // static checks in the body
	Eliminated, Hoisted, Widened, Coalesced int
	Blocks, Loops                           int // CFG shape
}

// SiteElim records statically deleted checks at one source site.
type SiteElim struct {
	Pos  diag.Pos
	Kind cil.CheckKind
	N    int
}

// Optimize runs the check optimizer over c.Prog and records the statistics
// on c. It must run after Cure and is skipped entirely at -O0.
func Optimize(c *Cured) *OptStats {
	o := newOptimizer(c.Lay)
	st := o.st
	for _, f := range c.Prog.Funcs {
		fo := o.function(f)
		st.PerFunc[f.Name] = fo
		st.Eliminated += fo.Eliminated
		st.Hoisted += fo.Hoisted
		st.Widened += fo.Widened
		st.Coalesced += fo.Coalesced
	}
	c.Opt = st
	c.ChecksEliminated = st.Removed()
	return st
}

// optimizer is the state of one Optimize run. Its maps and buffers are
// reused from function to function.
type optimizer struct {
	lay   *Layout
	st    *OptStats
	sites map[siteKey]int // index into st.Sites
	keys  keyer
	// Available-check scratch (see intern and eliminateAvailable).
	ids    map[string]int32 // check key -> fact ID, cleared per function
	varIdx map[*cil.Var]int32
	deps   factDeps
	avail  availFn
	del    map[*cil.SInstr]bool
}

// siteKey identifies one source site × check kind of SiteElim. Positions
// that are not valid all render as "<generated>" and share one key.
type siteKey struct {
	pos  diag.Pos
	kind cil.CheckKind
}

func newOptimizer(lay *Layout) *optimizer {
	return &optimizer{
		lay: lay,
		st: &OptStats{
			EliminatedByKind: make(map[cil.CheckKind]int),
			PerFunc:          make(map[string]*FuncOpt),
		},
		sites:  make(map[siteKey]int),
		keys:   keyer{types: make(map[*ctypes.Type]int)},
		ids:    make(map[string]int32),
		varIdx: make(map[*cil.Var]int32),
		del:    make(map[*cil.SInstr]bool),
	}
}

// function runs the three transformations over f.
func (o *optimizer) function(f *cil.Func) *FuncOpt {
	fo := &FuncOpt{Before: countChecks(f.Body.Stmts)}
	hoistLoops(f.Body, fo)
	g := cil.BuildCFG(f)
	fo.Blocks = len(g.Blocks)
	fo.Loops = countLoops(g, g.Dominators())
	o.eliminateAvailable(g, f, fo)
	o.coalesceSeq(f.Body, fo)
	fo.After = countChecks(f.Body.Stmts)
	return fo
}

// record attributes one statically deleted check to its site.
func (o *optimizer) record(chk *cil.Check) {
	st := o.st
	st.EliminatedByKind[chk.Kind]++
	k := siteKey{pos: chk.Pos, kind: chk.Kind}
	if !k.pos.IsValid() {
		k.pos = diag.Pos{}
	}
	if i, ok := o.sites[k]; ok {
		st.Sites[i].N++
		return
	}
	o.sites[k] = len(st.Sites)
	st.Sites = append(st.Sites, SiteElim{Pos: chk.Pos, Kind: chk.Kind, N: 1})
}

func countChecks(stmts []cil.Stmt) int {
	n := 0
	cil.WalkInstrs(stmts, func(i cil.Instr) {
		if _, ok := i.(*cil.Check); ok {
			n++
		}
	})
	return n
}

// countLoops returns the number of natural loops of g, len(g.NaturalLoops)
// without building their bodies: NaturalLoops merges the loops that share
// a header, so there is one loop per distinct back-edge target.
func countLoops(g *cil.CFG, dom *cil.DomTree) int {
	head := make([]bool, len(g.Blocks))
	n := 0
	for _, u := range g.Blocks {
		for _, h := range u.Succs {
			if !head[h.ID] && dom.Dominates(h, u) {
				head[h.ID] = true
				n++
			}
		}
	}
	return n
}

// ---- fact keys and dependencies ----

// factDeps describes what a check's operands depend on.
type factDeps struct {
	vars     []*cil.Var // distinct, in first-reference order
	memRead  bool
	addrVars bool // references an address-taken or global variable
}

func (d *factDeps) mentions(v *cil.Var) bool { return slices.Contains(d.vars, v) }

func (d *factDeps) addVar(v *cil.Var) {
	if !d.mentions(v) {
		d.vars = append(d.vars, v)
	}
}

// depsOf fills d with the dependencies of c's operands, reusing d's
// variable slice.
func depsOf(c *cil.Check, d *factDeps) {
	*d = factDeps{vars: d.vars[:0]}
	d.expr(c.Ptr)
	if c.DstLV != nil {
		d.lvalueOperands(c.DstLV)
		if c.DstLV.Var != nil {
			d.addVar(c.DstLV.Var)
		} else {
			d.memRead = true
		}
	}
}

// expr records the dependencies of e and every subexpression of it.
func (d *factDeps) expr(e cil.Expr) {
	switch x := e.(type) {
	case *cil.Lval:
		d.lvalueOperands(x.LV)
		if v := x.LV.Var; v != nil {
			d.addVar(v)
			if v.AddrTaken || v.Global {
				d.addrVars = true
			}
			if len(x.LV.Offset) > 0 {
				// reading through offsets touches memory
				d.memRead = true
			}
		} else {
			d.memRead = true
		}
	case *cil.AddrOf:
		d.lvalueOperands(x.LV)
		if x.LV.Mem != nil {
			d.memRead = true
		}
	case *cil.BinOp:
		d.expr(x.A)
		d.expr(x.B)
	case *cil.UnOp:
		d.expr(x.X)
	case *cil.Cast:
		d.expr(x.X)
	}
}

// lvalueOperands records the dependencies of the expressions inside lv:
// its dereferenced pointer and its index operands.
func (d *factDeps) lvalueOperands(lv *cil.Lvalue) {
	if lv.Mem != nil {
		d.expr(lv.Mem)
	}
	for _, off := range lv.Offset {
		if off.Index != nil {
			d.expr(off.Index)
		}
	}
}

// keyer renders value-identity keys into a reused buffer. Unlike
// ExprString a key qualifies variables with their IDs (shadowed names must
// not collide) and type occurrences with their node identity (two casts
// that print alike can still convert between different pointer kinds). A
// type's identity is its ordinal among the distinct *ctypes.Type pointers
// the keyer has met, so two keys are equal exactly when the checks'
// operands are the same values over the same type nodes, and no address
// is ever formatted.
type keyer struct {
	buf   []byte
	types map[*ctypes.Type]int
	kinds map[reflect.Type]int // expression kinds expr has no case for
}

func (k *keyer) num(i int64) { k.buf = strconv.AppendInt(k.buf, i, 10) }

func (k *keyer) typ(t *ctypes.Type) {
	id, ok := k.types[t]
	if !ok {
		id = len(k.types)
		k.types[t] = id
	}
	k.num(int64(id))
}

// check renders c's fact key: kind, checked operand, size, RTTI target and
// stack-escape destination.
func (k *keyer) check(c *cil.Check) []byte {
	k.buf = k.buf[:0]
	k.num(int64(c.Kind))
	k.buf = append(k.buf, '|')
	k.expr(c.Ptr)
	k.buf = append(k.buf, '|')
	k.num(int64(c.Size))
	if c.RttiTarget != nil {
		k.buf = append(k.buf, '|')
		k.typ(c.RttiTarget)
	}
	if c.DstLV != nil {
		k.buf = append(k.buf, "|dst:"...)
		k.lval(c.DstLV)
	}
	return k.buf
}

// seqBase renders the key SEQ coalescing groups by: the base pointer and
// the access size.
func (k *keyer) seqBase(base cil.Expr, size int) []byte {
	k.buf = k.buf[:0]
	k.expr(base)
	k.buf = append(k.buf, '|')
	k.num(int64(size))
	return k.buf
}

func (k *keyer) expr(e cil.Expr) {
	switch x := e.(type) {
	case nil:
	case *cil.Const:
		k.buf = append(k.buf, 'c')
		k.num(x.I)
	case *cil.FConst:
		k.buf = append(k.buf, 'f')
		k.buf = strconv.AppendFloat(k.buf, x.F, 'g', -1, 64)
	case *cil.StrConst:
		k.buf = append(k.buf, 's')
		k.buf = strconv.AppendQuote(k.buf, x.S)
	case *cil.FnConst:
		k.buf = append(k.buf, "fn:"...)
		k.buf = append(k.buf, x.Name...)
	case *cil.SizeOf:
		k.buf = append(k.buf, "sz"...)
		k.typ(x.Of)
	case *cil.Lval:
		k.lval(x.LV)
	case *cil.AddrOf:
		k.buf = append(k.buf, '&')
		k.lval(x.LV)
	case *cil.BinOp:
		k.buf = append(k.buf, '(')
		k.num(int64(x.Op))
		k.buf = append(k.buf, ' ')
		k.expr(x.A)
		k.buf = append(k.buf, ' ')
		k.expr(x.B)
		k.buf = append(k.buf, ')')
	case *cil.UnOp:
		k.buf = append(k.buf, "(u"...)
		k.num(int64(x.Op))
		k.buf = append(k.buf, ' ')
		k.expr(x.X)
		k.buf = append(k.buf, ')')
	case *cil.Cast:
		k.buf = append(k.buf, "(cast"...)
		k.typ(x.To)
		k.buf = append(k.buf, ' ')
		k.expr(x.X)
		k.buf = append(k.buf, ')')
	default:
		// Any other expression kind is keyed by its dynamic type alone.
		t := reflect.TypeOf(e)
		if k.kinds == nil {
			k.kinds = make(map[reflect.Type]int)
		}
		id, ok := k.kinds[t]
		if !ok {
			id = len(k.kinds)
			k.kinds[t] = id
		}
		k.buf = append(k.buf, '?')
		k.num(int64(id))
	}
}

func (k *keyer) lval(lv *cil.Lvalue) {
	if lv.Var != nil {
		if lv.Var.Global {
			k.buf = append(k.buf, 'g')
		} else {
			k.buf = append(k.buf, 'l')
		}
		k.num(int64(lv.Var.ID))
	} else {
		k.buf = append(k.buf, "(*"...)
		k.expr(lv.Mem)
		k.buf = append(k.buf, ')')
	}
	for _, o := range lv.Offset {
		if o.Field != nil {
			k.buf = append(k.buf, '.')
			k.buf = append(k.buf, o.Field.Name...)
		} else {
			k.buf = append(k.buf, '[')
			k.expr(o.Index)
			k.buf = append(k.buf, ']')
		}
	}
}

// ---- loop pass: invariant hoisting and induction widening ----

// loopKills summarizes what one loop (body + post, including nested
// statements) can modify.
type loopKills struct {
	vars map[*cil.Var]bool
	mem  bool // stores through memory or into variable interiors
	call bool
}

// exitCounts tallies the ways control can leave one loop.
type exitCounts struct {
	breaks, continues, returns int
}

func summarizeLoop(l *cil.Loop) (loopKills, exitCounts) {
	k := loopKills{vars: make(map[*cil.Var]bool)}
	var ex exitCounts
	killLV := func(lv *cil.Lvalue) {
		if lv == nil {
			return
		}
		if lv.Var != nil && len(lv.Offset) == 0 {
			k.vars[lv.Var] = true
		} else {
			k.mem = true
			if lv.Var != nil {
				k.vars[lv.Var] = true
			}
		}
	}
	visit := func(i cil.Instr) {
		switch in := i.(type) {
		case *cil.Set:
			killLV(in.LV)
		case *cil.Call:
			k.call = true
			k.mem = true
			killLV(in.Result)
		}
	}
	cil.WalkInstrs(l.Body.Stmts, visit)
	countExits(l.Body.Stmts, 0, &ex)
	if l.Post != nil {
		cil.WalkInstrs(l.Post.Stmts, visit)
		countExits(l.Post.Stmts, 0, &ex)
	}
	return k, ex
}

// countExits tallies Break/Continue/Return statements binding to the loop
// at depth 0. depth counts enclosing Loop nesting; Switch captures Break
// but not Continue.
func countExits(stmts []cil.Stmt, depth int, ex *exitCounts) {
	for _, s := range stmts {
		switch st := s.(type) {
		case *cil.Break:
			if depth == 0 {
				ex.breaks++
			}
		case *cil.Continue:
			if depth == 0 {
				ex.continues++
			}
		case *cil.Return:
			ex.returns++
		case *cil.Block:
			countExits(st.Stmts, depth, ex)
		case *cil.If:
			countExits(st.Then.Stmts, depth, ex)
			if st.Else != nil {
				countExits(st.Else.Stmts, depth, ex)
			}
		case *cil.Loop:
			countExits(st.Body.Stmts, depth+1, ex)
			if st.Post != nil {
				countExits(st.Post.Stmts, depth+1, ex)
			}
		case *cil.Switch:
			for _, c := range st.Cases {
				// A Break here binds to the switch; Continue still binds to
				// our loop.
				var inner exitCounts
				countExits(c.Body, depth+1, &inner)
				if depth == 0 {
					ex.continues += inner.continues
				}
				ex.returns += inner.returns
			}
		}
	}
}

// invariantIn reports whether deps cannot be modified by a loop with the
// given kill summary.
func invariantIn(d *factDeps, k loopKills, ignore *cil.Var) bool {
	for _, v := range d.vars {
		if v != ignore && k.vars[v] {
			return false
		}
	}
	if (d.memRead || d.addrVars) && (k.mem || k.call) {
		return false
	}
	return true
}

// hoistLoops walks the statement tree innermost-loop-first, building a
// preheader for each loop out of its hoistable prefix checks.
func hoistLoops(b *cil.Block, fo *FuncOpt) {
	b.Stmts = hoistList(b.Stmts, fo)
}

// hoistList hoists out of the loops in stmts and in the lists nested in
// it. It returns stmts itself unless some loop gained a preheader.
func hoistList(stmts []cil.Stmt, fo *FuncOpt) []cil.Stmt {
	var out []cil.Stmt // nil until the first preheader
	for i, s := range stmts {
		switch st := s.(type) {
		case *cil.Loop:
			hoistLoops(st.Body, fo)
			if st.Post != nil {
				hoistLoops(st.Post, fo)
			}
			if pre := hoistFromLoop(st, fo); pre != nil {
				if out == nil {
					out = append(make([]cil.Stmt, 0, len(stmts)+len(pre)), stmts[:i]...)
				}
				out = append(out, pre...)
			}
		case *cil.If:
			hoistLoops(st.Then, fo)
			if st.Else != nil {
				hoistLoops(st.Else, fo)
			}
		case *cil.Switch:
			for _, c := range st.Cases {
				c.Body = hoistList(c.Body, fo)
			}
		case *cil.Block:
			hoistLoops(st, fo)
		}
		if out != nil {
			out = append(out, s)
		}
	}
	if out == nil {
		return stmts
	}
	return out
}

// induction describes a recognized simple counting loop: v starts at its
// preheader value and increases by 1 per iteration while v < limit (or
// v <= limit). limit is a compile-time constant, so endpoint substitution
// cannot overflow the simulated address space.
type induction struct {
	v     *cil.Var
	limit int64
	maxTy *cil.Const // the guard's constant, reused for the endpoint's type
	le    bool       // guard is v <= limit
}

// maxVal returns the largest value v takes inside the loop.
func (ind *induction) maxVal() int64 {
	if ind.le {
		return ind.limit
	}
	return ind.limit - 1
}

// hoistScan walks the guaranteed prefix of a loop body: the statements that
// run on every iteration before anything can modify state or leave the
// loop, crossing only `if (c) break;` guards. It replays the prefix —
// guards as nested Ifs, hoistable checks as instructions — into a
// preheader, and marks the moved checks for removal from the body.
type hoistScan struct {
	kills   loopKills
	simple  bool // single guard-break exit, no calls: widening is allowed
	indOK   map[*cil.Var]bool
	ind     *induction
	pre     []cil.Stmt
	cur     *[]cil.Stmt
	moved   map[*cil.SInstr]bool
	deps    factDeps // scratch for the check under scan
	nHoist  int
	nWiden  int
	nGuards int
}

// hoistFromLoop returns the preheader statements for l (nil when nothing
// hoists) and deletes the moved checks from the loop body.
func hoistFromLoop(l *cil.Loop, fo *FuncOpt) []cil.Stmt {
	kills, exits := summarizeLoop(l)
	hs := &hoistScan{
		kills:  kills,
		simple: exits.breaks == 1 && exits.continues == 0 && exits.returns == 0 && !kills.call,
		indOK:  make(map[*cil.Var]bool),
		moved:  make(map[*cil.SInstr]bool),
	}
	hs.cur = &hs.pre
	if hs.simple {
		for v := range kills.vars {
			if unitIncrement(l, v) {
				hs.indOK[v] = true
			}
		}
	}
	hs.scan(l.Body.Stmts)
	if hs.nHoist == 0 && hs.nWiden == 0 {
		return nil
	}
	removeMoved(l.Body, hs.moved)
	fo.Hoisted += hs.nHoist
	fo.Widened += hs.nWiden
	return hs.pre
}

// unitIncrement reports whether v's only modification in the loop is a
// single top-level `v = v + 1` in the body or post block.
func unitIncrement(l *cil.Loop, v *cil.Var) bool {
	if v.AddrTaken || v.Global || !v.Type.IsInteger() {
		return false
	}
	// Count every Set targeting v anywhere in the loop.
	total := 0
	visit := func(i cil.Instr) {
		switch in := i.(type) {
		case *cil.Set:
			if in.LV.Var == v && len(in.LV.Offset) == 0 {
				total++
			}
		case *cil.Call:
			if in.Result != nil && in.Result.Var == v && len(in.Result.Offset) == 0 {
				total++
			}
		}
	}
	cil.WalkInstrs(l.Body.Stmts, visit)
	if l.Post != nil {
		cil.WalkInstrs(l.Post.Stmts, visit)
	}
	if total != 1 {
		return false
	}
	// The one Set must be top-level (guaranteed once per iteration) and of
	// the form v = v + 1 — either directly or through the lowerer's
	// post-increment temp pair `t = v; v = t + 1`.
	topLevel := func(stmts []cil.Stmt) bool {
		for idx, s := range stmts {
			si, ok := s.(*cil.SInstr)
			if !ok {
				continue
			}
			set, ok := si.Ins.(*cil.Set)
			if !ok || set.LV.Var != v || len(set.LV.Offset) != 0 {
				continue
			}
			if isPlusOne(set.RHS, v) {
				return true
			}
			if idx > 0 {
				if psi, ok := stmts[idx-1].(*cil.SInstr); ok {
					if ps, ok := psi.Ins.(*cil.Set); ok &&
						ps.LV.Var != nil && ps.LV.Var.Temp && len(ps.LV.Offset) == 0 &&
						isVarRead(ps.RHS, v) && isPlusOne(set.RHS, ps.LV.Var) {
						return true
					}
				}
			}
			return false
		}
		return false
	}
	if l.Post != nil && topLevel(l.Post.Stmts) {
		return true
	}
	return topLevel(l.Body.Stmts)
}

func isPlusOne(e cil.Expr, v *cil.Var) bool {
	bo, ok := stripCasts(e).(*cil.BinOp)
	if !ok || bo.Op != cil.OpAdd {
		return false
	}
	a, b := stripCasts(bo.A), stripCasts(bo.B)
	if c, ok := b.(*cil.Const); ok && c.I == 1 {
		return isVarRead(a, v)
	}
	if c, ok := a.(*cil.Const); ok && c.I == 1 {
		return isVarRead(b, v)
	}
	return false
}

func stripCasts(e cil.Expr) cil.Expr {
	for {
		c, ok := e.(*cil.Cast)
		if !ok {
			return e
		}
		e = c.X
	}
}

func isVarRead(e cil.Expr, v *cil.Var) bool {
	lv, ok := e.(*cil.Lval)
	return ok && lv.LV.Var == v && len(lv.LV.Offset) == 0
}

// maxWidenLimit bounds the constant loop limit widening accepts: endpoint
// substitution multiplies the limit by the element stride at run time, and
// the product must stay far from wrapping the 32-bit simulated address
// space (wrapping could make the endpoint check pass while an intermediate
// access traps).
const maxWidenLimit = 1 << 20

// scan consumes the guaranteed prefix; it returns false when it reaches a
// statement it cannot cross.
func (hs *hoistScan) scan(stmts []cil.Stmt) bool {
	for _, s := range stmts {
		switch st := s.(type) {
		case *cil.SInstr:
			chk, ok := st.Ins.(*cil.Check)
			if !ok {
				return false
			}
			d := &hs.deps
			depsOf(chk, d)
			if invariantIn(d, hs.kills, nil) {
				*hs.cur = append(*hs.cur, &cil.SInstr{Ins: chk})
				hs.moved[st] = true
				hs.nHoist++
				continue
			}
			if w := hs.widen(chk, d); w != nil {
				*hs.cur = append(*hs.cur, &cil.SInstr{Ins: chk}, &cil.SInstr{Ins: w})
				hs.moved[st] = true
				hs.nWiden++
				continue
			}
			// A check we cannot move pins everything after it: moving a
			// later check above this one could reorder traps.
			return false
		case *cil.Block:
			if !hs.scan(st.Stmts) {
				return false
			}
		case *cil.If:
			// Only the guard shape `if (c) break;` can be crossed: when c
			// holds the loop exits, so the rest of the prefix runs exactly
			// when !c — replayed as a nested `if (!c)` in the preheader.
			if len(st.Then.Stmts) != 1 || (st.Else != nil && len(st.Else.Stmts) != 0) {
				return false
			}
			if _, isBreak := st.Then.Stmts[0].(*cil.Break); !isBreak {
				return false
			}
			guard := negate(st.Cond)
			nb := &cil.Block{}
			*hs.cur = append(*hs.cur, &cil.If{Cond: guard, Then: nb})
			hs.cur = &nb.Stmts
			hs.nGuards++
			hs.noteInduction(guard)
		default:
			return false
		}
	}
	return true
}

// noteInduction recognizes a `v < limit` / `v <= limit` guard over a
// unit-increment local with a small constant limit, enabling widening for
// the checks that follow it.
func (hs *hoistScan) noteInduction(guard cil.Expr) {
	if hs.ind != nil || !hs.simple || hs.nGuards != 1 {
		return // widening trusts exactly one guard: the loop's own test
	}
	bo, ok := guard.(*cil.BinOp)
	if !ok || (bo.Op != cil.OpLt && bo.Op != cil.OpLe) {
		return
	}
	lv, ok := stripCasts(bo.A).(*cil.Lval)
	if !ok || lv.LV.Var == nil || len(lv.LV.Offset) != 0 || !hs.indOK[lv.LV.Var] {
		return
	}
	limit, ok := stripCasts(bo.B).(*cil.Const)
	if !ok || limit.I < 0 || limit.I > maxWidenLimit {
		return
	}
	hs.ind = &induction{v: lv.LV.Var, limit: limit.I, maxTy: limit, le: bo.Op == cil.OpLe}
}

// widen returns the endpoint companion of an induction-affine check: the
// original check (evaluated at the loop's entry value of v, under the
// guard) plus this clone at v's final value cover every iteration, because
// the checked quantity is monotone in v. Returns nil when chk is not
// widenable.
func (hs *hoistScan) widen(chk *cil.Check, d *factDeps) *cil.Check {
	ind := hs.ind
	if ind == nil || !d.mentions(ind.v) {
		return nil
	}
	if chk.Kind != cil.CheckSeq && chk.Kind != cil.CheckIndex {
		return nil
	}
	if !invariantIn(d, hs.kills, ind.v) {
		return nil
	}
	maxC := &cil.Const{I: ind.maxVal(), Ty: ind.maxTy.Ty}
	sub, n, monotone := substVar(chk.Ptr, ind.v, maxC)
	if n != 1 || !monotone {
		return nil
	}
	w := &cil.Check{Kind: chk.Kind, Ptr: sub, Size: chk.Size, RttiTarget: chk.RttiTarget}
	w.Pos = chk.Pos
	return w
}

// substVar clones e with reads of v replaced by rep. It returns the clone,
// the number of substitutions, and whether every substitution sits under
// operators that keep the expression monotone in v (+, -, pointer ±, unary
// minus, casts, and multiplication by a constant) — the condition for two
// endpoint checks to bound every intermediate value.
func substVar(e cil.Expr, v *cil.Var, rep cil.Expr) (cil.Expr, int, bool) {
	switch x := e.(type) {
	case *cil.Lval:
		if x.LV.Var == v && len(x.LV.Offset) == 0 {
			return rep, 1, true
		}
		// v anywhere else inside an lvalue (an index, a deref base) is not
		// a monotone position.
		found := false
		cil.WalkLvalue(x.LV, func(sub cil.Expr) {
			cil.WalkExpr(sub, func(y cil.Expr) {
				if isVarRead(y, v) {
					found = true
				}
			})
		})
		if found {
			return e, 1, false
		}
		return e, 0, true
	case *cil.BinOp:
		a, na, oka := substVar(x.A, v, rep)
		b, nb, okb := substVar(x.B, v, rep)
		n := na + nb
		if n == 0 {
			return e, 0, true
		}
		ok := oka && okb
		switch x.Op {
		case cil.OpAdd, cil.OpSub, cil.OpAddPI, cil.OpSubPI:
		case cil.OpMul:
			// Monotone only when the other operand is a constant.
			other := x.B
			if nb > 0 {
				other = x.A
			}
			if _, isConst := stripCasts(other).(*cil.Const); !isConst {
				ok = false
			}
		default:
			ok = false
		}
		return &cil.BinOp{Op: x.Op, A: a, B: b, Ty: x.Ty}, n, ok
	case *cil.UnOp:
		sub, n, ok := substVar(x.X, v, rep)
		if n == 0 {
			return e, 0, true
		}
		if x.Op != cil.OpNeg {
			ok = false
		}
		return &cil.UnOp{Op: x.Op, X: sub, Ty: x.Ty}, n, ok
	case *cil.Cast:
		sub, n, ok := substVar(x.X, v, rep)
		if n == 0 {
			return e, 0, true
		}
		c := *x
		c.X = sub
		return &c, n, ok
	case *cil.AddrOf:
		found := false
		cil.WalkLvalue(x.LV, func(sub cil.Expr) {
			cil.WalkExpr(sub, func(y cil.Expr) {
				if isVarRead(y, v) {
					found = true
				}
			})
		})
		if found {
			return e, 1, false
		}
		return e, 0, true
	default:
		return e, 0, true
	}
}

// negate returns !c, folding double negation and flipping integer
// comparisons (exact for the IR's integer conditions).
func negate(c cil.Expr) cil.Expr {
	switch x := c.(type) {
	case *cil.UnOp:
		if x.Op == cil.OpNot {
			return x.X
		}
	case *cil.BinOp:
		var flip cil.Op
		switch x.Op {
		case cil.OpLt:
			flip = cil.OpGe
		case cil.OpGe:
			flip = cil.OpLt
		case cil.OpLe:
			flip = cil.OpGt
		case cil.OpGt:
			flip = cil.OpLe
		case cil.OpEq:
			flip = cil.OpNe
		case cil.OpNe:
			flip = cil.OpEq
		default:
			return &cil.UnOp{Op: cil.OpNot, X: c, Ty: x.Ty}
		}
		return &cil.BinOp{Op: flip, A: x.A, B: x.B, Ty: x.Ty}
	}
	return &cil.UnOp{Op: cil.OpNot, X: c, Ty: c.Type()}
}

// removeMoved deletes the marked instruction statements from the tree.
func removeMoved(b *cil.Block, del map[*cil.SInstr]bool) {
	if len(del) == 0 {
		return
	}
	b.Stmts = filterStmts(b.Stmts, del)
}

// filterStmts removes the marked statements from stmts and from the lists
// nested in it. A list is copied only when it loses a statement; otherwise
// stmts itself is returned.
func filterStmts(stmts []cil.Stmt, del map[*cil.SInstr]bool) []cil.Stmt {
	var out []cil.Stmt // nil until the first deletion
	for i, s := range stmts {
		switch st := s.(type) {
		case *cil.SInstr:
			if del[st] {
				if out == nil {
					out = append(make([]cil.Stmt, 0, len(stmts)-1), stmts[:i]...)
				}
				continue
			}
		case *cil.Block:
			removeMoved(st, del)
		case *cil.If:
			removeMoved(st.Then, del)
			if st.Else != nil {
				removeMoved(st.Else, del)
			}
		case *cil.Loop:
			removeMoved(st.Body, del)
			if st.Post != nil {
				removeMoved(st.Post, del)
			}
		case *cil.Switch:
			for _, c := range st.Cases {
				c.Body = filterStmts(c.Body, del)
			}
		}
		if out != nil {
			out = append(out, s)
		}
	}
	if out == nil {
		return stmts
	}
	return out
}

// ---- available-check elimination (CFG dataflow) ----

// availFn is one function's availability problem. Every check in the CFG
// carries a dense fact ID, every instruction's effect on a fact set is
// precomputed, and fact sets are bitsets of words uint64s, so the fixpoint
// does no hashing, formatting or map copying.
type availFn struct {
	nfacts int
	words  int
	// start[b] indexes block b's first step; steps[start[b]:start[b+1]]
	// parallels b.Instrs.
	start []int
	steps []step
	// masks holds the kill masks, words uint64s each: mask 0 is every fact
	// that reads memory or mentions an address-taken or global variable;
	// mask 1+i is every fact that mentions variable i (optimizer.varIdx).
	masks []uint64
	// Fact f's dependencies are deps[depStart[f]:depStart[f+1]]: variable
	// indexes, and -1 for mask 0.
	deps     []int32
	depStart []int
	// Dataflow storage: every block's OUT set, whether it is computed yet
	// (false is ⊤), the one scratch set, and the redundant checks found.
	out       []uint64
	done      []bool
	in        []uint64
	redundant []*cil.SInstr
}

// step is one instruction's effect on the set of available facts.
type step struct {
	fact  int32 // the check's fact ID, or -1 for any other instruction
	kill  int32 // the variable whose mask it kills, or -1
	mem   bool  // kills mask 0
	clear bool  // an instruction kind the pass does not know: kills all
}

func (a *availFn) mask(i int) []uint64 { return a.masks[i*a.words : (i+1)*a.words] }

// intern builds f's availability problem over g into o.avail. Two checks
// share a fact ID exactly when their keys are equal; a fact's
// dependencies are those of the first check with its key.
func (o *optimizer) intern(g *cil.CFG) *availFn {
	a := &o.avail
	clear(o.ids)
	clear(o.varIdx)
	a.start = append(a.start[:0], 0)
	a.steps = a.steps[:0]
	a.deps = a.deps[:0]
	a.depStart = append(a.depStart[:0], 0)
	for _, b := range g.Blocks {
		for _, si := range b.Instrs {
			chk, ok := si.Ins.(*cil.Check)
			if !ok {
				a.steps = append(a.steps, step{fact: -1, kill: -1})
				continue
			}
			key := o.keys.check(chk)
			id, seen := o.ids[string(key)]
			if !seen {
				id = int32(len(o.ids))
				o.ids[string(key)] = id
				depsOf(chk, &o.deps)
				for _, v := range o.deps.vars {
					vi, ok := o.varIdx[v]
					if !ok {
						vi = int32(len(o.varIdx))
						o.varIdx[v] = vi
					}
					a.deps = append(a.deps, vi)
				}
				if o.deps.memRead || o.deps.addrVars {
					a.deps = append(a.deps, -1)
				}
				a.depStart = append(a.depStart, len(a.deps))
			}
			a.steps = append(a.steps, step{fact: id, kill: -1})
		}
		a.start = append(a.start, len(a.steps))
	}
	a.nfacts = len(o.ids)
	a.words = (a.nfacts + 63) / 64
	a.masks = zeroed(a.masks, (1+len(o.varIdx))*a.words)
	for id := 0; id < a.nfacts; id++ {
		for _, vi := range a.deps[a.depStart[id]:a.depStart[id+1]] {
			a.mask(int(vi) + 1)[id>>6] |= 1 << (id & 63)
		}
	}
	// Kills: an assignment to a whole variable kills the facts mentioning
	// it; a store through memory or into a variable's interior also kills
	// mask 0, and so does every call.
	for i, b := range g.Blocks {
		steps := a.steps[a.start[i]:a.start[i+1]]
		for j, si := range b.Instrs {
			st := &steps[j]
			switch in := si.Ins.(type) {
			case *cil.Check:
			case *cil.Set:
				o.killLV(st, in.LV)
			case *cil.Call:
				st.mem = true
				o.killLV(st, in.Result)
			default:
				st.clear = true
			}
		}
	}
	return a
}

func (o *optimizer) killLV(st *step, lv *cil.Lvalue) {
	if lv == nil {
		return
	}
	if len(lv.Offset) > 0 || lv.Var == nil {
		st.mem = true
	}
	if lv.Var != nil {
		if vi, ok := o.varIdx[lv.Var]; ok {
			st.kill = vi
		}
	}
}

// transfer simulates block b over s in place; when redundant is non-nil it
// appends the checks found redundant, in instruction order.
func (a *availFn) transfer(b *cil.BBlock, s []uint64, redundant *[]*cil.SInstr) {
	for j, st := range a.steps[a.start[b.ID]:a.start[b.ID+1]] {
		switch {
		case st.fact >= 0:
			w, bit := st.fact>>6, uint64(1)<<(st.fact&63)
			if s[w]&bit != 0 {
				if redundant != nil {
					*redundant = append(*redundant, b.Instrs[j])
				}
				continue
			}
			s[w] |= bit
		case st.clear:
			clear(s)
		default:
			if st.mem {
				andNot(s, a.mask(0))
			}
			if st.kill >= 0 {
				andNot(s, a.mask(1+int(st.kill)))
			}
		}
	}
}

// zeroed returns s resized to n elements, all zero, reusing its storage.
func zeroed[T any](s []T, n int) []T {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

func andNot(s, m []uint64) {
	for i := range s {
		s[i] &^= m[i]
	}
}

// eliminateAvailable runs the availability dataflow over g and deletes
// every check whose fact already holds on all incoming paths.
func (o *optimizer) eliminateAvailable(g *cil.CFG, f *cil.Func, fo *FuncOpt) {
	a := o.intern(g)
	if a.nfacts == 0 {
		return
	}
	w := a.words
	rpo := g.ReversePostorder()
	a.out = zeroed(a.out, len(g.Blocks)*w)
	a.done = zeroed(a.done, len(g.Blocks))
	a.in = zeroed(a.in, w)
	out, done, in := a.out, a.done, a.in
	inOf := func(b *cil.BBlock) {
		clear(in)
		if b == g.Entry {
			return
		}
		first := true
		for _, p := range b.Preds {
			if !done[p.ID] {
				continue
			}
			po := out[p.ID*w : (p.ID+1)*w]
			if first {
				copy(in, po)
				first = false
				continue
			}
			for i := range in {
				in[i] &= po[i]
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, b := range rpo {
			inOf(b)
			a.transfer(b, in, nil)
			bo := out[b.ID*w : (b.ID+1)*w]
			if !done[b.ID] || !slices.Equal(bo, in) {
				copy(bo, in)
				done[b.ID] = true
				changed = true
			}
		}
	}

	// Final pass: re-simulate each reachable block from its fixed IN set,
	// collecting the redundant checks in RPO and instruction order, then
	// filter the tree.
	a.redundant = a.redundant[:0]
	for _, b := range rpo {
		inOf(b)
		a.transfer(b, in, &a.redundant)
	}
	if len(a.redundant) == 0 {
		return
	}
	clear(o.del)
	for _, si := range a.redundant {
		o.del[si] = true
		fo.Eliminated++
		o.record(si.Ins.(*cil.Check))
	}
	removeMoved(f.Body, o.del)
}

// ---- SEQ coalescing ----

// seqStride returns the byte stride of one element step of a SEQ check's
// pointer (0 when unknown).
func seqStride(lay *Layout, ptr cil.Expr) int {
	t := ptr.Type()
	if t == nil || t.Elem == nil {
		return 0
	}
	return lay.Sizeof(t.Elem)
}

// splitConstOffset decomposes a checked pointer into (base, constant
// element offset): `p + 3` -> (p, 3), anything else -> (e, 0).
func splitConstOffset(e cil.Expr) (cil.Expr, int64) {
	if bo, ok := e.(*cil.BinOp); ok {
		if c, isC := stripCasts(bo.B).(*cil.Const); isC {
			switch bo.Op {
			case cil.OpAddPI:
				return bo.A, c.I
			case cil.OpSubPI:
				return bo.A, -c.I
			}
		}
	}
	return e, 0
}

// coalesceSeq merges runs of adjacent SEQ checks on the same base pointer
// with constant offsets into the first check of the run, widened to cover
// the whole range. Only immediately adjacent checks merge: any intervening
// instruction (even another check) ends the group, so no trap can move
// across an observable effect or a different check's trap site.
func (o *optimizer) coalesceSeq(b *cil.Block, fo *FuncOpt) {
	del := o.del
	clear(del)
	type member struct {
		si  *cil.SInstr
		chk *cil.Check
		off int64
	}
	// The open group. Every statement list flushes it before descending
	// into a nested list and again at its end, so one group serves them all.
	var group []member
	var baseKey []byte
	var stride int
	flush := func() {
		if len(group) > 1 {
			first := group[0]
			minOff, maxOff := first.off, first.off
			ok := true
			for _, m := range group[1:] {
				if m.off < minOff {
					// The group head must carry the minimum offset: the
					// widened check starts at the head's pointer value, so
					// a smaller later offset would escape it (and could
					// turn a null trap into a bounds trap).
					ok = false
					break
				}
				if m.off > maxOff {
					maxOff = m.off
				}
			}
			if ok && stride > 0 && (maxOff-minOff)*int64(stride) < 1<<20 {
				first.chk.Size += int(maxOff-minOff) * stride
				for _, m := range group[1:] {
					del[m.si] = true
					fo.Coalesced++
					o.record(m.chk)
				}
			}
		}
		group = group[:0]
	}
	var walk func(stmts []cil.Stmt)
	walk = func(stmts []cil.Stmt) {
		for _, s := range stmts {
			switch st := s.(type) {
			case *cil.SInstr:
				chk, isChk := st.Ins.(*cil.Check)
				if !isChk || chk.Kind != cil.CheckSeq {
					flush()
					continue
				}
				base, off := splitConstOffset(chk.Ptr)
				k := o.keys.seqBase(base, chk.Size)
				str := seqStride(o.lay, chk.Ptr)
				if len(group) > 0 && (!bytes.Equal(k, baseKey) || str != stride) {
					flush()
				}
				if len(group) == 0 {
					baseKey, stride = append(baseKey[:0], k...), str
				}
				group = append(group, member{si: st, chk: chk, off: off})
			case *cil.Block:
				flush()
				walk(st.Stmts)
			case *cil.If:
				flush()
				walk(st.Then.Stmts)
				if st.Else != nil {
					walk(st.Else.Stmts)
				}
			case *cil.Loop:
				flush()
				walk(st.Body.Stmts)
				if st.Post != nil {
					walk(st.Post.Stmts)
				}
			case *cil.Switch:
				flush()
				for _, c := range st.Cases {
					walk(c.Body)
				}
			default:
				flush()
			}
		}
		flush()
	}
	walk(b.Stmts)
	removeMoved(b, del)
}

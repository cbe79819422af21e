package cparse

import (
	"strings"
	"testing"

	"gocured/internal/ctypes"
	"gocured/internal/diag"
)

func parseOK(t *testing.T, src string) *File {
	t.Helper()
	var d diag.List
	f := Parse("test.c", src, &d)
	if d.HasErrors() {
		t.Fatalf("parse errors:\n%v", d.Err())
	}
	return f
}

func TestLexBasics(t *testing.T) {
	var d diag.List
	toks := LexAll("t.c", `int x = 0x1F + 'a'; // comment
/* block */ char *s = "hi\n" "there";`, &d)
	if d.HasErrors() {
		t.Fatalf("lex errors: %v", d.Err())
	}
	var kinds []TokKind
	for _, tk := range toks {
		kinds = append(kinds, tk.Kind)
	}
	want := []TokKind{KwInt, IDENT, ASSIGN, INTLIT, PLUS, CHARLIT, SEMI,
		KwChar, STAR, IDENT, ASSIGN, STRLIT, SEMI, EOF}
	if len(kinds) != len(want) {
		t.Fatalf("got %d tokens %v, want %d", len(kinds), kinds, len(want))
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("token %d: got %s, want %s", i, kinds[i], want[i])
		}
	}
	if toks[3].Int != 0x1F {
		t.Errorf("hex literal = %d, want 31", toks[3].Int)
	}
	if toks[5].Int != 'a' {
		t.Errorf("char literal = %d, want %d", toks[5].Int, 'a')
	}
	if toks[11].Text != "hi\nthere" {
		t.Errorf("string literal = %q (concatenation)", toks[11].Text)
	}
}

// TestLexOperatorText pins every operator token's Text to its spelling.
func TestLexOperatorText(t *testing.T) {
	ops := strings.Fields(`( ) { } [ ] ; , . -> ... + - * / % & | ^ ~ ! << >> < > <= >= == != && || ? : ++ -- = += -= *= /= %= &= |= ^= <<= >>=`)
	var d diag.List
	toks := LexAll("t.c", strings.Join(ops, " "), &d)
	if d.HasErrors() || len(toks) != len(ops)+1 {
		t.Fatalf("lexed %d tokens (want %d): %v", len(toks), len(ops)+1, d.Err())
	}
	for i, op := range ops {
		if toks[i].Text != op || toks[i].Kind.String() != op {
			t.Errorf("token %d: Text %q, Kind %s; want %q", i, toks[i].Text, toks[i].Kind, op)
		}
	}
}

func TestParseFunctionAndTypes(t *testing.T) {
	f := parseOK(t, `
struct Figure { double (*area)(struct Figure *obj); };
struct Circle { double (*area)(struct Figure *obj); int radius; };

typedef struct Circle Circle;

double circle_area(struct Figure *obj) {
    Circle *cir = (Circle*)obj;
    return 3.14159 * cir->radius * cir->radius;
}

int main(void) {
    struct Circle c;
    c.radius = 2;
    return 0;
}
`)
	if len(f.Funcs) != 2 {
		t.Fatalf("got %d functions, want 2", len(f.Funcs))
	}
	if len(f.Structs) < 2 {
		t.Fatalf("got %d structs, want >= 2", len(f.Structs))
	}
	ca := f.Funcs[0]
	if ca.Name != "circle_area" || ca.Type.Kind != ctypes.Func {
		t.Fatalf("bad first function: %s %s", ca.Name, ca.Type)
	}
	if ca.Type.Fn.Ret.Kind != ctypes.Float || ca.Type.Fn.Ret.Size != 8 {
		t.Errorf("return type = %s, want double", ca.Type.Fn.Ret)
	}
	if len(ca.Type.Fn.Params) != 1 || !ca.Type.Fn.Params[0].IsPointer() {
		t.Errorf("params = %v", ca.Type.Fn.Params)
	}
}

func TestParseFunctionPointerField(t *testing.T) {
	f := parseOK(t, `struct Ops { int (*get)(char *name, int dflt); void (*put)(int); };`)
	su := f.Structs[0]
	if len(su.Fields) != 2 {
		t.Fatalf("fields = %d, want 2", len(su.Fields))
	}
	g := su.Fields[0].Type
	if !g.IsFuncPtr() {
		t.Fatalf("field get has type %s, want function pointer", g)
	}
	if len(g.Elem.Fn.Params) != 2 {
		t.Errorf("get params = %d, want 2", len(g.Elem.Fn.Params))
	}
}

func TestParseDeclaratorShapes(t *testing.T) {
	f := parseOK(t, `
int a;
int *p;
int **pp;
int arr[10];
int *parr[4];
int (*arrp)[8];
char *strs[3];
int matrix[3][5];
`)
	byName := map[string]*ctypes.Type{}
	for _, g := range f.Globals {
		byName[g.Name] = g.Type
	}
	check := func(name, want string) {
		t.Helper()
		ty, ok := byName[name]
		if !ok {
			t.Fatalf("missing global %q", name)
		}
		if got := ty.String(); got != want {
			t.Errorf("%s: type %s, want %s", name, got, want)
		}
	}
	check("a", "int")
	check("p", "int*")
	check("pp", "int**")
	check("arr", "int[10]")
	check("parr", "int*[4]")
	check("arrp", "int[8]*")
	check("matrix", "int[5][3]")
}

func TestParseEnumAndConstExpr(t *testing.T) {
	f := parseOK(t, `
enum Color { RED, GREEN = 5, BLUE };
int buf[GREEN + BLUE];
int x = BLUE;
`)
	byName := map[string]*VarDecl{}
	for _, g := range f.Globals {
		byName[g.Name] = g
	}
	if ty := byName["buf"].Type; ty.Len != 11 {
		t.Errorf("buf length = %d, want 11", ty.Len)
	}
	lit, ok := byName["x"].Init.Expr.(*IntLit)
	if !ok || lit.Val != 6 {
		t.Errorf("x initializer = %#v, want 6", byName["x"].Init.Expr)
	}
}

func TestParseAnnotations(t *testing.T) {
	f := parseOK(t, `
int * __SAFE sp;
int * __SEQ qp;
int * __WILD wp;
struct H { int x; };
struct H __SPLIT * __SAFE h;
`)
	anns := map[string]ctypes.KindAnn{}
	for _, g := range f.Globals {
		if g.Type.IsPointer() {
			anns[g.Name] = g.Type.Ann
		}
	}
	if anns["sp"] != ctypes.AnnSafe || anns["qp"] != ctypes.AnnSeq || anns["wp"] != ctypes.AnnWild {
		t.Errorf("annotations = %v", anns)
	}
	var h *VarDecl
	for _, g := range f.Globals {
		if g.Name == "h" {
			h = g
		}
	}
	if h.Type.Ann != ctypes.AnnSafe {
		t.Errorf("h pointer annotation = %d, want SAFE", h.Type.Ann)
	}
	if h.Type.Elem.SplitAnnot != ctypes.SAnnSplit {
		t.Errorf("h base split annotation = %d, want SPLIT", h.Type.Elem.SplitAnnot)
	}
}

func TestParseWrapperPragma(t *testing.T) {
	f := parseOK(t, `
#pragma ccuredWrapperOf("strchr_wrapper", "strchr")
char *strchr_wrapper(char *str, int chr);
`)
	if len(f.Wrappers) != 1 {
		t.Fatalf("wrappers = %d, want 1", len(f.Wrappers))
	}
	w := f.Wrappers[0]
	if w.Wrapper != "strchr_wrapper" || w.Wrapped != "strchr" {
		t.Errorf("wrapper = %+v", w)
	}
}

func TestParseControlFlow(t *testing.T) {
	f := parseOK(t, `
int classify(int x) {
    int total = 0;
    for (int i = 0; i < x; i++) {
        if (i % 2 == 0) continue;
        total += i;
    }
    while (total > 100) total /= 2;
    do { total--; } while (total > 50);
    switch (total) {
    case 0: return -1;
    case 1:
    case 2: total = 9; break;
    default: break;
    }
    return total ? total : 1;
}
`)
	if len(f.Funcs) != 1 || f.Funcs[0].Body == nil {
		t.Fatal("expected one defined function")
	}
}

func TestParseTrustedCast(t *testing.T) {
	f := parseOK(t, `
typedef struct Obj { int tag; } Obj;
Obj *alloc_obj(char *raw) {
    return __trusted_cast(Obj *, raw);
}
`)
	fn := f.Funcs[0]
	ret := fn.Body.Stmts[0].(*Return)
	cast, ok := ret.X.(*Cast)
	if !ok || !cast.Trusted {
		t.Fatalf("expected trusted cast, got %#v", ret.X)
	}
}

func TestParseErrorsReported(t *testing.T) {
	var d diag.List
	Parse("bad.c", `int f( { }`, &d)
	if !d.HasErrors() {
		t.Error("expected parse errors for malformed input")
	}
	var d2 diag.List
	Parse("bad2.c", `int x = ;`, &d2)
	if !d2.HasErrors() {
		t.Error("expected parse errors for missing initializer")
	}
}

func TestParseStringEscape(t *testing.T) {
	f := parseOK(t, `char *s = "a\tb\0c\x41";`)
	in := f.Globals[0].Init.Expr.(*StrLit)
	if in.Val != "a\tb\x00cA" {
		t.Errorf("string = %q", in.Val)
	}
}

func TestParseGlobalInitializers(t *testing.T) {
	f := parseOK(t, `
struct Point { int x; int y; };
struct Point origin = { 0, 0 };
struct Point corners[2] = { {1, 2}, {3, 4} };
int nums[] = { 1, 2, 3 };
`)
	if len(f.Globals) != 3 {
		t.Fatalf("globals = %d, want 3", len(f.Globals))
	}
	if !f.Globals[1].Init.IsList || len(f.Globals[1].Init.List) != 2 {
		t.Errorf("corners initializer malformed")
	}
}

package cparse

import "fmt"

// TokKind enumerates lexical token kinds for the C subset.
type TokKind int

const (
	EOF TokKind = iota
	IDENT
	INTLIT
	FLOATLIT
	CHARLIT
	STRLIT
	PRAGMA // a full #pragma line; Text holds the content after "#pragma"

	// Punctuation and operators.
	LPAREN   // (
	RPAREN   // )
	LBRACE   // {
	RBRACE   // }
	LBRACK   // [
	RBRACK   // ]
	SEMI     // ;
	COMMA    // ,
	DOT      // .
	ARROW    // ->
	ELLIPSIS // ...

	PLUS     // +
	MINUS    // -
	STAR     // *
	SLASH    // /
	PERCENT  // %
	AMP      // &
	PIPE     // |
	CARET    // ^
	TILDE    // ~
	BANG     // !
	LSHIFT   // <<
	RSHIFT   // >>
	LT       // <
	GT       // >
	LE       // <=
	GE       // >=
	EQEQ     // ==
	NEQ      // !=
	ANDAND   // &&
	OROR     // ||
	QUESTION // ?
	COLON    // :
	INC      // ++
	DEC      // --

	ASSIGN        // =
	PLUSASSIGN    // +=
	MINUSASSIGN   // -=
	STARASSIGN    // *=
	SLASHASSIGN   // /=
	PERCENTASSIGN // %=
	AMPASSIGN     // &=
	PIPEASSIGN    // |=
	CARETASSIGN   // ^=
	LSHIFTASSIGN  // <<=
	RSHIFTASSIGN  // >>=

	// Keywords.
	KwVoid
	KwChar
	KwShort
	KwInt
	KwLong
	KwFloat
	KwDouble
	KwSigned
	KwUnsigned
	KwStruct
	KwUnion
	KwEnum
	KwTypedef
	KwExtern
	KwStatic
	KwConst
	KwVolatile
	KwIf
	KwElse
	KwWhile
	KwDo
	KwFor
	KwReturn
	KwBreak
	KwContinue
	KwSwitch
	KwCase
	KwDefault
	KwSizeof
	KwGoto

	// CCured extensions.
	KwSafe        // __SAFE
	KwSeq         // __SEQ
	KwWild        // __WILD
	KwRtti        // __RTTI
	KwSplit       // __SPLIT
	KwNoSplit     // __NOSPLIT
	KwTrustedCast // __trusted_cast
)

var keywords = map[string]TokKind{
	"void": KwVoid, "char": KwChar, "short": KwShort, "int": KwInt,
	"long": KwLong, "float": KwFloat, "double": KwDouble,
	"signed": KwSigned, "unsigned": KwUnsigned,
	"struct": KwStruct, "union": KwUnion, "enum": KwEnum,
	"typedef": KwTypedef, "extern": KwExtern, "static": KwStatic,
	"const": KwConst, "volatile": KwVolatile,
	"if": KwIf, "else": KwElse, "while": KwWhile, "do": KwDo, "for": KwFor,
	"return": KwReturn, "break": KwBreak, "continue": KwContinue,
	"switch": KwSwitch, "case": KwCase, "default": KwDefault,
	"sizeof": KwSizeof, "goto": KwGoto,
	"__SAFE": KwSafe, "__SEQ": KwSeq, "__WILD": KwWild, "__RTTI": KwRtti,
	"__SPLIT": KwSplit, "__NOSPLIT": KwNoSplit,
	"__trusted_cast": KwTrustedCast,
}

// tokNames spells every non-keyword kind; operator tokens take their Text
// from it.
var tokNames = [...]string{
	EOF: "EOF", IDENT: "identifier", INTLIT: "integer literal",
	FLOATLIT: "float literal", CHARLIT: "char literal", STRLIT: "string literal",
	PRAGMA: "#pragma",
	LPAREN: "(", RPAREN: ")", LBRACE: "{", RBRACE: "}", LBRACK: "[", RBRACK: "]",
	SEMI: ";", COMMA: ",", DOT: ".", ARROW: "->", ELLIPSIS: "...",
	PLUS: "+", MINUS: "-", STAR: "*", SLASH: "/", PERCENT: "%",
	AMP: "&", PIPE: "|", CARET: "^", TILDE: "~", BANG: "!",
	LSHIFT: "<<", RSHIFT: ">>", LT: "<", GT: ">", LE: "<=", GE: ">=",
	EQEQ: "==", NEQ: "!=", ANDAND: "&&", OROR: "||",
	QUESTION: "?", COLON: ":", INC: "++", DEC: "--",
	ASSIGN: "=", PLUSASSIGN: "+=", MINUSASSIGN: "-=", STARASSIGN: "*=",
	SLASHASSIGN: "/=", PERCENTASSIGN: "%=", AMPASSIGN: "&=",
	PIPEASSIGN: "|=", CARETASSIGN: "^=", LSHIFTASSIGN: "<<=", RSHIFTASSIGN: ">>=",
}

// String returns a printable name for the token kind.
func (k TokKind) String() string {
	if k >= 0 && int(k) < len(tokNames) && tokNames[k] != "" {
		return tokNames[k]
	}
	for s, kw := range keywords {
		if kw == k {
			return s
		}
	}
	return fmt.Sprintf("tok(%d)", int(k))
}

// Token is one lexical token.
type Token struct {
	Kind TokKind
	Text string  // IDENT, PRAGMA, STRLIT (decoded), and raw spelling for literals
	Int  int64   // INTLIT, CHARLIT value
	F    float64 // FLOATLIT value
	Line int
	Col  int
}

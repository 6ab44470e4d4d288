// Package blueprint implements OMOS's specification language: the
// "simple Lisp-like syntax" of §3.3 in which meta-objects describe how
// to combine objects and other meta-objects into class instances.
//
//	(merge /lib/crt0.o /obj/ls.o /lib/libc)
//	(specialize "lib-constrained" (list "T" 0x1000000) /lib/libc)
//	(hide "_REAL_malloc" (merge ...))
//	(source "c" "int undef_var = 0;\n")
//
// The parser produces a generic s-expression tree; the mgraph package
// translates it into an executable operation graph.
package blueprint

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"
	"unicode/utf8"
)

// NodeKind discriminates s-expression node types.
type NodeKind int

// Node kinds.
const (
	KindList NodeKind = iota
	KindSymbol
	KindString
	KindNumber
)

// Node is one s-expression.
type Node struct {
	Kind NodeKind
	// List holds children for KindList.
	List []*Node
	// Text holds the symbol name or string value.
	Text string
	// Num holds the numeric value for KindNumber.
	Num int64
	// Line is the 1-based source line for diagnostics.
	Line int
}

// Op returns the operator symbol of a list node ("" if not a list or
// empty or headed by a non-symbol).
func (n *Node) Op() string {
	if n.Kind == KindList && len(n.List) > 0 && n.List[0].Kind == KindSymbol {
		return n.List[0].Text
	}
	return ""
}

// Args returns a list node's operands (everything after the operator).
func (n *Node) Args() []*Node {
	if n.Kind == KindList && len(n.List) > 0 {
		return n.List[1:]
	}
	return nil
}

// String renders the node back to blueprint syntax.
func (n *Node) String() string {
	var sb strings.Builder
	n.write(&sb)
	return sb.String()
}

func (n *Node) write(sb *strings.Builder) {
	switch n.Kind {
	case KindSymbol:
		sb.WriteString(n.Text)
	case KindString:
		sb.WriteString(quoteString(n.Text))
	case KindNumber:
		fmt.Fprintf(sb, "%d", n.Num)
	case KindList:
		sb.WriteByte('(')
		for i, c := range n.List {
			if i > 0 {
				sb.WriteByte(' ')
			}
			c.write(sb)
		}
		sb.WriteByte(')')
	}
}

// quoteString renders a string literal with five escapes (\\ \" \n
// \t \0) and every other byte raw, which the lexer accepts.
func quoteString(s string) string {
	var sb strings.Builder
	sb.WriteByte('"')
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		case '\t':
			sb.WriteString(`\t`)
		case 0:
			sb.WriteString(`\0`)
		default:
			sb.WriteByte(s[i])
		}
	}
	sb.WriteByte('"')
	return sb.String()
}

// AppendQuote appends strconv.Quote(s) to dst, the form a blueprint
// writer gives a source literal, which stringLit reads back as s.  It
// is strconv.AppendQuote without the walk rune by rune: runs of
// printable ASCII are copied whole and \n \t \" \\ written directly.
// Every other rune goes through strconv on its own, and strconv quotes
// rune by rune, so the bytes are strconv's exactly.
func AppendQuote(dst []byte, s string) []byte {
	dst = append(dst, '"')
	for len(s) > 0 {
		i := plainRun(s)
		dst = append(dst, s[:i]...)
		if s = s[i:]; len(s) == 0 {
			break
		}
		switch c := s[0]; c {
		case '\n':
			dst = append(dst, '\\', 'n')
		case '\t':
			dst = append(dst, '\\', 't')
		case '"', '\\':
			dst = append(dst, '\\', c)
		default:
			_, i = utf8.DecodeRuneInString(s)
			var buf [16]byte // room for "\U0010ffff"
			q := strconv.AppendQuote(buf[:0], s[:i])
			dst = append(dst, q[1:len(q)-1]...)
			s = s[i:]
			continue
		}
		s = s[1:]
	}
	return append(dst, '"')
}

// plainRun returns the length of s's leading run of bytes that
// strconv.Quote copies as they are: printable ASCII other than " and
// \.  It tests eight bytes at a time; the tail goes byte by byte.
func plainRun(s string) int {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	i := 0
	for ; i+8 <= len(s); i += 8 {
		_ = s[i+7]
		w := uint64(s[i]) | uint64(s[i+1])<<8 | uint64(s[i+2])<<16 | uint64(s[i+3])<<24 |
			uint64(s[i+4])<<32 | uint64(s[i+5])<<40 | uint64(s[i+6])<<48 | uint64(s[i+7])<<56
		// Each term sets a byte's high bit if the byte is below ' ',
		// above '~', '"' or '\\'.  A borrow or carry can set it falsely
		// only above a byte that truly matched, so the lowest set bit
		// marks the first byte to escape.
		q, b := w^(ones*'"'), w^(ones*'\\')
		m := ((w - ones*' ') &^ w) | (w + ones) | w | ((q - ones) &^ q) | ((b - ones) &^ b)
		if m &= highs; m != 0 {
			return i + bits.TrailingZeros64(m)/8
		}
	}
	for i < len(s) && s[i] >= ' ' && s[i] <= '~' && s[i] != '"' && s[i] != '\\' {
		i++
	}
	return i
}

// ParseError reports a syntax error with position.
type ParseError struct {
	Line int
	Msg  string
}

// Error formats the position-tagged message.
func (e *ParseError) Error() string { return fmt.Sprintf("blueprint:%d: %s", e.Line, e.Msg) }

type parser struct {
	src  string
	pos  int
	line int
	lit  []byte // stringLit's decoding buffer, reused across literals
}

// Parse parses a blueprint containing exactly one top-level
// expression (after comments).
func Parse(src string) (*Node, error) {
	nodes, err := ParseAll(src)
	if err != nil {
		return nil, err
	}
	if len(nodes) != 1 {
		return nil, &ParseError{Line: 1, Msg: fmt.Sprintf("want exactly 1 expression, got %d", len(nodes))}
	}
	return nodes[0], nil
}

// ParseAll parses a sequence of top-level expressions.  Library
// meta-objects use this form: a constraint-list expression followed by
// the construction expression (paper Figure 1).
func ParseAll(src string) ([]*Node, error) {
	p := &parser{src: src, line: 1}
	var out []*Node
	for {
		p.skipSpace()
		if p.pos >= len(p.src) {
			return out, nil
		}
		n, err := p.sexp()
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
}

func (p *parser) errf(format string, args ...interface{}) error {
	return &ParseError{Line: p.line, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) skipSpace() {
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		switch {
		case c == '\n':
			p.line++
			p.pos++
		case c == ' ' || c == '\t' || c == '\r':
			p.pos++
		case c == ';':
			for p.pos < len(p.src) && p.src[p.pos] != '\n' {
				p.pos++
			}
		default:
			return
		}
	}
}

func (p *parser) sexp() (*Node, error) {
	p.skipSpace()
	if p.pos >= len(p.src) {
		return nil, p.errf("unexpected end of input")
	}
	line := p.line
	c := p.src[p.pos]
	switch {
	case c == '(':
		p.pos++
		n := &Node{Kind: KindList, Line: line}
		for {
			p.skipSpace()
			if p.pos >= len(p.src) {
				return nil, p.errf("unterminated list started at line %d", line)
			}
			if p.src[p.pos] == ')' {
				p.pos++
				return n, nil
			}
			child, err := p.sexp()
			if err != nil {
				return nil, err
			}
			n.List = append(n.List, child)
		}
	case c == ')':
		return nil, p.errf("unexpected ')'")
	case c == '"':
		return p.stringLit(line)
	default:
		return p.atom(line)
	}
}

// stringLit reads a string literal.  Escapes are Go's (\a \b \f \n \r
// \t \v \\ \" \xNN \uNNNN \UNNNNNNNN), the forms strconv.Quote and %q
// write, plus \0 for a NUL byte; Go's octal \NNN is not accepted, so
// \0 never absorbs the digits after it.  Raw bytes, newlines included
// (source operator bodies commonly span lines), stand for themselves.
// \n \t \" \\ and \0, which a quoted source is made of, are decoded
// inline; the rest go through strconv.UnquoteChar.  The text is decoded
// into a buffer the parse reuses and copied out once, at its exact
// length: a meta-object keeps it for as long as it lives.
func (p *parser) stringLit(line int) (*Node, error) {
	p.pos++ // opening quote
	lit := p.lit[:0]
	for p.pos < len(p.src) {
		n := p.pos + plainRun(p.src[p.pos:])
		lit = append(lit, p.src[p.pos:n]...)
		if p.pos = n; n == len(p.src) {
			break
		}
		switch c := p.src[p.pos]; c {
		case '"':
			p.pos++
			p.lit = lit
			return &Node{Kind: KindString, Text: string(lit), Line: line}, nil
		case '\\':
			if p.pos+1 >= len(p.src) {
				return nil, p.errf("unterminated escape")
			}
			switch e := p.src[p.pos+1]; {
			case e == 'n':
				lit = append(lit, '\n')
			case e == 't':
				lit = append(lit, '\t')
			case e == '"' || e == '\\':
				lit = append(lit, e)
			case e == '0':
				lit = append(lit, 0)
			case e == '\'' || e >= '1' && e <= '7':
				return nil, p.errf("bad escape \\%c", e)
			default:
				v, multibyte, tail, err := strconv.UnquoteChar(p.src[p.pos:], '"')
				if err != nil {
					return nil, p.errf("bad escape \\%c", e)
				}
				if multibyte {
					lit = utf8.AppendRune(lit, v)
				} else {
					lit = append(lit, byte(v))
				}
				p.pos = len(p.src) - len(tail)
				continue
			}
			p.pos += 2
		default: // a raw byte a quoted literal would have escaped
			if c == '\n' {
				p.line++
			}
			lit = append(lit, c)
			p.pos++
		}
	}
	return nil, p.errf("unterminated string literal")
}

func (p *parser) atom(line int) (*Node, error) {
	start := p.pos
	for p.pos < len(p.src) && !strings.ContainsRune(" \t\r\n();\"", rune(p.src[p.pos])) {
		p.pos++
	}
	text := p.src[start:p.pos]
	if text == "" {
		return nil, p.errf("empty atom")
	}
	// Numbers: decimal or 0x hex, optionally negative.  Only text that
	// starts with a digit or a sign can be one; the check spares every
	// path symbol a failed parse and its error value.
	if c := text[0]; c >= '0' && c <= '9' || c == '-' || c == '+' {
		if v, err := strconv.ParseInt(text, 0, 64); err == nil {
			return &Node{Kind: KindNumber, Num: v, Line: line}, nil
		}
		if v, err := strconv.ParseUint(text, 0, 64); err == nil {
			return &Node{Kind: KindNumber, Num: int64(v), Line: line}, nil
		}
	}
	return &Node{Kind: KindSymbol, Text: text, Line: line}, nil
}

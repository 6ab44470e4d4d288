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
	"strconv"
	"strings"
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
func (p *parser) stringLit(line int) (*Node, error) {
	p.pos++ // opening quote
	var sb strings.Builder
	for p.pos < len(p.src) {
		if n := strings.IndexAny(p.src[p.pos:], "\"\\\n"); n != 0 {
			if n < 0 {
				break
			}
			sb.WriteString(p.src[p.pos : p.pos+n])
			p.pos += n
		}
		switch c := p.src[p.pos]; c {
		case '"':
			p.pos++
			return &Node{Kind: KindString, Text: sb.String(), Line: line}, nil
		case '\n':
			p.line++
			sb.WriteByte(c)
			p.pos++
		default: // '\\'
			if p.pos+1 >= len(p.src) {
				return nil, p.errf("unterminated escape")
			}
			switch e := p.src[p.pos+1]; {
			case e == '0':
				sb.WriteByte(0)
				p.pos += 2
				continue
			case e == '\'' || e >= '1' && e <= '7':
				return nil, p.errf("bad escape \\%c", e)
			}
			v, multibyte, tail, err := strconv.UnquoteChar(p.src[p.pos:], '"')
			if err != nil {
				return nil, p.errf("bad escape \\%c", p.src[p.pos+1])
			}
			if multibyte {
				sb.WriteRune(v)
			} else {
				sb.WriteByte(byte(v))
			}
			p.pos = len(p.src) - len(tail)
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
	// Numbers: decimal or 0x hex, optionally negative.
	if v, err := strconv.ParseInt(text, 0, 64); err == nil {
		return &Node{Kind: KindNumber, Num: v, Line: line}, nil
	}
	if v, err := strconv.ParseUint(text, 0, 64); err == nil {
		return &Node{Kind: KindNumber, Num: int64(v), Line: line}, nil
	}
	return &Node{Kind: KindSymbol, Text: text, Line: line}, nil
}

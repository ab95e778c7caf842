// Package sql implements a small SQL dialect for the hybrid-store engine:
// CREATE TABLE, SELECT (projections, aggregates, a single equi-join, WHERE
// with AND/OR/NOT/BETWEEN/IN, GROUP BY, ORDER BY, LIMIT), INSERT ...
// VALUES, UPDATE and DELETE, and the ALTER TABLE statements that move a
// table into the layout the storage advisor recommends. Literal
// positions accept '?' parameter placeholders via Prepare/Bind — the
// network server's prepared statements bind them per execution. The offline advisor consumes
// workloads written in this dialect; the hsql shell speaks it
// interactively.
package sql

import (
	"fmt"
	"strings"
	"unicode"
)

type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokPunct // single characters and two-char operators
)

type token struct {
	kind tokenKind
	text string // keywords are upper-cased identifiers
	pos  int
}

// lexer splits a statement into tokens.
type lexer struct {
	in  string
	pos int
}

func newLexer(in string) *lexer { return &lexer{in: in} }

func (l *lexer) error(pos int, format string, args ...any) error {
	return fmt.Errorf("sql: position %d: %s", pos, fmt.Sprintf(format, args...))
}

// next returns the next token.
func (l *lexer) next() (token, error) {
	for l.pos < len(l.in) && unicode.IsSpace(rune(l.in[l.pos])) {
		l.pos++
	}
	if l.pos >= len(l.in) {
		return token{kind: tokEOF, pos: l.pos}, nil
	}
	start := l.pos
	c := l.in[l.pos]
	switch {
	case isIdentStart(c):
		for l.pos < len(l.in) && isIdentPart(l.in[l.pos]) {
			l.pos++
		}
		return token{kind: tokIdent, text: l.in[start:l.pos], pos: start}, nil
	case c >= '0' && c <= '9' || c == '.' && l.pos+1 < len(l.in) && isDigit(l.in[l.pos+1]):
		seenDot := false
		for l.pos < len(l.in) && (isDigit(l.in[l.pos]) || l.in[l.pos] == '.' && !seenDot) {
			if l.in[l.pos] == '.' {
				seenDot = true
			}
			l.pos++
		}
		// Exponent part.
		if l.pos < len(l.in) && (l.in[l.pos] == 'e' || l.in[l.pos] == 'E') {
			p := l.pos + 1
			if p < len(l.in) && (l.in[p] == '+' || l.in[p] == '-') {
				p++
			}
			if p < len(l.in) && isDigit(l.in[p]) {
				l.pos = p
				for l.pos < len(l.in) && isDigit(l.in[l.pos]) {
					l.pos++
				}
			}
		}
		return token{kind: tokNumber, text: l.in[start:l.pos], pos: start}, nil
	case c == '\'':
		l.pos++
		var b strings.Builder
		for l.pos < len(l.in) {
			if l.in[l.pos] == '\'' {
				// '' escapes a quote.
				if l.pos+1 < len(l.in) && l.in[l.pos+1] == '\'' {
					b.WriteByte('\'')
					l.pos += 2
					continue
				}
				l.pos++
				return token{kind: tokString, text: b.String(), pos: start}, nil
			}
			b.WriteByte(l.in[l.pos])
			l.pos++
		}
		return token{}, l.error(start, "unterminated string literal")
	case c == '<':
		l.pos++
		if l.pos < len(l.in) && (l.in[l.pos] == '=' || l.in[l.pos] == '>') {
			l.pos++
		}
		return token{kind: tokPunct, text: l.in[start:l.pos], pos: start}, nil
	case c == '>':
		l.pos++
		if l.pos < len(l.in) && l.in[l.pos] == '=' {
			l.pos++
		}
		return token{kind: tokPunct, text: l.in[start:l.pos], pos: start}, nil
	case c == '!':
		l.pos++
		if l.pos < len(l.in) && l.in[l.pos] == '=' {
			l.pos++
			return token{kind: tokPunct, text: "<>", pos: start}, nil
		}
		return token{}, l.error(start, "unexpected '!'")
	case strings.IndexByte("(),=*.+-;?", c) >= 0:
		l.pos++
		return token{kind: tokPunct, text: string(c), pos: start}, nil
	default:
		return token{}, l.error(start, "unexpected character %q", c)
	}
}

// tokenize lexes the whole input.
func tokenize(in string) ([]token, error) {
	l := newLexer(in)
	var out []token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.kind == tokEOF {
			return out, nil
		}
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isIdentPart(c byte) bool { return isIdentStart(c) || isDigit(c) }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

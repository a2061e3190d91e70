// Package sqlparse implements the SQL front-end for the Dremel
// stand-in: a lexer and recursive-descent parser for the GoogleSQL
// subset the paper's examples use — SELECT with joins, grouping,
// ordering, DML (INSERT/UPDATE/DELETE), CREATE TABLE AS SELECT, and
// the ML table-valued functions of §4.2 (ML.PREDICT,
// ML.DECODE_IMAGE, ML.PROCESS_DOCUMENT).
package sqlparse

import (
	"encoding/binary"
	"fmt"
	"strings"
	"sync"
	"unicode"
)

// tokenKind classifies lexical tokens.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokOp    // operators and punctuation
	tokParam // @name (reserved for future use)
)

// token is one lexeme. Its text is a substring of the statement, except
// for a string literal holding an escaped (doubled) quote, and the EOF
// token.
type token struct {
	kind tokenKind
	text string
	pos  int
}

// Lexed is one statement's token stream, lexed once into a buffer that
// is reused across statements: Lex takes it from a pool and Release
// hands it back, so lexing allocates nothing per token. It is what a
// statement-cache probe pays: Key names the statement's shape, and a
// Template of that shape binds it (Template.Bind) without a parse.
type Lexed struct {
	src  string
	pos  int
	toks []token
	key  []byte
}

var lexedPool = sync.Pool{New: func() any { return new(Lexed) }}

// Lex tokenizes one statement or returns a descriptive error. The
// result is valid until Release.
func Lex(src string) (*Lexed, error) {
	lx := lexedPool.Get().(*Lexed)
	if err := lx.lex(src); err != nil {
		lx.Release()
		return nil, err
	}
	return lx, nil
}

// Release returns the token buffer to the pool; lx must not be used
// afterwards. A Statement parsed or bound from it stays valid.
func (lx *Lexed) Release() {
	lx.src = ""
	lexedPool.Put(lx)
}

// Key is the statement's shape: its token stream with each number and
// string literal reduced to its class (int, float or string), so two
// statements that differ only in literals share a key. Keywords and
// identifiers keep their exact text. The bytes are valid until Release.
func (lx *Lexed) Key() []byte {
	k := lx.key[:0]
	for _, t := range lx.toks {
		switch t.kind {
		case tokNumber:
			if strings.IndexByte(t.text, '.') >= 0 {
				k = append(k, 'f')
			} else {
				k = append(k, 'i')
			}
		case tokString:
			k = append(k, 's')
		default:
			k = append(k, byte('A'+t.kind))
			k = binary.AppendUvarint(k, uint64(len(t.text)))
			k = append(k, t.text...)
		}
	}
	lx.key = k
	return k
}

// lex tokenizes src into the reused token buffer.
func (lx *Lexed) lex(src string) error {
	lx.src, lx.pos, lx.toks = src, 0, lx.toks[:0]
	for {
		lx.skipSpace()
		if lx.pos >= len(lx.src) {
			lx.toks = append(lx.toks, token{kind: tokEOF, pos: lx.pos})
			return nil
		}
		c := lx.src[lx.pos]
		switch {
		case isIdentStart(c):
			lx.lexIdent()
		case c >= '0' && c <= '9':
			lx.lexNumber()
		case c == '\'':
			if err := lx.lexString(); err != nil {
				return err
			}
		case c == '`':
			if err := lx.lexQuotedIdent(); err != nil {
				return err
			}
		case c == '-' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '-':
			lx.skipLineComment()
		default:
			if err := lx.lexOp(); err != nil {
				return err
			}
		}
	}
}

func (lx *Lexed) emit(kind tokenKind, start, end int) {
	lx.toks = append(lx.toks, token{kind: kind, text: lx.src[start:end], pos: start})
}

// The character classes read one byte as a rune, so a byte past ASCII
// is classified as its Latin-1 code point; ASCII is decided inline.

func isSpace(c byte) bool {
	if c < 0x80 {
		return c == ' ' || c >= '\t' && c <= '\r'
	}
	return unicode.IsSpace(rune(c))
}

func isIdentStart(c byte) bool {
	if c < 0x80 {
		return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
	}
	return unicode.IsLetter(rune(c))
}

func isIdentPart(c byte) bool {
	if c < 0x80 {
		return isIdentStart(c) || c >= '0' && c <= '9'
	}
	return unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c))
}

func (lx *Lexed) skipSpace() {
	for lx.pos < len(lx.src) && isSpace(lx.src[lx.pos]) {
		lx.pos++
	}
}

func (lx *Lexed) skipLineComment() {
	for lx.pos < len(lx.src) && lx.src[lx.pos] != '\n' {
		lx.pos++
	}
}

func (lx *Lexed) lexIdent() {
	start := lx.pos
	for lx.pos < len(lx.src) && isIdentPart(lx.src[lx.pos]) {
		lx.pos++
	}
	lx.emit(tokIdent, start, lx.pos)
}

func (lx *Lexed) lexQuotedIdent() error {
	start := lx.pos
	end := strings.IndexByte(lx.src[start+1:], '`')
	if end < 0 {
		return fmt.Errorf("sqlparse: unterminated quoted identifier at %d", start)
	}
	end += start + 1
	lx.toks = append(lx.toks, token{kind: tokIdent, text: lx.src[start+1 : end], pos: start})
	lx.pos = end + 1
	return nil
}

func (lx *Lexed) lexNumber() {
	start := lx.pos
	seenDot := false
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		if c == '.' && !seenDot {
			seenDot = true
			lx.pos++
			continue
		}
		if c < '0' || c > '9' {
			break
		}
		lx.pos++
	}
	lx.emit(tokNumber, start, lx.pos)
}

// lexString reads a quoted literal. Its text is the substring between
// the quotes; only a literal holding an escaped (doubled) quote is
// copied, with each pair unescaped.
func (lx *Lexed) lexString() error {
	start := lx.pos
	escaped := false
	for i := start + 1; i < len(lx.src); i++ {
		if lx.src[i] != '\'' {
			continue
		}
		if i+1 < len(lx.src) && lx.src[i+1] == '\'' {
			escaped = true
			i++
			continue
		}
		text := lx.src[start+1 : i]
		if escaped {
			text = strings.ReplaceAll(text, "''", "'")
		}
		lx.toks = append(lx.toks, token{kind: tokString, text: text, pos: start})
		lx.pos = i + 1
		return nil
	}
	return fmt.Errorf("sqlparse: unterminated string at %d", start)
}

func (lx *Lexed) lexOp() error {
	start := lx.pos
	c := lx.src[start]
	if start+1 < len(lx.src) {
		switch d := lx.src[start+1]; {
		case d == '=' && (c == '<' || c == '>' || c == '!'), c == '<' && d == '>':
			lx.pos += 2
			lx.emit(tokOp, start, lx.pos)
			return nil
		}
	}
	switch c {
	case '=', '<', '>', '(', ')', ',', '.', '*', '+', '-', '/', ';':
		lx.pos++
		lx.emit(tokOp, start, lx.pos)
		return nil
	}
	return fmt.Errorf("sqlparse: unexpected character %q at %d", c, lx.pos)
}

// Package turtle reads and writes a practical subset of the Turtle RDF
// syntax: @prefix/@base (and SPARQL-style PREFIX/BASE), prefixed names, the
// 'a' keyword, ';' and ',' predicate/object lists, IRIs, blank node labels,
// string literals with language tags or datatypes, and numeric/boolean
// abbreviations. Collections ( ... ) and anonymous blank nodes [ ... ] are
// not supported; the generators and examples in this repository do not emit
// them, and rejecting them keeps the grammar honest.
package turtle

import (
	"fmt"
	"strings"

	"repro/internal/rdf"
	"unicode"
	"unicode/utf8"
)

type tokenKind int

const (
	tokEOF      tokenKind = iota
	tokIRI                // <...>
	tokPName              // prefix:local or prefix: or :local
	tokBlank              // _:label
	tokLiteral            // "..." with optional @lang / ^^type handled by parser
	tokLangTag            // @lang
	tokDTypeSep           // ^^
	tokA                  // keyword a
	tokDot
	tokSemicolon
	tokComma
	tokPrefixDecl // @prefix or PREFIX
	tokBaseDecl   // @base or BASE
	tokNumber     // integer or decimal
	tokBoolean    // true / false
)

func (k tokenKind) String() string {
	names := map[tokenKind]string{
		tokEOF: "end of input", tokIRI: "IRI", tokPName: "prefixed name",
		tokBlank: "blank node", tokLiteral: "literal", tokLangTag: "language tag",
		tokDTypeSep: "^^", tokA: "'a'", tokDot: "'.'", tokSemicolon: "';'",
		tokComma: "','", tokPrefixDecl: "@prefix", tokBaseDecl: "@base",
		tokNumber: "number", tokBoolean: "boolean",
	}
	if n, ok := names[k]; ok {
		return n
	}
	return fmt.Sprintf("token(%d)", int(k))
}

type token struct {
	kind tokenKind
	text string // decoded payload (IRI body, literal value, label, ...)
	line int
}

type lexer struct {
	src  string
	pos  int
	line int
}

func newLexer(src string) *lexer { return &lexer{src: src, line: 1} }

// Error is a Turtle syntax error with position information.
type Error struct {
	Line int
	Msg  string
	// Err is the cause, when the statement parsed but its triple is refused:
	// an error wrapping rdf.ErrIllFormed.
	Err error
}

func (e *Error) Error() string { return fmt.Sprintf("turtle: line %d: %s", e.Line, e.Msg) }

// Unwrap returns the cause, so errors.Is(err, rdf.ErrIllFormed) holds for a
// refused triple.
func (e *Error) Unwrap() error { return e.Err }

func (l *lexer) errf(format string, args ...any) error {
	return &Error{Line: l.line, Msg: fmt.Sprintf(format, args...)}
}

func (l *lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.line++
			l.pos++
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == '#':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		default:
			return
		}
	}
}

func (l *lexer) next() (token, error) {
	l.skipSpaceAndComments()
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, line: l.line}, nil
	}
	start := l.line
	c := l.src[l.pos]
	switch {
	case c == '<':
		end := strings.IndexByte(l.src[l.pos:], '>')
		if end < 0 {
			return token{}, l.errf("unterminated IRI")
		}
		body := l.src[l.pos+1 : l.pos+end]
		l.pos += end + 1
		return token{kind: tokIRI, text: body, line: start}, nil
	case c == '"':
		val, err := l.stringLiteral()
		if err != nil {
			return token{}, err
		}
		return token{kind: tokLiteral, text: val, line: start}, nil
	case c == '@':
		word := l.word(l.pos + 1)
		switch word {
		case "prefix":
			l.pos += 1 + len(word)
			return token{kind: tokPrefixDecl, line: start}, nil
		case "base":
			l.pos += 1 + len(word)
			return token{kind: tokBaseDecl, line: start}, nil
		default:
			if word == "" {
				return token{}, l.errf("empty language tag")
			}
			l.pos += 1 + len(word)
			// Allow tags like en-US.
			for l.pos < len(l.src) && l.src[l.pos] == '-' {
				sub := l.word(l.pos + 1)
				if sub == "" {
					return token{}, l.errf("malformed language tag")
				}
				word += "-" + sub
				l.pos += 1 + len(sub)
			}
			return token{kind: tokLangTag, text: word, line: start}, nil
		}
	case c == '^':
		if strings.HasPrefix(l.src[l.pos:], "^^") {
			l.pos += 2
			return token{kind: tokDTypeSep, line: start}, nil
		}
		return token{}, l.errf("unexpected '^'")
	case c == '.':
		// A dot can start a decimal like .5 — but in our subset numbers
		// always have a leading digit, so '.' is always the statement dot.
		l.pos++
		return token{kind: tokDot, line: start}, nil
	case c == ';':
		l.pos++
		return token{kind: tokSemicolon, line: start}, nil
	case c == ',':
		l.pos++
		return token{kind: tokComma, line: start}, nil
	case c == '_':
		if !strings.HasPrefix(l.src[l.pos:], "_:") {
			return token{}, l.errf("expected blank node label after '_'")
		}
		label := l.nameFrom(l.pos + 2)
		if label == "" {
			return token{}, l.errf("empty blank node label")
		}
		l.pos += 2 + len(label)
		return token{kind: tokBlank, text: label, line: start}, nil
	case c == '+' || c == '-' || (c >= '0' && c <= '9'):
		return l.number()
	case c == '[' || c == '(':
		return token{}, l.errf("unsupported Turtle construct %q (collections and anonymous blank nodes are outside the supported subset)", string(c))
	default:
		return l.pnameOrKeyword()
	}
}

// word scans [a-zA-Z0-9]* starting at i.
func (l *lexer) word(i int) string {
	j := i
	for j < len(l.src) {
		c := l.src[j]
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' {
			j++
			continue
		}
		break
	}
	return l.src[i:j]
}

// nameFrom scans a PN_LOCAL-ish name: letters, digits, _, -, and interior
// dots (a trailing dot terminates the statement instead).
func (l *lexer) nameFrom(i int) string {
	j := i
	for j < len(l.src) {
		r, size := utf8.DecodeRuneInString(l.src[j:])
		if unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '-' {
			j += size
			continue
		}
		if r == '.' && j+size < len(l.src) {
			// Interior dot only if followed by a name character.
			nr, _ := utf8.DecodeRuneInString(l.src[j+size:])
			if unicode.IsLetter(nr) || unicode.IsDigit(nr) || nr == '_' {
				j += size
				continue
			}
		}
		break
	}
	return l.src[i:j]
}

func (l *lexer) stringLiteral() (string, error) {
	// Supports "..." and """...""" (long strings).
	if strings.HasPrefix(l.src[l.pos:], `"""`) {
		end := strings.Index(l.src[l.pos+3:], `"""`)
		if end < 0 {
			return "", l.errf("unterminated long string literal")
		}
		raw := l.src[l.pos+3 : l.pos+3+end]
		l.line += strings.Count(raw, "\n")
		l.pos += 6 + end
		return decodeEscapes(raw, l)
	}
	i := l.pos + 1
	var b strings.Builder
	for {
		if i >= len(l.src) || l.src[i] == '\n' {
			return "", l.errf("unterminated string literal")
		}
		c := l.src[i]
		if c == '"' {
			l.pos = i + 1
			return b.String(), nil
		}
		if c == '\\' {
			if i+1 >= len(l.src) {
				return "", l.errf("dangling escape")
			}
			dec, n, err := decodeOneEscape(l.src[i:])
			if err != nil {
				return "", l.errf("%v", err)
			}
			b.WriteString(dec)
			i += n
			continue
		}
		b.WriteByte(c)
		i++
	}
}

func decodeEscapes(raw string, l *lexer) (string, error) {
	if !strings.ContainsRune(raw, '\\') {
		return raw, nil
	}
	var b strings.Builder
	for i := 0; i < len(raw); {
		if raw[i] == '\\' && i+1 < len(raw) {
			dec, n, err := decodeOneEscape(raw[i:])
			if err != nil {
				return "", l.errf("%v", err)
			}
			b.WriteString(dec)
			i += n
			continue
		}
		b.WriteByte(raw[i])
		i++
	}
	return b.String(), nil
}

// decodeOneEscape delegates to the shared rdf.DecodeEscape, adding Turtle's
// extra \' form (the only escape its grammar has beyond the common set).
func decodeOneEscape(s string) (string, int, error) {
	if s[1] == '\'' {
		return "'", 2, nil
	}
	return rdf.DecodeEscape(s)
}

func (l *lexer) number() (token, error) {
	start := l.pos
	i := l.pos
	if l.src[i] == '+' || l.src[i] == '-' {
		i++
	}
	digits := 0
	for i < len(l.src) && l.src[i] >= '0' && l.src[i] <= '9' {
		i++
		digits++
	}
	isDecimal := false
	if i+1 < len(l.src) && l.src[i] == '.' && l.src[i+1] >= '0' && l.src[i+1] <= '9' {
		isDecimal = true
		i++
		for i < len(l.src) && l.src[i] >= '0' && l.src[i] <= '9' {
			i++
		}
	}
	if digits == 0 {
		return token{}, l.errf("malformed number")
	}
	text := l.src[start:i]
	l.pos = i
	kind := "integer"
	if isDecimal {
		kind = "decimal"
	}
	return token{kind: tokNumber, text: kind + ":" + text, line: l.line}, nil
}

func (l *lexer) pnameOrKeyword() (token, error) {
	start := l.pos
	// Scan prefix part (may be empty before ':').
	prefix := l.nameFrom(l.pos)
	i := l.pos + len(prefix)
	if i < len(l.src) && l.src[i] == ':' {
		local := l.nameFrom(i + 1)
		l.pos = i + 1 + len(local)
		return token{kind: tokPName, text: prefix + ":" + local, line: l.line}, nil
	}
	switch prefix {
	case "a":
		l.pos = start + 1
		return token{kind: tokA, line: l.line}, nil
	case "true", "false":
		l.pos = start + len(prefix)
		return token{kind: tokBoolean, text: prefix, line: l.line}, nil
	case "PREFIX", "prefix":
		l.pos = start + len(prefix)
		return token{kind: tokPrefixDecl, line: l.line}, nil
	case "BASE", "base":
		l.pos = start + len(prefix)
		return token{kind: tokBaseDecl, line: l.line}, nil
	}
	if prefix == "" {
		r, _ := utf8.DecodeRuneInString(l.src[l.pos:])
		return token{}, l.errf("unexpected character %q", r)
	}
	return token{}, l.errf("unexpected bareword %q", prefix)
}

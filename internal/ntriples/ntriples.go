// Package ntriples reads and writes the N-Triples line-based RDF syntax,
// the exchange format used by the example applications and the benchmark
// harness to persist graphs.
package ntriples

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"repro/internal/rdf"
)

// ParseError reports a syntax error with its line number.
type ParseError struct {
	Line int
	Msg  string
	// Err is the cause, when the line parsed but its triple is refused: an
	// error wrapping rdf.ErrIllFormed.
	Err error
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("ntriples: line %d: %s", e.Line, e.Msg)
}

// Unwrap returns the cause, so errors.Is(err, rdf.ErrIllFormed) holds for a
// refused triple.
func (e *ParseError) Unwrap() error { return e.Err }

// Read parses an N-Triples document into a graph. Comment lines (#) and
// blank lines are skipped. Each triple must be terminated by a dot.
func Read(r io.Reader) (*rdf.Graph, error) {
	g := rdf.NewGraph()
	err := ReadTriples(r, func(t rdf.Triple) error {
		g.Add(t)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return g, nil
}

// ReadTriples parses an N-Triples document, invoking fn for each triple in
// document order. Parsing stops at the first error, including any error
// returned by fn.
func ReadTriples(r io.Reader, fn func(rdf.Triple) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		t, err := parseLine(line, lineNo)
		if err != nil {
			return err
		}
		if err := t.WellFormed(); err != nil {
			return &ParseError{Line: lineNo, Msg: err.Error(), Err: err}
		}
		if err := fn(t); err != nil {
			return err
		}
	}
	return sc.Err()
}

type lineParser struct {
	s    string
	pos  int
	line int
}

func (p *lineParser) errf(format string, args ...any) error {
	return &ParseError{Line: p.line, Msg: fmt.Sprintf(format, args...)}
}

func (p *lineParser) skipWS() {
	for p.pos < len(p.s) && (p.s[p.pos] == ' ' || p.s[p.pos] == '\t') {
		p.pos++
	}
}

func (p *lineParser) eof() bool { return p.pos >= len(p.s) }

func parseLine(line string, lineNo int) (rdf.Triple, error) {
	p := &lineParser{s: line, line: lineNo}
	s, err := p.term()
	if err != nil {
		return rdf.Triple{}, err
	}
	pr, err := p.term()
	if err != nil {
		return rdf.Triple{}, err
	}
	o, err := p.term()
	if err != nil {
		return rdf.Triple{}, err
	}
	p.skipWS()
	if p.eof() || p.s[p.pos] != '.' {
		return rdf.Triple{}, p.errf("expected terminating '.'")
	}
	p.pos++
	p.skipWS()
	if !p.eof() && !strings.HasPrefix(p.s[p.pos:], "#") {
		return rdf.Triple{}, p.errf("unexpected trailing content %q", p.s[p.pos:])
	}
	return rdf.T(s, pr, o), nil
}

func (p *lineParser) term() (rdf.Term, error) {
	p.skipWS()
	if p.eof() {
		return rdf.Term{}, p.errf("unexpected end of line, expected term")
	}
	switch p.s[p.pos] {
	case '<':
		return p.iri()
	case '_':
		return p.blank()
	case '"':
		return p.literal()
	default:
		return rdf.Term{}, p.errf("unexpected character %q, expected term", p.s[p.pos])
	}
}

func (p *lineParser) iri() (rdf.Term, error) {
	end := strings.IndexByte(p.s[p.pos:], '>')
	if end < 0 {
		return rdf.Term{}, p.errf("unterminated IRI")
	}
	iri := p.s[p.pos+1 : p.pos+end]
	p.pos += end + 1
	if iri == "" {
		return rdf.Term{}, p.errf("empty IRI")
	}
	return rdf.NewIRI(rdf.UnescapeIRI(iri)), nil
}

func (p *lineParser) blank() (rdf.Term, error) {
	if !strings.HasPrefix(p.s[p.pos:], "_:") {
		return rdf.Term{}, p.errf("malformed blank node")
	}
	start := p.pos + 2
	end := start
	for end < len(p.s) && !isTermDelim(p.s[end]) {
		end++
	}
	if end == start {
		return rdf.Term{}, p.errf("empty blank node label")
	}
	label := p.s[start:end]
	p.pos = end
	return rdf.NewBlank(label), nil
}

func isTermDelim(c byte) bool {
	return c == ' ' || c == '\t' || c == '.' || c == '<' || c == '"'
}

func (p *lineParser) literal() (rdf.Term, error) {
	// p.s[p.pos] == '"'
	i := p.pos + 1
	var b strings.Builder
	for {
		if i >= len(p.s) {
			return rdf.Term{}, p.errf("unterminated literal")
		}
		c := p.s[i]
		if c == '"' {
			i++
			break
		}
		if c == '\\' {
			if i+1 >= len(p.s) {
				return rdf.Term{}, p.errf("dangling escape")
			}
			esc, n, err := rdf.DecodeEscape(p.s[i:])
			if err != nil {
				return rdf.Term{}, p.errf("%v", err)
			}
			b.WriteString(esc)
			i += n
			continue
		}
		b.WriteByte(c)
		i++
	}
	lex := b.String()
	p.pos = i
	// Optional @lang or ^^<datatype>.
	if p.pos < len(p.s) && p.s[p.pos] == '@' {
		start := p.pos + 1
		end := start
		for end < len(p.s) && (isAlnum(p.s[end]) || p.s[end] == '-') {
			end++
		}
		if end == start {
			return rdf.Term{}, p.errf("empty language tag")
		}
		lang := p.s[start:end]
		p.pos = end
		return rdf.NewLangLiteral(lex, lang), nil
	}
	if strings.HasPrefix(p.s[p.pos:], "^^") {
		p.pos += 2
		if p.eof() || p.s[p.pos] != '<' {
			return rdf.Term{}, p.errf("expected datatype IRI after ^^")
		}
		dt, err := p.iri()
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewTypedLiteral(lex, dt.Value), nil
	}
	return rdf.NewLiteral(lex), nil
}

func isAlnum(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

// Write serialises the graph in sorted order, one triple per line.
func Write(w io.Writer, g *rdf.Graph) error {
	bw := bufio.NewWriter(w)
	for _, t := range g.Triples() {
		if _, err := fmt.Fprintf(bw, "%s %s %s .\n", t.S, t.P, t.O); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Format renders a single triple as an N-Triples line (with final dot).
func Format(t rdf.Triple) string {
	return fmt.Sprintf("%s %s %s .", t.S, t.P, t.O)
}

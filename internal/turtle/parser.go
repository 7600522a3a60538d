package turtle

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/rdf"
)

// Parse reads a Turtle document into a graph.
func Parse(r io.Reader) (*rdf.Graph, error) {
	src, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return ParseString(string(src))
}

// ParseString parses a Turtle document held in memory.
func ParseString(src string) (*rdf.Graph, error) {
	p := &parser{
		lex:      newLexer(src),
		prefixes: map[string]string{},
	}
	g := rdf.NewGraph()
	if err := p.document(g); err != nil {
		return nil, err
	}
	return g, nil
}

type parser struct {
	lex      *lexer
	tok      token
	peeked   bool
	prefixes map[string]string
	base     string
}

func (p *parser) next() (token, error) {
	if p.peeked {
		p.peeked = false
		return p.tok, nil
	}
	return p.lex.next()
}

func (p *parser) peek() (token, error) {
	if !p.peeked {
		t, err := p.lex.next()
		if err != nil {
			return token{}, err
		}
		p.tok = t
		p.peeked = true
	}
	return p.tok, nil
}

func (p *parser) errf(line int, format string, args ...any) error {
	return &Error{Line: line, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) document(g *rdf.Graph) error {
	for {
		t, err := p.peek()
		if err != nil {
			return err
		}
		switch t.kind {
		case tokEOF:
			return nil
		case tokPrefixDecl:
			if err := p.prefixDecl(); err != nil {
				return err
			}
		case tokBaseDecl:
			if err := p.baseDecl(); err != nil {
				return err
			}
		default:
			if err := p.triples(g); err != nil {
				return err
			}
		}
	}
}

func (p *parser) prefixDecl() error {
	decl, _ := p.next() // consume @prefix
	name, err := p.next()
	if err != nil {
		return err
	}
	if name.kind != tokPName || !strings.HasSuffix(name.text, ":") {
		// tokPName text is "prefix:local"; a prefix declaration has an empty
		// local part so the text ends in ':'.
		if name.kind != tokPName {
			return p.errf(name.line, "expected prefix name in @prefix declaration, got %s", name.kind)
		}
	}
	colon := strings.IndexByte(name.text, ':')
	prefix, local := name.text[:colon], name.text[colon+1:]
	if local != "" {
		return p.errf(name.line, "malformed prefix declaration %q", name.text)
	}
	iri, err := p.next()
	if err != nil {
		return err
	}
	if iri.kind != tokIRI {
		return p.errf(iri.line, "expected IRI in @prefix declaration, got %s", iri.kind)
	}
	p.prefixes[prefix] = p.resolve(iri.text)
	// SPARQL-style PREFIX has no trailing dot; @prefix requires one.
	dot, err := p.peek()
	if err != nil {
		return err
	}
	if dot.kind == tokDot {
		p.next()
	}
	_ = decl
	return nil
}

func (p *parser) baseDecl() error {
	p.next() // consume @base
	iri, err := p.next()
	if err != nil {
		return err
	}
	if iri.kind != tokIRI {
		return p.errf(iri.line, "expected IRI in @base declaration, got %s", iri.kind)
	}
	p.base = iri.text
	dot, err := p.peek()
	if err != nil {
		return err
	}
	if dot.kind == tokDot {
		p.next()
	}
	return nil
}

// resolve applies the @base to a (possibly relative) IRI. We support the
// common cases: absolute IRIs pass through, anything else is concatenated
// to the base.
func (p *parser) resolve(iri string) string {
	if p.base == "" || strings.Contains(iri, "://") || strings.HasPrefix(iri, "urn:") || strings.HasPrefix(iri, "mailto:") {
		return iri
	}
	return p.base + iri
}

func (p *parser) triples(g *rdf.Graph) error {
	subj, err := p.term(true)
	if err != nil {
		return err
	}
	for {
		pred, err := p.predicate()
		if err != nil {
			return err
		}
		for {
			obj, err := p.term(false)
			if err != nil {
				return err
			}
			t := rdf.T(subj, pred, obj)
			if err := t.WellFormed(); err != nil {
				return &Error{Line: p.lex.line, Msg: err.Error(), Err: err}
			}
			g.Add(t)
			sep, err := p.next()
			if err != nil {
				return err
			}
			switch sep.kind {
			case tokComma:
				continue
			case tokSemicolon:
				// Trailing semicolons before '.' are legal Turtle.
				nxt, err := p.peek()
				if err != nil {
					return err
				}
				if nxt.kind == tokDot {
					p.next()
					return nil
				}
				goto nextPredicate
			case tokDot:
				return nil
			default:
				return p.errf(sep.line, "expected ',', ';' or '.', got %s", sep.kind)
			}
		}
	nextPredicate:
	}
}

func (p *parser) predicate() (rdf.Term, error) {
	t, err := p.next()
	if err != nil {
		return rdf.Term{}, err
	}
	switch t.kind {
	case tokA:
		return rdf.Type, nil
	case tokIRI:
		return rdf.NewIRI(p.resolve(t.text)), nil
	case tokPName:
		return p.expandPName(t)
	default:
		return rdf.Term{}, p.errf(t.line, "expected predicate, got %s", t.kind)
	}
}

func (p *parser) expandPName(t token) (rdf.Term, error) {
	colon := strings.IndexByte(t.text, ':')
	prefix, local := t.text[:colon], t.text[colon+1:]
	ns, ok := p.prefixes[prefix]
	if !ok {
		return rdf.Term{}, p.errf(t.line, "undeclared prefix %q", prefix)
	}
	return rdf.NewIRI(ns + local), nil
}

// term parses a subject (subjectPos=true) or object term.
func (p *parser) term(subjectPos bool) (rdf.Term, error) {
	t, err := p.next()
	if err != nil {
		return rdf.Term{}, err
	}
	switch t.kind {
	case tokIRI:
		return rdf.NewIRI(p.resolve(t.text)), nil
	case tokPName:
		return p.expandPName(t)
	case tokBlank:
		return rdf.NewBlank(t.text), nil
	case tokLiteral:
		if subjectPos {
			return rdf.Term{}, p.errf(t.line, "literal in subject position")
		}
		// Check for @lang or ^^datatype suffix.
		nxt, err := p.peek()
		if err != nil {
			return rdf.Term{}, err
		}
		switch nxt.kind {
		case tokLangTag:
			p.next()
			return rdf.NewLangLiteral(t.text, nxt.text), nil
		case tokDTypeSep:
			p.next()
			dt, err := p.next()
			if err != nil {
				return rdf.Term{}, err
			}
			switch dt.kind {
			case tokIRI:
				return rdf.NewTypedLiteral(t.text, p.resolve(dt.text)), nil
			case tokPName:
				iri, err := p.expandPName(dt)
				if err != nil {
					return rdf.Term{}, err
				}
				return rdf.NewTypedLiteral(t.text, iri.Value), nil
			default:
				return rdf.Term{}, p.errf(dt.line, "expected datatype IRI, got %s", dt.kind)
			}
		}
		return rdf.NewLiteral(t.text), nil
	case tokNumber:
		if subjectPos {
			return rdf.Term{}, p.errf(t.line, "numeric literal in subject position")
		}
		colon := strings.IndexByte(t.text, ':')
		kind, lex := t.text[:colon], t.text[colon+1:]
		if kind == "decimal" {
			return rdf.NewTypedLiteral(lex, rdf.XSDDecimal), nil
		}
		return rdf.NewTypedLiteral(lex, rdf.XSDInteger), nil
	case tokBoolean:
		if subjectPos {
			return rdf.Term{}, p.errf(t.line, "boolean literal in subject position")
		}
		return rdf.NewTypedLiteral(t.text, rdf.XSDBoolean), nil
	default:
		return rdf.Term{}, p.errf(t.line, "expected term, got %s", t.kind)
	}
}

// Write serialises a graph as Turtle, grouping triples by subject with ';'
// and emitting @prefix declarations for the provided prefix map (ns IRI by
// prefix name). Subjects, predicates and objects appear in sorted order so
// output is deterministic.
func Write(w io.Writer, g *rdf.Graph, prefixes map[string]string) error {
	names := make([]string, 0, len(prefixes))
	for name := range prefixes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, err := fmt.Fprintf(w, "@prefix %s: <%s> .\n", name, prefixes[name]); err != nil {
			return err
		}
	}
	if len(names) > 0 {
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	shorten := func(t rdf.Term) string {
		if t.Kind == rdf.IRI {
			if t == rdf.Type {
				return "a"
			}
			for _, name := range names {
				ns := prefixes[name]
				if strings.HasPrefix(t.Value, ns) {
					local := t.Value[len(ns):]
					if isSimpleLocal(local) {
						return name + ":" + local
					}
				}
			}
		}
		return t.String()
	}

	triples := g.Triples()
	for i := 0; i < len(triples); {
		subj := triples[i].S
		if _, err := fmt.Fprintf(w, "%s ", shorten(subj)); err != nil {
			return err
		}
		first := true
		for i < len(triples) && triples[i].S == subj {
			pred := triples[i].P
			if !first {
				if _, err := fmt.Fprintf(w, " ;\n    "); err != nil {
					return err
				}
			}
			first = false
			if _, err := fmt.Fprintf(w, "%s ", shorten(pred)); err != nil {
				return err
			}
			firstObj := true
			for i < len(triples) && triples[i].S == subj && triples[i].P == pred {
				if !firstObj {
					if _, err := fmt.Fprint(w, ", "); err != nil {
						return err
					}
				}
				firstObj = false
				if _, err := fmt.Fprint(w, shorten(triples[i].O)); err != nil {
					return err
				}
				i++
			}
		}
		if _, err := fmt.Fprintln(w, " ."); err != nil {
			return err
		}
	}
	return nil
}

func isSimpleLocal(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		if !(r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r == '_' || r == '-') {
			return false
		}
	}
	return true
}

package reformulate

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/dict"
)

// bfs is the reference the rewriter is checked against: the fixpoint of
// [12] computed breadth first over whole branches. It applies every
// single-step rewriting, and every instantiation of a variable in property
// or class position, to every atom of every branch, and adds each result
// to the union unless a branch with its dedup key is there, until the
// union stops growing. It reaches a branch once per atom it rewrites, and
// keys and hashes it each time.
type bfs struct {
	*rewriter
	seen   map[string]struct{}
	out    []branch
	fresh  uint32
	tmp    []pattern
	fix    []binding
	key    []byte
	sorted []pattern
}

// bfsUnion returns the plain union of r's query as the reference builds
// it, and the number of fresh variables it coined. It reads only r's
// query, form, schema, vocabulary and branch limit.
func bfsUnion(r *rewriter) ([]branch, int, error) {
	b := &bfs{rewriter: r, seen: map[string]struct{}{}}
	b.tmp = append(b.tmp, r.query...)
	if err := b.push(nil); err != nil {
		return nil, 0, err
	}
	for i := 0; i < len(b.out); i++ {
		if err := b.expand(b.out[i]); err != nil {
			return nil, 0, err
		}
	}
	return b.out, int(b.fresh), nil
}

// push adds the branch under construction (tmp, with the fixed bindings
// given) to the union unless an equivalent one was already produced.
func (b *bfs) push(fixed []binding) error {
	b.tmp = dedupe(b.tmp)
	b.key, b.sorted = appendKey(b.key[:0], b.sorted, b.tmp, fixed)
	if _, dup := b.seen[string(b.key)]; dup {
		return nil
	}
	if len(b.seen) >= b.max {
		return fmt.Errorf("%w (limit %d)", ErrTooLarge, b.max)
	}
	b.seen[string(b.key)] = struct{}{}
	b.out = append(b.out, branch{pats: slices.Clone(b.tmp), fixed: slices.Clone(fixed)})
	return nil
}

// expand applies every single-step rewriting to every pattern of br. A
// variable in property position, or in class position of an rdf:type
// pattern, goes to Step as dict.None, which instantiates it.
func (b *bfs) expand(br branch) error {
	var err error
	for i, p := range br.pats {
		v, fresh := uint32(0), dict.None
		switch {
		case isVar(p[1]):
			v, p[1] = p[1], uint32(dict.None)
		case p[1] == uint32(b.voc.Type) && isVar(p[2]):
			v, p[2] = p[2], uint32(dict.None)
		case p[1] == uint32(b.voc.Type):
			b.fresh++
			fresh = dict.ID(varTag | freshTag | (b.fresh - 1))
		}
		Step(b.sch, b.src, dict.ID(p[0]), dict.ID(p[1]), dict.ID(p[2]), fresh, func(s, pr, o dict.ID, _ bool) bool {
			switch {
			case v == 0:
				b.tmp = append(b.tmp[:0], br.pats...)
				b.tmp[i] = pattern{uint32(s), uint32(pr), uint32(o)}
				err = b.push(br.fixed)
			case p[1] == uint32(dict.None):
				err = b.instantiate(br, v, uint32(pr))
			default:
				err = b.instantiate(br, v, uint32(o))
			}
			return err == nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// instantiate pushes br with variable v replaced by the constant c
// everywhere, the binding recorded so the evaluator can emit it.
func (b *bfs) instantiate(br branch, v, c uint32) error {
	at, _ := slices.BinarySearchFunc(br.fixed, v, func(b binding, v uint32) int { return cmp.Compare(b.v, v) })
	b.tmp = b.tmp[:0]
	for _, p := range br.pats {
		for k, e := range p {
			if e == v {
				p[k] = c
			}
		}
		b.tmp = append(b.tmp, p)
	}
	b.fix = append(append(append(b.fix[:0], br.fixed[:at]...), binding{v, c}), br.fixed[at:]...)
	return b.push(b.fix)
}

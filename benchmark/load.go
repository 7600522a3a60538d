package main

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/lubm"
	"repro/internal/rdf"
)

// The 14 lubm.Queries() templates, split once by result size at the
// benchmark scale: a point template returns at most 152 rows, a scan template
// at least 206. A round answers every template of one set once with one
// binding, so every round of a kind is the same amount of work.
var (
	pointNames = []string{"Q1", "Q3", "Q4", "Q5", "Q7", "Q10", "Q11", "Q12"}
	scanNames  = []string{"Q2", "Q6", "Q8", "Q9", "Q13", "Q14"}
)

// binding is the (university, department) pair substituted for the
// univ0/dept0 constants of a template.
type binding struct{ univ, dept int }

// bind instantiates a lubm query text for b. Templates mention univ0/dept0
// (and entities below it) or univ0 alone; the department form is replaced
// first so the bare university form cannot clobber it.
func bind(text string, b binding) string {
	text = strings.ReplaceAll(text, "univ0/dept0", fmt.Sprintf("univ%d/dept%d", b.univ, b.dept))
	return strings.ReplaceAll(text, "univ0>", fmt.Sprintf("univ%d>", b.univ))
}

func templates(names []string) []lubm.Query {
	out := make([]lubm.Query, len(names))
	for i, n := range names {
		out[i] = lubm.QueryByName(n)
	}
	return out
}

// dataSeed is the generator seed of every run. The workload seed drives what
// the load generator decides — binding order, scan order, the whole update
// stream — but not the graph: a graph per seed would add between-seed
// differences (which departments are eligible, how many rows they return) to
// a run-to-run spread that on this machine already reaches 8%, and a
// regression bound has to hold across seeds.
const dataSeed = 1

// dataConfig is the generator configuration of a run: LUBM defaults per
// department at the scale's university and department counts.
func dataConfig(sc scale) lubm.Config {
	cfg := lubm.DefaultConfig()
	cfg.Universities = sc.universities
	cfg.DeptsPerUniv = sc.depts
	cfg.Seed = dataSeed
	return cfg
}

// allBindings lists every department of the data set in canonical order;
// index u*depts+d identifies a binding everywhere in the benchmark.
func allBindings(sc scale) []binding {
	out := make([]binding, 0, sc.universities*sc.depts)
	for u := 0; u < sc.universities; u++ {
		for d := 0; d < sc.depts; d++ {
			out = append(out, binding{u, d})
		}
	}
	return out
}

// bindingOrder is the seeded permutation of the eligible binding indexes that
// every client walks round by round, so the working set is the whole graph
// and not univ0/dept0.
func bindingOrder(seed int64, eligible []int) []int {
	order := append([]int(nil), eligible...)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}

// splitmix is a stateless 64-bit mixer: update batches derive their choices
// from (seed, batch id) through it, so a batch can be regenerated from its id
// alone when it is later deleted or verified.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

const (
	batchTriples = 16 // triples per update batch
	durableEvery = 32 // every 32nd batch is sent durably and timed to its ack
	// One delete batch in generatedShare takes generated triples (DRed over
	// the original graph); the others retract an earlier inserted batch.
	generatedShare = 8
)

// update is one batch of the sat.update stream. Inserted batches are fully
// described by id; a delete either retracts the inserted batch id or, when
// generated is set, the generated-pool triples [id, id+batchTriples).
type update struct {
	del       bool
	generated bool
	id        int
	durable   bool
}

// updateStream generates the sat.update write load. It is a pure function of
// the seed and the generated graph: batch k of two streams with the same seed
// is identical, whatever the timing of the run.
type updateStream struct {
	seed  uint64
	sc    scale
	rng   *rand.Rand
	pool  []rdf.Triple // generated triples eligible for deletion, shuffled
	taken int          // pool prefix already deleted
	live  []int        // ids of inserted batches not yet retracted
	next  int          // id of the next inserted batch
	sent  int
}

func newUpdateStream(seed int64, sc scale, g *rdf.Graph) *updateStream {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	var pool []rdf.Triple
	for _, t := range g.InstanceTriples() { // sorted, so the shuffle is seeded only
		if t.P != rdf.Type && !t.O.IsLiteral() {
			pool = append(pool, t)
		}
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return &updateStream{seed: uint64(seed), sc: sc, rng: rng, pool: pool}
}

// nextUpdate draws the next batch: 70% inserts of fresh students and a fresh
// course attached to an existing department, 30% deletes.
func (s *updateStream) nextUpdate() update {
	s.sent++
	u := update{durable: s.sent%durableEvery == 0}
	if s.rng.Intn(10) < 7 || len(s.live) == 0 {
		u.id = s.next
		s.next++
		s.live = append(s.live, u.id)
		return u
	}
	u.del = true
	if s.rng.Intn(generatedShare) == 0 && s.taken+batchTriples <= len(s.pool) {
		u.generated = true
		u.id = s.taken
		s.taken += batchTriples
		return u
	}
	i := s.rng.Intn(len(s.live))
	u.id = s.live[i]
	s.live[i] = s.live[len(s.live)-1]
	s.live = s.live[:len(s.live)-1]
	return u
}

// triples returns the batch's 16 triples.
func (s *updateStream) triples(u update) []rdf.Triple {
	if u.generated {
		return s.pool[u.id : u.id+batchTriples]
	}
	return s.insertedBatch(u.id)
}

// insertedBatch regenerates inserted batch id: four fresh graduate students
// (type, memberOf, takesCourse) of one department, a fresh course taught by
// the department's first lecturer, and two advisor edges to its first full
// professor — 16 triples, all with new subjects or objects, so insertion
// exercises the full maintenance path.
func (s *updateStream) insertedBatch(id int) []rdf.Triple {
	h := splitmix(s.seed ^ uint64(id)*0x100000001b3)
	u := int(h % uint64(s.sc.universities))
	d := int((h >> 20) % uint64(s.sc.depts))
	dept := fmt.Sprintf("univ%d/dept%d", u, d)
	course := lubm.Entity(fmt.Sprintf("%s/bench/course%d", dept, id))
	out := make([]rdf.Triple, 0, batchTriples)
	out = append(out,
		rdf.T(course, rdf.Type, lubm.Class("Course")),
		rdf.T(lubm.Entity(dept+"/lecturer0"), lubm.Prop("teacherOf"), course))
	for i := 0; i < 4; i++ {
		st := lubm.Entity(fmt.Sprintf("%s/bench/student%d_%d", dept, id, i))
		out = append(out,
			rdf.T(st, rdf.Type, lubm.Class("GraduateStudent")),
			rdf.T(st, lubm.Prop("memberOf"), lubm.Entity(dept)),
			rdf.T(st, lubm.Prop("takesCourse"), course))
		if i < 2 {
			out = append(out, rdf.T(st, lubm.Prop("advisor"), lubm.Entity(dept+"/fullProf0")))
		}
	}
	return out
}

// finalGraph applies the stream's net effect to a copy of the generated
// graph: the asserted graph the server must hold once every sent batch has
// been applied.
func (s *updateStream) finalGraph(g *rdf.Graph) *rdf.Graph {
	out := g.Clone()
	for _, t := range s.pool[:s.taken] {
		out.Remove(t)
	}
	for _, id := range s.live {
		for _, t := range s.insertedBatch(id) {
			out.Add(t)
		}
	}
	return out
}

package core

import (
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"testing"

	"repro/internal/lubm"
	"repro/internal/reformulate"
)

// TestStrategiesShareLoadedG pins that every strategy built from a KB starts
// from a clone of the loaded store, sharing its nodes, instead of a second
// physical G: building reformulation and backward chaining over LUBM (1, 4)
// adds less than a quarter of the live heap LoadGraph added (a structural
// copy of G per strategy adds more than all of it). Writes through each
// strategy then stay its own — KB.Len and KB.Graph still return G as loaded
// — and the three strategies can be built from one KB in three goroutines,
// which the race detector checks, and written there side by side.
func TestStrategiesShareLoadedG(t *testing.T) {
	cfg := lubm.DefaultConfig()
	cfg.DeptsPerUniv = 4
	g := lubm.GenerateWithOntology(cfg)

	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	live := func() uint64 {
		runtime.GC()
		runtime.GC()
		metrics.Read(sample)
		return sample[0].Value.Uint64()
	}
	before := live()
	kb := NewKB()
	if _, err := kb.LoadGraph(g); err != nil {
		t.Fatal(err)
	}
	loaded := live()
	ref := NewReformulation(kb, reformulate.Options{Minimize: true})
	bwd := NewBackward(kb)
	built := live()
	runtime.KeepAlive(ref)
	runtime.KeepAlive(bwd)
	t.Logf("LoadGraph added %.2f MB live, reformulation and backward %.2f MB", float64(loaded-before)/(1<<20), float64(built-loaded)/(1<<20))
	if 4*(built-loaded) >= loaded-before {
		t.Errorf("building reformulation and backward added %d live bytes, LoadGraph %d: not under a quarter", built-loaded, loaded-before)
	}

	fresh := lubm.InstanceUpdates(6)
	existing := append(lubm.ExistingInstanceTriples(cfg, 3), lubm.ExistingSchemaTriples()[0])
	write := func(s Strategy) {
		n := s.Len()
		if err := s.Insert(append(fresh, lubm.SchemaUpdates()...)...); err != nil {
			t.Errorf("%s: insert: %v", s.Name(), err)
		}
		if err := s.Delete(existing...); err != nil {
			t.Errorf("%s: delete: %v", s.Name(), err)
		}
		if s.Len() == n {
			t.Errorf("%s: Len unchanged at %d by the writes", s.Name(), n)
		}
	}
	checkLoaded := func(kb *KB, when string) {
		t.Helper()
		if kb.Len() != g.Len() {
			t.Fatalf("%s: KB.Len = %d, want %d as loaded", when, kb.Len(), g.Len())
		}
		if !kb.Graph().Equal(g) {
			t.Fatalf("%s: KB.Graph differs from G as loaded", when)
		}
	}
	write(ref)
	write(bwd)
	checkLoaded(kb, "after writing reformulation and backward")

	// A second KB, from which no strategy has been built yet: the three
	// goroutines are the first to clone its store.
	kb2 := NewKB()
	if _, err := kb2.LoadGraph(g); err != nil {
		t.Fatal(err)
	}
	strats := make([]Strategy, 3)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i, name := range []string{"saturation", "reformulation", "backward"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			s, err := NewStrategy(name, kb2)
			if err != nil {
				t.Error(err)
				return
			}
			write(s)
			strats[i] = s
		}()
	}
	close(start)
	wg.Wait()
	checkLoaded(kb2, "after building and writing three strategies at once")
	if t.Failed() {
		return
	}
	// Each strategy answers as a fresh build does after the same writes.
	for _, c := range []struct {
		kb *KB
		ss []Strategy
	}{{kb, []Strategy{ref, bwd}}, {kb2, strats}} {
		want := NewReformulation(c.kb, reformulate.Options{Minimize: true})
		write(want)
		for _, s := range c.ss {
			for _, q := range lubm.Queries() {
				if got, exp := answers(t, c.kb, s, q.Text), answers(t, c.kb, want, q.Text); !slices.Equal(got, exp) {
					t.Fatalf("%s %s: %d answers, a fresh build after the same writes gives %d", s.Name(), q.Name, len(got), len(exp))
				}
			}
		}
	}
}

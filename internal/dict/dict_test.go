package dict

import (
	"fmt"
	"sync"
	"testing"

	"ontario/internal/rdf"
)

func TestInternLookupRoundTrip(t *testing.T) {
	d := New()
	terms := []rdf.Term{
		rdf.NewIRI("http://example.org/a"),
		rdf.NewIRI("http://example.org/b"),
		rdf.NewLiteral("hello"),
		rdf.NewTypedLiteral("42", rdf.XSDInteger),
		rdf.NewLangLiteral("bonjour", "fr"),
		rdf.NewBlank("b0"),
		// Same lexical form, different kind/type: must get distinct IDs.
		rdf.NewLiteral("http://example.org/a"),
		rdf.NewTypedLiteral("hello", rdf.XSDString),
	}
	ids := make([]ID, len(terms))
	for i, tm := range terms {
		ids[i] = d.Intern(tm)
		if ids[i] == Unbound {
			t.Fatalf("Intern(%v) returned Unbound", tm)
		}
	}
	seen := map[ID]bool{}
	for i, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate ID %d for distinct term %v", id, terms[i])
		}
		seen[id] = true
		got, ok := d.Lookup(id)
		if !ok || got != terms[i] {
			t.Fatalf("Lookup(%d) = %v, %v; want %v", id, got, ok, terms[i])
		}
	}
	// Re-interning returns the same IDs.
	for i, tm := range terms {
		if got := d.Intern(tm); got != ids[i] {
			t.Fatalf("re-Intern(%v) = %d, want %d", tm, got, ids[i])
		}
	}
	if d.Len() != len(terms) {
		t.Fatalf("Len = %d, want %d", d.Len(), len(terms))
	}
}

func TestLookupUnknown(t *testing.T) {
	d := New()
	if _, ok := d.Lookup(Unbound); ok {
		t.Fatal("Lookup(Unbound) reported ok")
	}
	if _, ok := d.Lookup(ID(1 << 40)); ok {
		t.Fatal("Lookup of never-issued ID reported ok")
	}
}

func TestConcurrentInternIsConsistent(t *testing.T) {
	d := New()
	const goroutines = 8
	const terms = 512
	results := make([][]ID, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ids := make([]ID, terms)
			for i := 0; i < terms; i++ {
				ids[i] = d.Intern(rdf.NewIRI(fmt.Sprintf("http://example.org/%d", i)))
			}
			results[g] = ids
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		for i := range results[g] {
			if results[g][i] != results[0][i] {
				t.Fatalf("goroutine %d got ID %d for term %d, goroutine 0 got %d",
					g, results[g][i], i, results[0][i])
			}
		}
	}
	if d.Len() != terms {
		t.Fatalf("Len = %d, want %d", d.Len(), terms)
	}
}

// TestIDsAreDense pins the ID layout Table's memory bound rests on: the
// largest ID a dictionary has issued is at most 16 × (largest shard + 1),
// so a table indexed by ID never outgrows the dictionary by more than its
// shard imbalance.
func TestIDsAreDense(t *testing.T) {
	d := New()
	var maxID ID
	for i := 0; i < 20000; i++ {
		var tm rdf.Term
		switch i % 3 {
		case 0:
			tm = rdf.NewIRI(fmt.Sprintf("http://example.org/e/%d", i))
		case 1:
			tm = rdf.IntLiteral(int64(i))
		default:
			tm = rdf.NewLangLiteral(fmt.Sprintf("label %d", i), "en")
		}
		if id := d.Intern(tm); id > maxID {
			maxID = id
		}
		if i%997 == 0 {
			largest := 0
			for s := range d.shards {
				largest = max(largest, len(d.shards[s].terms))
			}
			if bound := ID(shardCount * (largest + 1)); maxID > bound {
				t.Fatalf("after %d terms: max ID %d exceeds 16 x (largest shard %d + 1) = %d", i+1, maxID, largest, bound)
			}
		}
	}
}

// TestTableConcurrentGrowth stores from several goroutines into ranges
// that cross chunk boundaries, so growth races with stores and loads:
// every store must stay visible (chunks never move) and no load may see a
// value other than the one stored for its ID.
func TestTableConcurrentGrowth(t *testing.T) {
	var tbl Table[uint64]
	const goroutines, n = 4, 5 * (1 << tableChunkBits)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < n; i += 2 {
				id := ID(i)
				if p := tbl.Load(id); p != nil && *p != uint64(i) {
					t.Errorf("Load(%d) = %d", i, *p)
					return
				}
				v := uint64(i)
				tbl.Store(id, &v)
			}
		}(g)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if p := tbl.Load(ID(i)); p == nil || *p != uint64(i) {
			t.Fatalf("slot %d lost its value", i)
		}
	}
	if p := tbl.Load(ID(1 << 40)); p != nil {
		t.Fatal("Load beyond the table returned a value")
	}
}

// BenchmarkIntern measures interning a repeating working set (the common
// case: most terms of a batch are already in the dictionary).
func BenchmarkIntern(b *testing.B) {
	d := New()
	terms := make([]rdf.Term, 1024)
	for i := range terms {
		terms[i] = rdf.NewIRI(fmt.Sprintf("http://lake.tib.eu/entity/%d", i))
	}
	for _, tm := range terms {
		d.Intern(tm)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Intern(terms[i&1023])
	}
}

// BenchmarkInternParallel measures interning under concurrency: every
// worker hammers the same hot working set, the contention profile of
// parallel wrappers feeding one execution's dictionary.
func BenchmarkInternParallel(b *testing.B) {
	d := New()
	terms := make([]rdf.Term, 1024)
	for i := range terms {
		terms[i] = rdf.NewIRI(fmt.Sprintf("http://lake.tib.eu/entity/%d", i))
	}
	for _, tm := range terms {
		d.Intern(tm)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			d.Intern(terms[i&1023])
			i++
		}
	})
}

// BenchmarkLookup measures the late-materialization path.
func BenchmarkLookup(b *testing.B) {
	d := New()
	ids := make([]ID, 1024)
	for i := range ids {
		ids[i] = d.Intern(rdf.NewIRI(fmt.Sprintf("http://lake.tib.eu/entity/%d", i)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := d.Lookup(ids[i&1023]); !ok {
			b.Fatal("lookup failed")
		}
	}
}

// BenchmarkLookupParallel measures concurrent materialization (several
// result writers resolving IDs at once).
func BenchmarkLookupParallel(b *testing.B) {
	d := New()
	ids := make([]ID, 1024)
	for i := range ids {
		ids[i] = d.Intern(rdf.NewIRI(fmt.Sprintf("http://lake.tib.eu/entity/%d", i)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			d.Lookup(ids[i&1023])
			i++
		}
	})
}

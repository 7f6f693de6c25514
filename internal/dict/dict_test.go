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

// mixedTerm returns the i-th of a stream of terms in groups of
// near-duplicates: the same Value as an IRI, a plain literal and a blank
// node; "ab" against "a"^^<b>; "x"@en against "x"^^<en>; the empty
// literal (the one term that repeats) against one whose datatype carries
// the bytes.
func mixedTerm(i int) rdf.Term {
	v := fmt.Sprintf("http://lake.tib.eu/drugbank/resource/drugs/%d", i/9)
	switch i % 9 {
	case 0:
		return rdf.NewIRI(v)
	case 1:
		return rdf.NewLiteral(v)
	case 2:
		return rdf.NewBlank(v)
	case 3:
		return rdf.NewLiteral(v + "ab")
	case 4:
		return rdf.NewTypedLiteral(v+"a", "b")
	case 5:
		return rdf.NewLangLiteral(v, "en")
	case 6:
		return rdf.NewTypedLiteral(v, "en")
	case 7:
		return rdf.NewLiteral("")
	default:
		return rdf.NewTypedLiteral("", v)
	}
}

// TestInternIsABijection interns over 100k distinct terms — enough for
// every shard's index to double several times — and checks that each gets
// its own ID, that IDs resolve back and are stable, and that the IDs of a
// shard are exactly its first n indices.
func TestInternIsABijection(t *testing.T) {
	d := New()
	const n = 110_000
	var terms []rdf.Term
	seenTerm := map[rdf.Term]bool{}
	for i := 0; len(terms) < n; i++ {
		if tm := mixedTerm(i); !seenTerm[tm] {
			seenTerm[tm] = true
			terms = append(terms, tm)
		}
	}
	ids := make([]ID, n)
	byID := map[ID]int{}
	for i, tm := range terms {
		id := d.Intern(tm)
		if j, dup := byID[id]; dup {
			t.Fatalf("terms %v and %v share ID %d", terms[j], tm, id)
		}
		byID[id] = i
		ids[i] = id
	}
	if d.Len() != n {
		t.Fatalf("Len = %d, want %d", d.Len(), n)
	}
	for i, tm := range terms {
		if got := d.Intern(tm); got != ids[i] {
			t.Fatalf("re-Intern(%v) = %d, want %d", tm, got, ids[i])
		}
		if got, ok := d.Lookup(ids[i]); !ok || got != tm {
			t.Fatalf("Lookup(%d) = %v, %v; want %v", ids[i], got, ok, tm)
		}
	}
	for sh := range d.shards {
		count := uint64(len(d.shards[sh].terms))
		if count == 0 || len(d.shards[sh].slots) < 8*minSlots {
			t.Fatalf("shard %d holds %d terms in %d slots; want every shard used and grown", sh, count, len(d.shards[sh].slots))
		}
		for idx := uint64(0); idx < count; idx++ {
			if _, ok := byID[ID(idx<<shardBits|uint64(sh))+1]; !ok {
				t.Fatalf("shard %d index %d of %d was never issued", sh, idx, count)
			}
		}
		if _, ok := d.Lookup(ID(count<<shardBits|uint64(sh)) + 1); ok {
			t.Fatalf("Lookup one past shard %d's count reported ok", sh)
		}
	}
	if _, ok := d.Lookup(ID(1<<62 | 5)); ok {
		t.Fatal("Lookup of a far-out ID reported ok")
	}
}

// TestProbeThroughCollisions forces hashes so that terms share a tag, or
// share a start slot under different tags, and checks that the probe
// confirms each match against the term and survives the index growing.
func TestProbeThroughCollisions(t *testing.T) {
	d := New()
	const sameTag = 0x1234_5678_0000_0003 // shard 3, tag 0x12345678
	var terms []rdf.Term
	var hashes []uint64
	for i := 0; i < 200; i++ {
		terms = append(terms, rdf.NewIRI(fmt.Sprintf("http://example.org/c/%d", i)))
		h := uint64(sameTag)
		if i%2 == 1 {
			// Another tag with the same low bits: the same start slot at
			// every index size up to 2^16 slots.
			h += uint64(i) << 48
		}
		hashes = append(hashes, h)
	}
	ids := map[ID]rdf.Term{}
	for i, tm := range terms {
		id := d.intern(tm, hashes[i])
		if prev, dup := ids[id]; dup {
			t.Fatalf("%v and %v share ID %d", prev, tm, id)
		}
		ids[id] = tm
		if uint64(id-1)&shardMask != 3 {
			t.Fatalf("ID %d is not in shard 3", id)
		}
	}
	for i, tm := range terms {
		id := d.intern(tm, hashes[i])
		if ids[id] != tm {
			t.Fatalf("re-intern of %v gave ID %d, which is %v", tm, id, ids[id])
		}
		if got := d.MustLookup(id); got != tm {
			t.Fatalf("Lookup(%d) = %v, want %v", id, got, tm)
		}
	}
}

// TestInternIsDeterministic pins the IDs a fresh dictionary issues for a
// fixed term list: IDs decide hash-join emission order and response-cache
// keys, so a per-process hash seed must never reach them.
func TestInternIsDeterministic(t *testing.T) {
	d := New()
	var got []ID
	for i := 0; i < 50; i++ {
		got = append(got, d.Intern(mixedTerm(i)))
	}
	want := []ID{
		1, 5, 7, 6, 15, 22, 12, 2, 38, 8,
		28, 13, 4, 10, 54, 11, 2, 44, 21, 9,
		18, 23, 25, 60, 16, 2, 34, 27, 31, 32,
		29, 26, 17, 45, 2, 39, 24, 47, 48, 3,
		50, 66, 76, 2, 43, 14, 37, 70, 41, 33,
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("IDs = %v\nwant %v", got, want)
	}
}

// TestConcurrentInternIsConsistent interns overlapping term sets from 8
// goroutines while 2 more sweep every shard, looking up each index as soon
// as it resolves: each term must get exactly one ID, and an ID that
// resolves must already hold its whole term.
func TestConcurrentInternIsConsistent(t *testing.T) {
	d := New()
	const interners, lookers = 8, 2
	const span, stride = 4096, 1024 // goroutine g interns terms [g*stride, g*stride+span)
	valid := map[rdf.Term]bool{}
	for i := 0; i < (interners-1)*stride+span; i++ {
		valid[mixedTerm(i)] = true
	}
	results := make([][]ID, interners)
	seen := make([]int, lookers)
	done := make(chan struct{})
	var wg, lwg sync.WaitGroup
	for l := 0; l < lookers; l++ {
		lwg.Add(1)
		go func(l int) {
			defer lwg.Done()
			var next [shardCount]uint64
			for last := false; !last; {
				select {
				case <-done:
					last = true // one more sweep sees every term
				default:
				}
				for sh := range next {
					for {
						tm, ok := d.Lookup(ID(next[sh]<<shardBits|uint64(sh)) + 1)
						if !ok {
							break
						}
						if !valid[tm] {
							t.Errorf("shard %d index %d resolved to %v, which no goroutine interns", sh, next[sh], tm)
							return
						}
						next[sh]++
						seen[l]++
					}
				}
			}
		}(l)
	}
	for g := 0; g < interners; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ids := make([]ID, span)
			for k := range ids {
				ids[k] = d.Intern(mixedTerm(g*stride + k))
			}
			results[g] = ids
		}(g)
	}
	wg.Wait()
	close(done)
	lwg.Wait()
	idOf := map[rdf.Term]ID{}
	termOf := map[ID]rdf.Term{}
	for g, ids := range results {
		for k, id := range ids {
			tm := mixedTerm(g*stride + k)
			if prev, ok := idOf[tm]; ok && prev != id {
				t.Fatalf("%v got IDs %d and %d", tm, prev, id)
			}
			if prev, ok := termOf[id]; ok && prev != tm {
				t.Fatalf("%v and %v share ID %d", prev, tm, id)
			}
			idOf[tm], termOf[id] = id, tm
		}
	}
	if d.Len() != len(idOf) {
		t.Fatalf("Len = %d, want %d distinct terms", d.Len(), len(idOf))
	}
	for l, n := range seen {
		if n != len(idOf) {
			t.Fatalf("looker %d resolved %d IDs, want %d", l, n, len(idOf))
		}
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

// BenchmarkInternCold measures the miss path a cold lake pays: every op
// interns 60k distinct lake-shaped terms into a fresh dictionary.
func BenchmarkInternCold(b *testing.B) {
	const n = 60_000
	terms := make([]rdf.Term, n)
	for i := range terms {
		switch i % 4 {
		case 0:
			terms[i] = rdf.NewIRI(fmt.Sprintf("http://lake.tib.eu/diseasome/resource/genes/%d", i))
		case 1:
			terms[i] = rdf.IntLiteral(int64(i))
		case 2:
			terms[i] = rdf.NewLangLiteral(fmt.Sprintf("Gene product %d", i), "en")
		default:
			terms[i] = rdf.NewLiteral(fmt.Sprintf("DB%05d", i))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := New()
		for _, tm := range terms {
			d.Intern(tm)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/term")
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

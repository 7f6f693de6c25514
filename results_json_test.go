package ontario

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"ontario/internal/dict"
	"ontario/internal/lslod"
	"ontario/internal/rdf"
)

// TestMarshalTermMatchesJSON pins marshalTerm to encoding/json: for every
// term kind and every class of character the JSON encoder escapes — quotes,
// backslashes, control characters, the HTML-sensitive <>&, the JavaScript
// line separators U+2028/U+2029 and invalid UTF-8 — the hand-rolled bytes
// equal marshaling the sparql-results+json term object.
func TestMarshalTermMatchesJSON(t *testing.T) {
	type jsonTerm struct {
		Type     string `json:"type"`
		Value    string `json:"value"`
		Datatype string `json:"datatype,omitempty"`
		Lang     string `json:"xml:lang,omitempty"`
	}
	values := []string{
		"", "plain", `say "hi"`, `back\slash`, "tab\tnew\nline\rcr", "\x00\x01\x1f\x7f",
		"<script>&amp;</script>", "line\u2028para\u2029end", "bad \xff\xfe utf8", "é ü 日本 😀",
	}
	var terms []rdf.Term
	for _, v := range values {
		terms = append(terms,
			rdf.NewIRI("http://e/"+v),
			rdf.NewBlank("b"+v),
			rdf.NewLiteral(v),
			rdf.NewTypedLiteral(v, rdf.XSDInteger),
			rdf.NewTypedLiteral(v, "http://e/dt?"+v),
			rdf.NewLangLiteral(v, "en-GB"),
			rdf.NewLangLiteral(v, v),
		)
	}
	for _, tm := range terms {
		ref := jsonTerm{Type: "literal", Value: tm.Value}
		switch tm.Kind {
		case rdf.TermIRI:
			ref.Type = "uri"
		case rdf.TermBlank:
			ref.Type = "bnode"
		default:
			ref.Datatype, ref.Lang = tm.Datatype, tm.Lang
		}
		want, err := json.Marshal(ref)
		if err != nil {
			t.Fatal(err)
		}
		if got := marshalTerm(nil, tm); string(got) != string(want) {
			t.Errorf("term %#v:\n got %s\nwant %s", tm, got, want)
		}
	}
}

// TestTermTableConcurrentEncode races cursors encoding overlapping ID sets
// through the shared term table while it grows: every encoding read must
// equal marshalTerm of the term the dictionary resolves. Run under -race.
func TestTermTableConcurrentEncode(t *testing.T) {
	d := dict.New()
	const n = 6000 // IDs span several table chunks
	ids := make([]dict.ID, n)
	for i := range ids {
		ids[i] = d.Intern(rdf.NewLiteral(fmt.Sprintf("term %d \"%c\"", i, rune('a'+i%26))))
	}
	var shared termJSON
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Goroutine g walks the IDs from its own offset, twice: every ID
			// is encoded by several goroutines, the first pass grows the
			// table, the second reads what the others stored.
			for pass := 0; pass < 2; pass++ {
				for k := 0; k < n; k++ {
					id := ids[(k*(g+1)+g*n/4)%n]
					got := encodedTerm(&shared, d, id)
					if want := marshalTerm(nil, d.MustLookup(id)); string(got) != string(want) {
						t.Errorf("id %d: got %s, want %s", id, got, want)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkResultsJSON measures the server's JSON fast path over warm
// cursors: concurrent goroutines replay the five LSLOD texts on one engine
// (plans and source responses cached), draining each cursor through
// nextBatchJSON — the response cache replay, the exchange and the shared
// term table, without HTTP.
func BenchmarkResultsJSON(b *testing.B) {
	lk, err := lslod.BuildLake(lslod.SmallScale(), 11)
	if err != nil {
		b.Fatal(err)
	}
	eng := New(lk.Lake)
	opts := []Option{WithAwarePlan(), WithNetworkScale(0)}
	ctx := context.Background()
	drain := func(text string) int {
		res, err := eng.Query(ctx, text, opts...)
		if err != nil {
			b.Fatal(err)
		}
		defer res.Close()
		n := 0
		for {
			_, k, ok := res.nextBatchJSON()
			if !ok {
				break
			}
			n += k
		}
		if err := res.Err(); err != nil {
			b.Fatal(err)
		}
		return n
	}
	queries := lslod.Queries()
	for _, q := range queries {
		drain(q.Text) // warm the plan and response caches
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			drain(queries[i%len(queries)].Text)
			i++
		}
	})
}

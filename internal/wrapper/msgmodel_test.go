package wrapper

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"ontario/internal/catalog"
	"ontario/internal/rdf"
	"ontario/internal/sparql"
)

// cannedSource is an ExternalSource returning fixed solutions whatever the
// seeds — the wrapper re-checks seed compatibility itself.
type cannedSource []sparql.Binding

func (c cannedSource) ExecuteStars(context.Context, []catalog.ExternalStar, []sparql.Binding) ([]sparql.Binding, error) {
	return append([]sparql.Binding(nil), c...), nil
}

// TestResponseMessageModel pins the paper's network model where it now
// lives for every wrapper — respEntry.stream: a per-answer request
// retrieving N solutions costs N simulated messages, a seed-block request
// costs exactly one (also when its response is empty), and a repeated
// request — a response-cache hit where the wrapper caches — is charged the
// same again, whether it is the same request value or an equal one built
// from scratch (the cache is content-addressed).
func TestResponseMessageModel(t *testing.T) {
	people := []sparql.Binding{
		{"s": rdf.NewIRI("http://ex/p1"), "name": rdf.NewLiteral("Ada")},
		{"s": rdf.NewIRI("http://ex/p2"), "name": rdf.NewLiteral("Grace")},
	}
	g := rdf.NewGraph()
	for _, p := range people {
		g.Add(rdf.Triple{S: p["s"], P: rdf.NewIRI("http://ex/name"), O: p["name"]})
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, resultsDoc)
	}))
	defer srv.Close()

	cache := NewResponseCache()
	rdfSim, sqlSim, extSim, remSim := NoDelaySim(1), NoDelaySim(2), NoDelaySim(3), NoDelaySim(4)
	rdfW := NewRDFWrapper("g", g, rdfSim, 0)
	rdfW.SetResponseCache(cache)
	sqlW := NewSQLWrapper(testSource(t), sqlSim, TranslationOptimized, 0)
	sqlW.SetResponseCache(cache)

	exStars := func() []*StarQuery { return []*StarQuery{personStar()} }
	sqlStars := func() []*StarQuery {
		return []*StarQuery{star(t, "p", "http://c/Person", `?p <http://p/name> ?n .`)}
	}
	exSeed := func(id string) []sparql.Binding {
		return []sparql.Binding{{"s": rdf.NewIRI("http://ex/" + id)}}
	}
	cases := []struct {
		name      string
		w         Wrapper
		messages  func() int
		stars     func() []*StarQuery
		n         int // solutions of the unseeded request
		hit, miss func() []sparql.Binding
		cached    bool
	}{
		{"rdf", rdfW, rdfSim.Messages, exStars, 2,
			func() []sparql.Binding { return exSeed("p1") }, func() []sparql.Binding { return exSeed("p9") }, true},
		{"sql", sqlW, sqlSim.Messages, sqlStars, 5,
			func() []sparql.Binding { return []sparql.Binding{personSeed("1")} },
			func() []sparql.Binding { return []sparql.Binding{personSeed("77")} }, true},
		{"external", NewExternalWrapper("x", cannedSource(people), extSim, 0), extSim.Messages, exStars, 2,
			func() []sparql.Binding { return exSeed("p1") }, func() []sparql.Binding { return exSeed("p9") }, false},
		{"remote", NewRemoteSPARQLWrapper("remote", srv.URL, NewHealthRegistry(fastResilience()), remSim, 0), remSim.Messages, exStars, 2,
			func() []sparql.Binding { return exSeed("p1") }, func() []sparql.Binding { return exSeed("p9") }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			type request struct {
				label             string
				req               *Request
				answers, wantMsgs int
			}
			// Every call builds the three requests from scratch: fresh star,
			// pattern and seed values with the same content.
			build := func() []request {
				return []request{
					{"per-answer", &Request{Stars: tc.stars()}, tc.n, tc.n},
					{"block", &Request{Stars: tc.stars(), Block: true, Seeds: seedsOf(tc.hit()...)}, 1, 1},
					{"empty block", &Request{Stars: tc.stars(), Block: true, Seeds: seedsOf(tc.miss()...)}, 0, 1},
				}
			}
			requests := build()
			stored := len(cache.entries)
			hits := cache.Stats().Hits
			for round, what := range []string{"first request", "repeat", "equal but distinct request"} {
				if round == 2 {
					requests = build()
				}
				for _, r := range requests {
					before := tc.messages()
					if got := collect(t, tc.w, r.req); len(got) != r.answers {
						t.Fatalf("%s, %s: %d answers, want %d", what, r.label, len(got), r.answers)
					}
					if msgs := tc.messages() - before; msgs != r.wantMsgs {
						t.Errorf("%s, %s: %d messages for %d answers, want %d", what, r.label, msgs, r.answers, r.wantMsgs)
					}
				}
				if !tc.cached {
					continue
				}
				if len(cache.entries) != stored+len(requests) {
					t.Fatalf("round %d: cache holds %d new entries, want %d (repeats must hit, not re-store)",
						round, len(cache.entries)-stored, len(requests))
				}
				if got, want := cache.Stats().Hits-hits, int64(round*len(requests)); got != want {
					t.Fatalf("round %d: %d cache hits, want %d", round, got, want)
				}
			}
		})
	}
}

package wrapper

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ontario/internal/catalog"
	"ontario/internal/engine"
	"ontario/internal/netsim"
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
// from scratch (the cache is content-addressed). Under a simulator that
// really sleeps longer than the flush interval per message, each
// per-answer row leaves in its own batch, and the first before the second
// sleep ends.
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
	// Every sample lies far above the flush interval (2 s ± 0.2 s), and
	// the tiny scale turns it into a real sleep of about 10 ms. The twin
	// draws the same stream, so it knows each sleep before it happens.
	slow := netsim.Profile{Name: "slow", Alpha: 100, Beta: 20}
	sleepSim, twin := netsim.NewSimulator(slow, 0.005, 5), netsim.NewSimulator(slow, 0.005, 5)
	sleepW := NewRDFWrapper("g-sleeping", g, sleepSim, 0)
	sleepW.SetResponseCache(cache)
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
		twin      *netsim.Simulator // set when the simulator sleeps
	}{
		{"rdf", rdfW, rdfSim.Messages, exStars, 2,
			func() []sparql.Binding { return exSeed("p1") }, func() []sparql.Binding { return exSeed("p9") }, true, nil},
		{"rdf, sleeping", sleepW, sleepSim.Messages, exStars, 2,
			func() []sparql.Binding { return exSeed("p1") }, func() []sparql.Binding { return exSeed("p9") }, true, twin},
		{"sql", sqlW, sqlSim.Messages, sqlStars, 5,
			func() []sparql.Binding { return []sparql.Binding{personSeed("1")} },
			func() []sparql.Binding { return []sparql.Binding{personSeed("77")} }, true, nil},
		{"external", NewExternalWrapper("x", cannedSource(people), extSim, 0), extSim.Messages, exStars, 2,
			func() []sparql.Binding { return exSeed("p1") }, func() []sparql.Binding { return exSeed("p9") }, false, nil},
		{"remote", NewRemoteSPARQLWrapper("remote", srv.URL, NewHealthRegistry(fastResilience()), remSim, 0), remSim.Messages, exStars, 2,
			func() []sparql.Binding { return exSeed("p1") }, func() []sparql.Binding { return exSeed("p9") }, false, nil},
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
					var sleeps []time.Duration
					for i := 0; tc.twin != nil && i < r.wantMsgs; i++ {
						sleeps = append(sleeps, tc.twin.Pause(tc.twin.Sample()))
					}
					start := time.Now()
					s, err := execute(context.Background(), tc.w, r.req)
					if err != nil {
						t.Fatal(err)
					}
					answers, batches := 0, 0
					var firstAt time.Duration
					for b := range s.Batches() {
						if batches++; batches == 1 {
							firstAt = time.Since(start)
						}
						answers += b.Len
					}
					if answers != r.answers {
						t.Fatalf("%s, %s: %d answers, want %d", what, r.label, answers, r.answers)
					}
					if msgs := tc.messages() - before; msgs != r.wantMsgs {
						t.Errorf("%s, %s: %d messages for %d answers, want %d", what, r.label, msgs, r.answers, r.wantMsgs)
					}
					if tc.twin == nil || r.label != "per-answer" {
						continue
					}
					if batches != r.answers {
						t.Errorf("%s, %s: %d rows in %d batches under sleeps above the flush interval, want one row each",
							what, r.label, answers, batches)
					}
					if r.answers > 1 && firstAt >= sleeps[0]+sleeps[1] {
						t.Errorf("%s, %s: the first answer arrived after %v, not before the second sleep ended (%v + %v)",
							what, r.label, firstAt, sleeps[0], sleeps[1])
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

	// A per-answer replay whose consumer gives up after the first batch
	// stops charging: never more than the rows it sent plus the one batch
	// it was about to send.
	t.Run("cancelled replay", func(t *testing.T) {
		g := rdf.NewGraph()
		for i := 0; i < 200; i++ {
			g.Add(rdf.Triple{S: rdf.NewIRI(fmt.Sprintf("http://ex/s%d", i)), P: rdf.NewIRI("http://ex/p"), O: rdf.IntLiteral(int64(i))})
		}
		const batch = 4
		sim := NoDelaySim(1)
		w := NewRDFWrapper("g", g, sim, batch)
		w.SetResponseCache(NewResponseCache())
		req := &Request{Stars: []*StarQuery{star(t, "s", "", "?s <http://ex/p> ?o .")}}
		if got := collect(t, w, req); len(got) != 200 {
			t.Fatalf("%d answers, want 200", len(got))
		}
		ctx, cancel := context.WithCancel(context.Background())
		before := sim.Messages()
		s, err := w.ExecuteColumnar(ctx, req, engine.NewSchema(req.Vars()), testDict)
		if err != nil {
			t.Fatal(err)
		}
		sent := (<-s.Batches()).Len
		cancel()
		for b := range s.Batches() { // what the replay sent before it saw the cancel
			sent += b.Len
		}
		if charged := sim.Messages() - before; charged > sent+batch {
			t.Fatalf("a cancelled replay sent %d rows and charged %d messages, want at most %d", sent, charged, sent+batch)
		}
	})
}

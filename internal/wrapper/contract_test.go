package wrapper

import (
	"context"
	"database/sql/driver"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"ontario/internal/catalog"
	"ontario/internal/netsim"
	"ontario/internal/rdf"
	"ontario/internal/sparql"
)

// countedSource is a canned custom source that counts its calls.
type countedSource struct {
	cannedSource
	calls atomic.Int32
}

func (c *countedSource) ExecuteStars(ctx context.Context, stars []catalog.ExternalStar, seeds []sparql.Binding) ([]sparql.Binding, error) {
	c.calls.Add(1)
	return c.cannedSource.ExecuteStars(ctx, stars, seeds)
}

// TestWrappersAnswerBeforeStreaming pins the Wrapper contract: every
// wrapper has its source's whole response in hand when ExecuteColumnar
// returns, and the stream only replays it across the simulated network.
// Under a sleeping Gamma simulator, before any batch is received, the
// source's work is done: the response cache has recorded its miss, the
// naive translation has issued a statement per star, the custom source
// has been called, the database queried, the endpoint hit. The naive
// translation returns without sleeping its intermediate rows' samples:
// its stream charges them, exactly as many as crossed.
func TestWrappersAnswerBeforeStreaming(t *testing.T) {
	people := []sparql.Binding{
		{"s": rdf.NewIRI("http://ex/p1"), "name": rdf.NewLiteral("Ada")},
		{"s": rdf.NewIRI("http://ex/p2"), "name": rdf.NewLiteral("Grace")},
	}
	g := rdf.NewGraph()
	for _, p := range people {
		g.Add(rdf.Triple{S: p["s"], P: rdf.NewIRI("http://ex/name"), O: p["name"]})
	}
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		fmt.Fprint(w, resultsDoc)
	}))
	defer srv.Close()
	conn := &stubConn{cols: []string{"c0", "c1"}, rows: [][]driver.Value{{int64(1), "Ada"}}}
	custom := &countedSource{cannedSource: people}

	seed := int64(0)
	sleeping := func() *netsim.Simulator {
		seed++
		return netsim.NewSimulator(netsim.Gamma2, 1, seed)
	}
	missed := func(w interface{ SetResponseCache(*ResponseCache) }) func() bool {
		c := NewResponseCache()
		w.SetResponseCache(c)
		return func() bool { return c.Stats().Misses == 1 }
	}
	rdfW := NewRDFWrapper("g", g, sleeping(), 0)
	sqlW := NewSQLWrapper(testSource(t), sleeping(), TranslationOptimized, 0)
	naiveSim := sleeping()
	naiveTwin := netsim.NewSimulator(netsim.Gamma2, 1, seed)
	naiveW := NewSQLWrapper(testSource(t), naiveSim, TranslationNaive, 0)
	exStars := []*StarQuery{personStar()}
	cases := []struct {
		name string
		w    Wrapper
		req  *Request
		done func() bool // whether the source has done the request's work
		// after, when set, checks the case once its stream is drained,
		// given how long ExecuteColumnar took.
		after func(t *testing.T, took time.Duration)
	}{
		{"rdf", rdfW, &Request{Stars: exStars}, missed(rdfW), nil},
		{"sql", sqlW, &Request{Stars: []*StarQuery{star(t, "p", "http://c/Person", `?p <http://p/name> ?n .`)}}, missed(sqlW), nil},
		{"sql, naive", naiveW, &Request{Stars: []*StarQuery{
			star(t, "p", "http://c/Person", `?p <http://p/name> ?n . ?p <http://p/friend> ?f .`),
			star(t, "f", "http://c/Person", `?f <http://p/name> ?fn .`),
		}}, func() bool { return len(naiveW.LastSQL()) == 2 }, func(t *testing.T, took time.Duration) {
			// The intermediate rows: four friendships, then five people.
			// A call that slept their samples took at least their sum.
			if sum := naiveTwin.SampleN(4 + 5); took >= sum {
				t.Errorf("ExecuteColumnar took %v, as long as its rows' %v of samples", took, sum)
			}
			if naiveSim.Messages() != naiveTwin.Messages() || naiveSim.SimulatedDelay() != naiveTwin.SimulatedDelay() {
				t.Errorf("charged %d messages, %v; want %d, %v", naiveSim.Messages(), naiveSim.SimulatedDelay(),
					naiveTwin.Messages(), naiveTwin.SimulatedDelay())
			}
		}},
		{"custom", NewExternalWrapper("x", custom, sleeping(), 0), &Request{Stars: exStars},
			func() bool { return custom.calls.Load() == 1 }, nil},
		{"database", NewDBSQLWrapper(personSQLSource(t, conn), NewHealthRegistry(fastResilience()), sleeping(), 0),
			&Request{Stars: []*StarQuery{personSQLStar()}}, func() bool { return len(conn.Queries()) == 1 }, nil},
		{"remote", NewRemoteSPARQLWrapper("remote", srv.URL, NewHealthRegistry(fastResilience()), sleeping(), 0),
			&Request{Stars: exStars}, func() bool { return hits.Load() == 1 }, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			start := time.Now()
			s, err := execute(context.Background(), tc.w, tc.req)
			took := time.Since(start)
			if err != nil {
				t.Fatal(err)
			}
			if !tc.done() {
				t.Error("the source has not answered before the first batch")
			}
			if sols := drain(t, s); len(sols) == 0 {
				t.Error("no answers")
			}
			if tc.after != nil {
				tc.after(t, took)
			}
		})
	}
}

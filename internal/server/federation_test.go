package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"ontario"
	"ontario/lake"
)

const (
	fedPerson  = "http://fed/Person"
	fedOrg     = "http://fed/Org"
	fedWorksAt = "http://fed/worksAt"
	fedOrgName = "http://fed/orgName"
	rdfType    = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
	fedQuery   = `SELECT ?p ?o ?n WHERE { ?p <` + fedWorksAt + `> ?o . ?o <` + fedOrgName + `> ?n }`
)

// graphServer serves an in-memory graph through a server node.
func graphServer(t *testing.T, sourceID string, triples []lake.Triple) *Server {
	t.Helper()
	l, err := lake.NewBuilder().AddGraph(sourceID, triples).Build()
	if err != nil {
		t.Fatal(err)
	}
	return New(ontario.New(l), Config{})
}

// TestFederationScenarios runs a live federation: a front engine joins
// two server nodes over real HTTP through the remote SPARQL wrapper while
// the orgs node is healthy, slow, flaky (every other request is a 503) or
// down. Each scenario runs three queries on a fresh front engine. A
// healthy, slow or flaky backend answers completely — retries mask the
// flaky one's 503s, and the measured latency of the slow one is at least
// the injected delay. A dead backend opens the circuit breaker and the
// last query fails fast instead of retrying.
func TestFederationScenarios(t *testing.T) {
	const people, orgs, queries = 12, 4, 3
	const slowDelay = 5 * time.Millisecond
	var peopleTriples, orgTriples []lake.Triple
	for i := 0; i < people; i++ {
		p := lake.IRI(fmt.Sprintf("http://fed/p%d", i))
		peopleTriples = append(peopleTriples,
			lake.Triple{S: p, P: lake.IRI(rdfType), O: lake.IRI(fedPerson)},
			lake.Triple{S: p, P: lake.IRI(fedWorksAt), O: lake.IRI(fmt.Sprintf("http://fed/org%d", i%orgs))})
	}
	for j := 0; j < orgs; j++ {
		o := lake.IRI(fmt.Sprintf("http://fed/org%d", j))
		orgTriples = append(orgTriples,
			lake.Triple{S: o, P: lake.IRI(rdfType), O: lake.IRI(fedOrg)},
			lake.Triple{S: o, P: lake.IRI(fedOrgName), O: lake.Literal(fmt.Sprintf("Org %d", j))})
	}
	peopleTS := httptest.NewServer(graphServer(t, "people-local", peopleTriples))
	t.Cleanup(peopleTS.Close)
	orgsSrv := graphServer(t, "orgs-local", orgTriples)

	healthyTS := httptest.NewServer(orgsSrv)
	t.Cleanup(healthyTS.Close)
	slowTS := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(slowDelay)
		orgsSrv.ServeHTTP(w, r)
	}))
	t.Cleanup(slowTS.Close)
	var flakyN atomic.Int64
	flakyTS := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if flakyN.Add(1)%2 == 1 {
			http.Error(w, "injected outage", http.StatusServiceUnavailable)
			return
		}
		orgsSrv.ServeHTTP(w, r)
	}))
	t.Cleanup(flakyTS.Close)
	downTS := httptest.NewServer(orgsSrv)
	downTS.Close() // connection refused from here on

	type outcome struct {
		answers     int
		err         error
		first, last time.Duration
		health      ontario.SourceHealth // the orgs source's
	}
	run := func(orgsURL string) outcome {
		l, err := lake.NewBuilder().
			AddSPARQLEndpoint("people", peopleTS.URL+"/sparql", lake.Molecule{
				Class:      fedPerson,
				Predicates: []lake.Predicate{{IRI: fedWorksAt, LinkedClass: fedOrg}},
			}).
			AddSPARQLEndpoint("orgs", orgsURL+"/sparql", lake.Molecule{
				Class:      fedOrg,
				Predicates: []lake.Predicate{{IRI: fedOrgName}},
			}).
			Build()
		if err != nil {
			t.Fatal(err)
		}
		eng := ontario.New(l, ontario.WithResilience(ontario.Resilience{
			Timeout:          5 * time.Second,
			MaxRetries:       3,
			RetryBase:        2 * time.Millisecond,
			RetryMax:         20 * time.Millisecond,
			BreakerThreshold: 3,
			BreakerCooldown:  time.Second,
		}))
		var out outcome
		for q := 0; q < queries; q++ {
			start := time.Now()
			res, err := eng.Query(context.Background(), fedQuery)
			if err == nil {
				var sols []ontario.Binding
				sols, err = res.Collect()
				out.answers += len(sols)
			}
			if q == 0 {
				out.first = time.Since(start)
			}
			out.last = time.Since(start)
			if err != nil && out.err == nil {
				out.err = err
			}
		}
		for _, h := range eng.SourceHealth() {
			if h.Source == "orgs" {
				out.health = h
			}
		}
		return out
	}
	const want = people * queries

	if o := run(healthyTS.URL); o.err != nil || o.answers != want || o.health.Retries != 0 || o.health.State != "closed" {
		t.Errorf("healthy: answers=%d err=%v retries=%d breaker=%s, want %d answers, no error, 0/closed",
			o.answers, o.err, o.health.Retries, o.health.State, want)
	}
	if o := run(slowTS.URL); o.err != nil || o.answers != want || o.health.Latency < slowDelay {
		t.Errorf("slow: answers=%d err=%v measured latency=%v, want %d answers, no error, latency >= %v",
			o.answers, o.err, o.health.Latency, want, slowDelay)
	}
	if o := run(flakyTS.URL); o.err != nil || o.answers != want || o.health.Retries == 0 || o.health.Failures == 0 {
		t.Errorf("flaky: answers=%d err=%v retries=%d failures=%d, want %d answers and no error via retries",
			o.answers, o.err, o.health.Retries, o.health.Failures, want)
	}
	o := run(downTS.URL)
	if o.err == nil || o.answers != 0 || o.health.State != "open" {
		t.Errorf("down: answers=%d err=%v breaker=%s, want a failure with 0 answers and an open breaker",
			o.answers, o.err, o.health.State)
	}
	// Under an open breaker the last query fails fast: no per-attempt
	// dials, no backoff sleeps.
	if o.last >= o.first && o.last > 50*time.Millisecond {
		t.Errorf("down: last query took %v (first %v), want a fast fail under the open breaker", o.last, o.first)
	}
}

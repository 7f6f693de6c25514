package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"

	"ontario"
)

// answerSet is an order-independent fingerprint of a result: the number of
// solutions and the wrapping sum of their row hashes, so two executions
// agree exactly when they returned the same multiset.
type answerSet struct {
	count int
	hash  uint64
}

// rowHash hashes one solution from its canonical rendering: variables in
// sorted order, each term as kind, value, datatype and language.
func rowHash(vars []string, term func(v string) (kind, value, datatype, lang string, bound bool)) uint64 {
	h := fnv.New64a()
	for _, v := range vars {
		kind, value, datatype, lang, ok := term(v)
		if !ok {
			continue
		}
		fmt.Fprintf(h, "%s\x00%s\x00%s\x00%s\x00%s\x01", v, kind, value, datatype, lang)
	}
	return h.Sum64()
}

type jsonTerm struct {
	Type     string `json:"type"`
	Value    string `json:"value"`
	Datatype string `json:"datatype"`
	Lang     string `json:"xml:lang"`
}

type resultsDoc struct {
	Head struct {
		Vars []string `json:"vars"`
	} `json:"head"`
	Results struct {
		Bindings []map[string]jsonTerm `json:"bindings"`
	} `json:"results"`
}

// measuredAnswers runs the op through the measured configuration (HTTP,
// the op's own mode and network) and fingerprints the whole document.
func (in *instance) measuredAnswers(o op) (answerSet, error) {
	resp, err := in.hc.Post(in.url(o, false), "application/sparql-query", strings.NewReader(o.text))
	if err != nil {
		return answerSet{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return answerSet{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return answerSet{}, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	if e := resp.Trailer.Get("X-Ontario-Error"); e != "" {
		return answerSet{}, fmt.Errorf("trailer: %s", e)
	}
	var doc resultsDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		return answerSet{}, fmt.Errorf("results document: %w", err)
	}
	vars := append([]string(nil), doc.Head.Vars...)
	sort.Strings(vars)
	var as answerSet
	for _, b := range doc.Results.Bindings {
		as.count++
		as.hash += rowHash(vars, func(v string) (string, string, string, string, bool) {
			t, ok := b[v]
			return t.Type, t.Value, t.Datatype, t.Lang, ok
		})
	}
	return as, nil
}

var kindNames = map[ontario.TermKind]string{
	ontario.KindIRI: "uri", ontario.KindLiteral: "literal", ontario.KindBlank: "bnode",
}

// oracleAnswers evaluates the text in-process under the unaware plan with
// No Delay: every join and filter at the engine, nothing pushed down, no
// cluster, no HTTP — the configuration least like the measured ones.
func (in *instance) oracleAnswers(o op) (answerSet, error) {
	res, err := in.eng.Query(context.Background(), o.text,
		ontario.WithUnawarePlan(), ontario.WithNetworkScale(0))
	if err != nil {
		return answerSet{}, err
	}
	defer res.Close()
	vars := res.Vars()
	sort.Strings(vars)
	var as answerSet
	for res.Next() {
		b := res.Binding()
		as.count++
		as.hash += rowHash(vars, func(v string) (string, string, string, string, bool) {
			t, ok := b[v]
			if !ok {
				return "", "", "", "", false
			}
			datatype, lang := t.Datatype, t.Lang
			if t.Kind != ontario.KindLiteral {
				datatype, lang = "", ""
			}
			return kindNames[t.Kind], t.Value, datatype, lang, true
		})
	}
	return as, res.Err()
}

// verify checks ops against the oracle, outside the timed window. It
// returns the verified answer count per op key and one message per
// mismatch.
func (in *instance) verify(ops []op) (want map[string]int, failures []string) {
	want = map[string]int{}
	var mu sync.Mutex
	closedLoop(len(ops), func(_, i int) {
		o := ops[i]
		got, err := in.measuredAnswers(o)
		var exp answerSet
		if err == nil {
			exp, err = in.oracleAnswers(o)
		}
		mu.Lock()
		defer mu.Unlock()
		switch {
		case err != nil:
			failures = append(failures, fmt.Sprintf("%s: %v", o.class, err))
		case got != exp:
			failures = append(failures, fmt.Sprintf("%s: measured %d answers (hash %x), oracle %d (hash %x)",
				o.class, got.count, got.hash, exp.count, exp.hash))
		default:
			want[o.key()] = exp.count
		}
	})
	sort.Strings(failures)
	return want, failures
}

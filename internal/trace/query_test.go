package trace

import (
	"context"
	"strings"
	"testing"
)

func TestNewQueryTraceIdentity(t *testing.T) {
	qt := NewQueryTrace()
	if !isHex(qt.TraceID, 32) {
		t.Fatalf("trace id %q not 32 hex chars", qt.TraceID)
	}
	if !isHex(qt.QueryID, 16) {
		t.Fatalf("query id %q not 16 hex chars", qt.QueryID)
	}
	if qt.ParentID != "" {
		t.Fatalf("fresh trace has parent %q", qt.ParentID)
	}
	hdr := qt.Traceparent()
	if want := "00-" + qt.TraceID + "-" + qt.QueryID + "-01"; hdr != want {
		t.Fatalf("traceparent = %q, want %q", hdr, want)
	}
}

func TestParseTraceparentAdoptsCaller(t *testing.T) {
	up := NewQueryTrace()
	qt, ok := ParseTraceparent(up.Traceparent())
	if !ok {
		t.Fatal("valid traceparent rejected")
	}
	if qt.TraceID != up.TraceID {
		t.Fatalf("trace id not adopted: %q vs %q", qt.TraceID, up.TraceID)
	}
	if qt.ParentID != up.QueryID {
		t.Fatalf("caller span %q should become parent, got %q", up.QueryID, qt.ParentID)
	}
	if qt.QueryID == up.QueryID {
		t.Fatal("child must mint its own span id")
	}
}

func TestParseTraceparentRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"00-abc-def-01",
		"01-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",  // unknown version
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331",     // missing flags
		"00-00000000000000000000000000000000-b7ad6b7169203331-01",  // all-zero trace
		"00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01",  // all-zero span
		"00-0AF7651916CD43DD8448EB211C80319C-b7ad6b7169203331-01",  // uppercase hex
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b716920333-01",   // short span
		"00-0af7651916cd43dd8448eb211c80319cz-b7ad6b7169203331-01", // non-hex
	}
	for _, h := range bad {
		if _, ok := ParseTraceparent(h); ok {
			t.Errorf("ParseTraceparent(%q) accepted, want reject", h)
		}
	}
}

func TestQueryTraceContextRoundTrip(t *testing.T) {
	ctx := context.Background()
	if FromContext(ctx) != nil {
		t.Fatal("bare context should have no query trace")
	}
	qt := NewQueryTrace()
	if got := FromContext(WithQuery(ctx, qt)); got != qt {
		t.Fatal("query trace lost in context round trip")
	}
}

// TestQueryTraceRegisterAndRemoteSpans: registered remote spans come back
// in order, as copies.
func TestQueryTraceRegisterAndRemoteSpans(t *testing.T) {
	qt := NewQueryTrace()
	qt.AddRemoteSpan(RemoteSpan{Source: "peer-b", QueryID: "feedfacecafebeef", Attempts: 2})
	spans := qt.RemoteSpans()
	if len(spans) != 1 || spans[0].Source != "peer-b" || spans[0].Attempts != 2 {
		t.Fatalf("remote spans = %+v", spans)
	}
	// The returned slices must be copies: mutating them cannot corrupt the
	// trace that the server is about to serialize.
	spans[0].Source = "mutated"
	if qt.RemoteSpans()[0].Source != "peer-b" {
		t.Fatal("RemoteSpans returned aliased storage")
	}
}

func TestEscapeLabel(t *testing.T) {
	cases := map[string]string{
		"plain":             "plain",
		`quo"te`:            `quo\"te`,
		"back\\slash":       `back\\slash`,
		"new\nline":         `new\nline`,
		`all"three\` + "\n": `all\"three\\\n`,
	}
	for in, want := range cases {
		if got := EscapeLabel(in); got != want {
			t.Errorf("EscapeLabel(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestObserveValueCustomBuckets(t *testing.T) {
	m := NewMetrics()
	bounds := []float64{0.5, 1, 2}
	m.ObserveValue("card_err", "op", `svc"x`, 0.7, bounds)
	m.ObserveValue("card_err", "op", `svc"x`, 3.0, bounds)
	var sb strings.Builder
	m.WritePrometheus(&sb)
	out := sb.String()
	if !strings.Contains(out, `le="0.5"`) || !strings.Contains(out, `le="2"`) {
		t.Fatalf("custom bucket bounds missing from exposition:\n%s", out)
	}
	if !strings.Contains(out, `op="svc\"x"`) {
		t.Fatalf("label value not escaped in exposition:\n%s", out)
	}
	if strings.Contains(out, "op=\"svc\"x\"") {
		t.Fatalf("raw quote leaked into label value:\n%s", out)
	}
	if !strings.Contains(out, "card_err_count") || !strings.Contains(out, "card_err_sum") {
		t.Fatalf("histogram summary series missing:\n%s", out)
	}
}

package rdb

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"ontario/internal/sql"
)

// buildPair creates two databases with identical content where one carries
// every secondary index and the other none: any query must return the same
// multiset of rows on both (access-path independence).
func buildPair(t testing.TB, seed int64, rows int) (indexed, plain *Database) {
	t.Helper()
	mk := func(withIdx bool) *Database {
		db := NewDatabase("p")
		left, err := db.CreateTable(&Schema{
			Name: "l",
			Columns: []Column{
				{Name: "id", Type: TypeInt, NotNull: true},
				{Name: "k", Type: TypeInt},
				{Name: "s", Type: TypeString},
				{Name: "f", Type: TypeFloat},
			},
			PrimaryKey: "id",
		})
		if err != nil {
			t.Fatal(err)
		}
		right, err := db.CreateTable(&Schema{
			Name: "r",
			Columns: []Column{
				{Name: "id", Type: TypeInt, NotNull: true},
				{Name: "k", Type: TypeInt},
				{Name: "v", Type: TypeString},
			},
			PrimaryKey: "id",
		})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < rows; i++ {
			sv := StringValue(fmt.Sprintf("s%02d", rng.Intn(40)))
			if rng.Intn(10) == 0 {
				sv = NullValue(TypeString)
			}
			if err := left.Insert(Row{
				IntValue(int64(i)),
				IntValue(int64(rng.Intn(25))),
				sv,
				FloatValue(rng.Float64() * 100),
			}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < rows/2; i++ {
			if err := right.Insert(Row{
				IntValue(int64(i)),
				IntValue(int64(rng.Intn(25))),
				StringValue(fmt.Sprintf("v%d", rng.Intn(10))),
			}); err != nil {
				t.Fatal(err)
			}
		}
		if withIdx {
			for _, spec := range []IndexSpec{
				{Column: "k", Kind: IndexHash},
				{Column: "f", Kind: IndexBTree},
				{Column: "s", Kind: IndexHash},
			} {
				if err := left.CreateIndex(spec); err != nil {
					t.Fatal(err)
				}
			}
			if err := right.CreateIndex(IndexSpec{Column: "k", Kind: IndexHash}); err != nil {
				t.Fatal(err)
			}
		}
		return db
	}
	return mk(true), mk(false)
}

func rowsKey(res *Result) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		var b strings.Builder
		for _, v := range r {
			b.WriteString(v.String())
			b.WriteByte('|')
		}
		out[i] = b.String()
	}
	sort.Strings(out)
	return out
}

// queryFromSpec derives a deterministic query from fuzz inputs.
func queryFromSpec(kSel, fSel, join, order uint8) string {
	var b strings.Builder
	if join%2 == 0 {
		b.WriteString("SELECT l.id, l.k, l.s FROM l")
	} else {
		b.WriteString("SELECT l.id, r.v FROM l JOIN r ON l.k = r.k")
	}
	var conds []string
	switch kSel % 4 {
	case 0:
		conds = append(conds, fmt.Sprintf("l.k = %d", kSel%25))
	case 1:
		conds = append(conds, fmt.Sprintf("l.k >= %d", kSel%25))
	case 2:
		conds = append(conds, fmt.Sprintf("l.s = 's%02d'", kSel%40))
	}
	switch fSel % 3 {
	case 0:
		conds = append(conds, fmt.Sprintf("l.f < %d", 10+int(fSel)%90))
	case 1:
		conds = append(conds, "l.s IS NOT NULL")
	}
	if len(conds) > 0 {
		b.WriteString(" WHERE " + strings.Join(conds, " AND "))
	}
	if order%2 == 0 {
		b.WriteString(" ORDER BY l.id")
	}
	return b.String()
}

// TestQuickAccessPathIndependence: any derived query returns the same
// multiset of rows with and without indexes.
func TestQuickAccessPathIndependence(t *testing.T) {
	indexed, plain := buildPair(t, 99, 400)
	f := func(kSel, fSel, join, order uint8) bool {
		q := queryFromSpec(kSel, fSel, join, order)
		ri, err := indexed.Query(q)
		if err != nil {
			t.Logf("query %q failed: %v", q, err)
			return false
		}
		rp, err := plain.Query(q)
		if err != nil {
			return false
		}
		a, b := rowsKey(ri), rowsKey(rp)
		if len(a) != len(b) {
			t.Logf("query %q: %d vs %d rows", q, len(a), len(b))
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				t.Logf("query %q: row multiset differs", q)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickOrderByIsSorted: ORDER BY output is sorted regardless of access
// path.
func TestQuickOrderByIsSorted(t *testing.T) {
	indexed, _ := buildPair(t, 7, 300)
	f := func(kSel uint8, desc bool) bool {
		dir := ""
		if desc {
			dir = " DESC"
		}
		q := fmt.Sprintf("SELECT id, f FROM l WHERE k >= %d ORDER BY f%s", kSel%25, dir)
		res, err := indexed.Query(q)
		if err != nil {
			return false
		}
		for i := 1; i < len(res.Rows); i++ {
			c, ok := res.Rows[i-1][1].Compare(res.Rows[i][1])
			if !ok {
				continue
			}
			if !desc && c > 0 || desc && c < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickLikeMatchesContains: for wildcard-free needles wrapped in '%',
// LIKE agrees with strings.Contains.
func TestQuickLikeMatchesContains(t *testing.T) {
	f := func(hay string, needle uint8) bool {
		n := fmt.Sprintf("s%d", needle%30)
		return likeMatcher("%"+n+"%")(hay) == strings.Contains(hay, n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestLikeMatchPatterns(t *testing.T) {
	for _, tc := range []struct {
		pattern, s string
		want       bool
	}{
		{"abc", "abc", true},
		{"abc", "abx", false},
		{"a%", "abc", true},
		{"%c", "abc", true},
		{"%b%", "abc", true},
		{"a_c", "abc", true},
		{"a_c", "ac", false},
		{"%", "", true},
		{"", "", true},
		{"", "x", false},
		{"%%", "anything", true},
		{"a%b%c", "aXXbYYc", true},
		{"a%b%c", "acb", false},
		{"_", "x", true},
		{"_", "", false},
	} {
		if got := likeMatcher(tc.pattern)(tc.s); got != tc.want {
			t.Errorf("likeMatcher(%q)(%q) = %v, want %v", tc.pattern, tc.s, got, tc.want)
		}
	}
}

// indexKinds are the physical designs the multi-point tests sweep; the
// primary key is indexed under every one of them.
var indexKinds = []string{"none", "hash", "btree"}

// buildPointTable fills t(id PK, k, s, f) from the seed — k and s carry
// NULLs and repeats — and indexes k and s with the given kind.
func buildPointTable(t testing.TB, seed int64, rows int, kind string) *Database {
	t.Helper()
	db := NewDatabase("pt")
	tab, err := db.CreateTable(&Schema{
		Name: "t",
		Columns: []Column{
			{Name: "id", Type: TypeInt, NotNull: true},
			{Name: "k", Type: TypeInt},
			{Name: "s", Type: TypeString},
			{Name: "f", Type: TypeFloat},
		},
		PrimaryKey: "id",
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < rows; i++ {
		k, s := IntValue(int64(rng.Intn(12))), StringValue(fmt.Sprintf("s%d", rng.Intn(8)))
		if rng.Intn(8) == 0 {
			k = NullValue(TypeInt)
		}
		if rng.Intn(8) == 0 {
			s = NullValue(TypeString)
		}
		if err := tab.Insert(Row{IntValue(int64(i)), k, s, FloatValue(rng.Float64() * 100)}); err != nil {
			t.Fatal(err)
		}
	}
	if kind != "none" {
		ik := map[string]IndexKind{"hash": IndexHash, "btree": IndexBTree}[kind]
		for _, col := range []string{"k", "s"} {
			if err := tab.CreateIndex(IndexSpec{Column: col, Kind: ik}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db
}

// pointPredicate generates a multi-point predicate over column col of the
// point table: an IN list (duplicates, NULL, literals of the wrong type,
// lists that coerce to nothing, lists covering every value) or an OR of
// per-seed conjunctions (or reports true), optionally followed by a
// residual conjunct.
func pointPredicate(rng *rand.Rand, col string, rows int) (pred string, or bool) {
	lit := func(c string) string {
		switch rng.Intn(10) {
		case 0:
			return "NULL"
		case 1: // wrong type for an INTEGER column, right type for VARCHAR
			return "'abc'"
		case 2: // wrong type for VARCHAR, truncates on INTEGER
			return "3.7"
		case 3:
			return "TRUE"
		}
		switch c {
		case "id":
			return fmt.Sprint(rng.Intn(rows + 5))
		case "k":
			return fmt.Sprint(rng.Intn(14))
		default:
			return fmt.Sprintf("'s%d'", rng.Intn(9))
		}
	}
	switch shape := rng.Intn(6); shape {
	case 0: // coerces to the empty list on the integer columns
		pred = col + " IN ('x', TRUE, 'y')"
	case 1: // every value of the column
		var all []string
		for i := 0; i < 14; i++ {
			all = append(all, map[string]string{"id": fmt.Sprint(i * rows / 14), "k": fmt.Sprint(i), "s": fmt.Sprintf("'s%d'", i)}[col])
		}
		pred = col + " IN (" + strings.Join(all, ", ") + ")"
	case 2: // OR of conjunctions pinning col and a second column
		var ds []string
		for i := 0; i <= 1+rng.Intn(4); i++ {
			ds = append(ds, fmt.Sprintf("(%s = %s AND f < %d)", col, lit(col), 20+rng.Intn(80)))
		}
		pred, or = "("+strings.Join(ds, " OR ")+")", true
	case 3: // OR of bare equalities
		var ds []string
		for i := 0; i <= 1+rng.Intn(4); i++ {
			ds = append(ds, fmt.Sprintf("%s = %s", col, lit(col)))
		}
		pred, or = "("+strings.Join(ds, " OR ")+")", true
	default:
		var lits []string
		for i := 0; i <= rng.Intn(12); i++ {
			l := lit(col)
			lits = append(lits, l)
			if rng.Intn(4) == 0 {
				lits = append(lits, l)
			}
		}
		pred = col + " IN (" + strings.Join(lits, ", ") + ")"
	}
	if rng.Intn(3) == 0 {
		pred += " AND f < 60"
	}
	return pred, or
}

// TestMultiPointLookupMatchesScan: under every index kind a multi-point
// predicate returns exactly the rows, in exactly the order, of the
// index-less table, and the plan names IndexLookup iff the predicate is an
// IN list on an indexed column (an OR stays a filter).
func TestMultiPointLookupMatchesScan(t *testing.T) {
	const rows = 300
	for seed := int64(1); seed <= 3; seed++ {
		dbs := map[string]*Database{}
		for _, kind := range indexKinds {
			dbs[kind] = buildPointTable(t, seed, rows, kind)
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 120; i++ {
			col := []string{"id", "k", "s"}[rng.Intn(3)]
			pred, or := pointPredicate(rng, col, rows)
			q := "SELECT id, k, s FROM t WHERE " + pred
			want, err := dbs["none"].Query(q)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			for _, kind := range indexKinds {
				got, err := dbs[kind].Query(q)
				if err != nil {
					t.Fatalf("%s [%s]: %v", q, kind, err)
				}
				if len(got.Rows) != len(want.Rows) {
					t.Fatalf("%s [%s]: %d rows, scan returns %d\n%s", q, kind, len(got.Rows), len(want.Rows), got.Plan)
				}
				for j := range want.Rows {
					if fmt.Sprint(got.Rows[j]) != fmt.Sprint(want.Rows[j]) {
						t.Fatalf("%s [%s]: row %d is %v, scan returns %v", q, kind, j, got.Rows[j], want.Rows[j])
					}
				}
				indexed := !or && (col == "id" || kind != "none")
				if uses := strings.Contains(got.Plan.String(), "IndexLookup"); uses != indexed {
					t.Fatalf("%s [%s]: IndexLookup in plan = %v, want %v\n%s", q, kind, uses, indexed, got.Plan)
				}
			}
		}
	}
}

// TestNotInStaysFilter: NOT IN is never index-served, excludes NULLs and
// ignores literals that do not coerce, whatever the physical design.
func TestNotInStaysFilter(t *testing.T) {
	for _, kind := range indexKinds {
		db := buildPointTable(t, 5, 200, kind)
		res, err := db.Query("SELECT id, k FROM t WHERE k NOT IN (1, 1, 'abc', NULL, 4)")
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(res.Plan.String(), "IndexLookup") {
			t.Errorf("[%s] NOT IN used an index:\n%s", kind, res.Plan)
		}
		all, _ := db.Query("SELECT id, k FROM t")
		want := 0
		for _, r := range all.Rows {
			if !r[1].Null && r[1].Int != 1 && r[1].Int != 4 {
				want++
			}
		}
		if len(res.Rows) != want {
			t.Errorf("[%s] NOT IN returned %d rows, want %d", kind, len(res.Rows), want)
		}
	}
}

// TestIndexNLJoinProbesRawRelation: an unfiltered base relation is never
// copied — its tuples are the table's own rows and the index nested-loop
// join probes the table itself — and the join returns what the index-less
// hash join returns.
func TestIndexNLJoinProbesRawRelation(t *testing.T) {
	indexed, plain := buildPair(t, 11, 400)
	sel, err := sql.Parse("SELECT r.id FROM r")
	if err != nil {
		t.Fatal(err)
	}
	ex, err := newExecution(indexed, sel)
	if err != nil {
		t.Fatal(err)
	}
	rs := ex.scanRelation(0, nil)
	if rs.raw == nil || rs.len() != 200 || &rs.ords[0] != &rs.raw.ords[0] {
		t.Fatalf("unfiltered relation was copied: raw=%v tuples=%d", rs.raw != nil, rs.len())
	}

	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 40; i++ {
		var ids []string
		for j := 0; j <= rng.Intn(20); j++ {
			ids = append(ids, fmt.Sprint(rng.Intn(420)))
		}
		q := "SELECT l.id, r.id, r.v FROM l JOIN r ON l.k = r.k WHERE l.id IN (" + strings.Join(ids, ", ") + ")"
		ri, err := indexed.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		rp, err := plain.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if plan := ri.Plan.String(); !strings.Contains(plan, "IndexNLJoin") || !strings.Contains(plan, "SeqScan(r)") {
			t.Fatalf("%s: expected IndexNLJoin over the raw relation:\n%s", q, plan)
		}
		if strings.Contains(rp.Plan.String(), "IndexNLJoin") {
			t.Fatalf("%s: index-less join used an index:\n%s", q, rp.Plan)
		}
		a, b := rowsKey(ri), rowsKey(rp)
		if strings.Join(a, "\n") != strings.Join(b, "\n") {
			t.Fatalf("%s: IndexNLJoin returned %d rows, hash join %d, or different rows", q, len(a), len(b))
		}
	}
}

// TestRangeBoundsMerge: lower and upper bounds on one tree-indexed column
// become a single range lookup with nothing left to filter.
func TestRangeBoundsMerge(t *testing.T) {
	indexed, plain := buildPair(t, 3, 300)
	for _, where := range []string{
		"f >= 20 AND f <= 40",
		"f > 20 AND f >= 30 AND f < 70 AND f <= 50",
		"f <= 40 AND f < 40 AND f > 10",
		"f > 60 AND f < 50",
	} {
		q := "SELECT id FROM l WHERE " + where
		ri, err := indexed.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		rp, err := plain.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if plan := ri.Plan.String(); !strings.Contains(plan, "IndexRangeScan") || strings.Contains(plan, "Filter") {
			t.Errorf("%s: bounds not merged into one range scan:\n%s", where, plan)
		}
		if a, b := rowsKey(ri), rowsKey(rp); strings.Join(a, "\n") != strings.Join(b, "\n") {
			t.Errorf("%s: range scan returned %d rows, filter %d, or different rows", where, len(a), len(b))
		}
	}
}

// likeTable returns a database whose table t(id PK, s) holds the strings.
func likeTable(t *testing.T, strs ...string) *Database {
	t.Helper()
	db := NewDatabase("like")
	tab, err := db.CreateTable(&Schema{Name: "t", PrimaryKey: "id", Columns: []Column{
		{Name: "id", Type: TypeInt, NotNull: true}, {Name: "s", Type: TypeString}}})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range strs {
		if err := tab.Insert(Row{IntValue(int64(i)), StringValue(s)}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestLikeUnderscoreMatchesOneRune: '_' matches one character — a rune,
// however many bytes it takes — not one byte.
func TestLikeUnderscoreMatchesOneRune(t *testing.T) {
	db := likeTable(t, "é", "xéy", "ab", "x")
	for _, tc := range []struct {
		pattern string
		want    []string
	}{
		{"_", []string{"é", "x"}},
		{"x_y", []string{"xéy"}},
		{"__", []string{"ab"}},
		{"_é_", []string{"xéy"}},
		{"%_y", []string{"xéy"}},
	} {
		res, err := db.Query("SELECT s FROM t WHERE s LIKE '" + tc.pattern + "'")
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, r := range res.Rows {
			got = append(got, r[0].Str)
		}
		if strings.Join(got, ",") != strings.Join(tc.want, ",") {
			t.Errorf("LIKE %q matched %q, want %q", tc.pattern, got, tc.want)
		}
	}
}

// TestLikeManyWildcardsIsPolynomial: a pattern of many '%' runs against a
// subject that almost matches it takes O(len(pattern)·len(subject)), not
// an exponential number of backtracking steps.
func TestLikeManyWildcardsIsPolynomial(t *testing.T) {
	db := likeTable(t, strings.Repeat("a", 200))
	type outcome struct {
		rows int
		err  error
		took time.Duration
	}
	done := make(chan outcome, 1)
	go func() {
		start := time.Now()
		res, err := db.Query("SELECT id FROM t WHERE s LIKE '%a%a%a%a%a%a%b'")
		o := outcome{err: err, took: time.Since(start)}
		if err == nil {
			o.rows = len(res.Rows)
		}
		done <- o
	}()
	select {
	case o := <-done:
		if o.err != nil || o.rows != 0 {
			t.Fatalf("rows %d, err %v; want no row", o.rows, o.err)
		}
		if o.took > 50*time.Millisecond {
			t.Fatalf("the match took %v, want under 50ms", o.took)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the match was still running after 5s")
	}
}

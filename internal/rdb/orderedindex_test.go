package rdb

import (
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
)

// orderedTable creates t(id PK, k INT, s VARCHAR) with an ordered index on
// k and s. pre rows are inserted before the indexes exist and post rows
// after; k and s carry NULLs and heavy duplication. With sorted set, the
// post rows arrive in ascending key order.
func orderedTable(t testing.TB, rng *rand.Rand, pre, post int, sorted bool) *Table {
	t.Helper()
	tab, err := NewTable(&Schema{
		Name: "t",
		Columns: []Column{
			{Name: "id", Type: TypeInt, NotNull: true},
			{Name: "k", Type: TypeInt},
			{Name: "s", Type: TypeString},
		},
		PrimaryKey: "id",
	})
	if err != nil {
		t.Fatal(err)
	}
	strs := []string{"", "a", "ab", "b", "ba"}
	row := func(id int) Row {
		k, s := IntValue(int64(rng.Intn(7))), StringValue(strs[rng.Intn(len(strs))])
		if sorted && id >= pre {
			k, s = IntValue(int64((id-pre)*7/max(post, 1))), StringValue(strs[(id-pre)*len(strs)/max(post, 1)])
		}
		if rng.Intn(6) == 0 {
			k = NullValue(TypeInt)
		}
		if rng.Intn(6) == 0 {
			s = NullValue(TypeString)
		}
		return Row{IntValue(int64(id)), k, s}
	}
	for id := 0; id < pre; id++ {
		if err := tab.Insert(row(id)); err != nil {
			t.Fatal(err)
		}
	}
	for _, col := range []string{"k", "s"} {
		if err := tab.CreateIndex(IndexSpec{Column: col, Kind: IndexBTree}); err != nil {
			t.Fatal(err)
		}
	}
	for id := pre; id < pre+post; id++ {
		if err := tab.Insert(row(id)); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

// TestOrderedIndexMatchesScan: every equality lookup and every range over
// an ordered index — either bound inclusive or exclusive, open ends, empty
// and inverted ranges, any ordinal cut-off — returns the row ids a scan
// finds, in the scan's rows stably sorted by IndexKey: key order, equal
// keys in row-id order.
func TestOrderedIndexMatchesScan(t *testing.T) {
	probes := map[string][]Value{
		"k": {IntValue(-1), IntValue(0), IntValue(3), IntValue(6), IntValue(9)},
		"s": {StringValue(""), StringValue("a"), StringValue("aa"), StringValue("ab"), StringValue("ba"), StringValue("c")},
	}
	for _, tc := range []struct {
		pre, post int
		sorted    bool
	}{{200, 0, false}, {0, 200, false}, {0, 200, true}, {120, 120, false}, {120, 120, true}} {
		rng := rand.New(rand.NewSource(int64(tc.pre + tc.post)))
		tab := orderedTable(t, rng, tc.pre, tc.post, tc.sorted)
		rows, _ := tab.snapshot()
		for col, vals := range probes {
			ci := tab.Schema.ColumnIndex(col)
			// ref holds the scan's matching row ids in IndexKey order.
			ref := func(keep func(key string) bool, n int) []int {
				var ids []int
				for id, r := range rows[:n] {
					if !r[ci].Null && keep(r[ci].IndexKey()) {
						ids = append(ids, id)
					}
				}
				slices.SortStableFunc(ids, func(a, b int) int {
					return strings.Compare(rows[a][ci].IndexKey(), rows[b][ci].IndexKey())
				})
				return ids
			}
			for _, v := range vals {
				got, used := tab.lookupEq(col, v)
				want := ref(func(key string) bool { return key == v.IndexKey() }, len(rows))
				if !used || !slices.Equal(got, want) {
					t.Fatalf("%+v: %s = %s: got %v (index %v), want %v", tc, col, v, got, used, want)
				}
			}
			bounds := []*Value{nil}
			for i := range vals {
				bounds = append(bounds, &vals[i])
			}
			for _, lo := range bounds {
				for _, hi := range bounds {
					for _, incl := range [][2]bool{{true, true}, {true, false}, {false, true}, {false, false}} {
						for _, n := range []int{0, len(rows) / 3, len(rows)} {
							keep := func(key string) bool {
								if lo != nil && (key < lo.IndexKey() || !incl[0] && key == lo.IndexKey()) {
									return false
								}
								return hi == nil || key < hi.IndexKey() || incl[1] && key == hi.IndexKey()
							}
							var got []int
							for _, id := range tab.lookupRange(col, lo, incl[0], hi, incl[1], n) {
								got = append(got, int(id))
							}
							if want := ref(keep, n); !slices.Equal(got, want) {
								t.Fatalf("%+v: %s in %s, n=%d: got %v, want %v",
									tc, col, rangeDetail(lo, incl[0], hi, incl[1]), n, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// TestOrderedIndexConcurrentInsert: lookups and ranges on an ordered
// column run while another goroutine inserts. Every result is sorted by
// (key, row id), and a result never changes after it was returned.
func TestOrderedIndexConcurrentInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tab := orderedTable(t, rng, 100, 0, false)
	ci := tab.Schema.ColumnIndex("k")
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for id := 100; id < 400; id++ {
			if err := tab.Insert(Row{IntValue(int64(id)), IntValue(int64(id % 7)), NullValue(TypeString)}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	type result struct {
		got, copied []int
	}
	var results []result
	sortedByKey := func(ids []int) bool {
		return slices.IsSortedFunc(ids, func(a, b int) int {
			if c := strings.Compare(tab.Row(a)[ci].IndexKey(), tab.Row(b)[ci].IndexKey()); c != 0 {
				return c
			}
			return a - b
		}) && len(slices.Compact(slices.Clone(ids))) == len(ids)
	}
	for i := 0; i < 200; i++ {
		v := IntValue(int64(i % 7))
		eq, _ := tab.lookupEq("k", v)
		results = append(results, result{eq, slices.Clone(eq)})
		lo, hi := IntValue(int64(i%4)), IntValue(int64(i%4+2))
		var rg []int
		for _, id := range tab.lookupRange("k", &lo, i%2 == 0, &hi, i%3 == 0, tab.RowCount()) {
			rg = append(rg, int(id))
		}
		results = append(results, result{rg, slices.Clone(rg)})
		if !sortedByKey(eq) || !sortedByKey(rg) {
			t.Fatalf("probe %d: results not in (key, row id) order: %v %v", i, eq, rg)
		}
	}
	wg.Wait()
	for i, r := range results {
		if !slices.Equal(r.got, r.copied) {
			t.Fatalf("result %d changed after it was returned: %v, was %v", i, r.got, r.copied)
		}
	}
	if got, _ := tab.lookupEq("k", IntValue(3)); len(got) == 0 || !sortedByKey(got) {
		t.Fatalf("final lookup: %v", got)
	}
}

package engine

import (
	"math/rand"
	"slices"
	"testing"

	"ontario/internal/dict"
)

// chainOf returns the rows a probe of hash h visits, in order.
func chainOf(t *colTable, h uint64) []int32 {
	var out []int32
	for i := t.first(h); i >= 0; i = t.after(i, h) {
		out = append(out, i)
	}
	return out
}

// TestColTableMatchesMapReference holds the flat table to a
// map[uint64][]int32 of row indices per hash: for every hash inserted, a
// probe must visit exactly that hash's rows in insertion order, and every
// stored row must read back its IDs. The hashes mix equal hashes (drawn
// again from a pool), distinct hashes forced into the same slot at every
// table size (they differ only below the top 16 bits) and random ones;
// each seed fills the table through several rehashes, then resets it and
// fills it again, and the strides include 0, a cross-product input whose
// rows carry no column.
func TestColTableMatchesMapReference(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		stride := int(seed % 3)
		tbl := newColTable(stride)
		for round := 0; round < 3; round++ {
			if round > 0 {
				tbl.reset()
			}
			n := rng.Intn(2000)
			pool := make([]uint64, 1+rng.Intn(n/2+1))
			for i := range pool {
				if rng.Intn(2) == 0 {
					pool[i] = uint64(rng.Intn(4))<<60 | rng.Uint64()>>16 // one of four slots
				} else {
					pool[i] = rng.Uint64()
				}
			}
			ref := map[uint64][]int32{}
			var rows [][]dict.ID
			check := func(when string) {
				t.Helper()
				if tbl.len() != len(rows) {
					t.Fatalf("seed %d round %d %s: table holds %d rows, want %d", seed, round, when, tbl.len(), len(rows))
				}
				for h, want := range ref {
					if got := chainOf(tbl, h); !slices.Equal(got, want) {
						t.Fatalf("seed %d round %d %s: hash %#x visits %v, want %v", seed, round, when, h, got, want)
					}
				}
				for i, ids := range rows {
					for c, id := range ids {
						if got := tbl.id(int32(i), c); got != id {
							t.Fatalf("seed %d round %d %s: row %d column %d reads %d, want %d", seed, round, when, i, c, got, id)
						}
					}
				}
				for k := 0; k < 8; k++ {
					if h := rng.Uint64(); ref[h] == nil && tbl.first(h) >= 0 {
						t.Fatalf("seed %d round %d %s: absent hash %#x has candidates", seed, round, when, h)
					}
				}
			}
			check("empty")
			row := &ColBatch{Len: 1, Cols: make([][]dict.ID, stride)}
			for i := 0; i < n; i++ {
				h := pool[rng.Intn(len(pool))]
				ids := make([]dict.ID, stride)
				for c := range ids {
					ids[c] = dict.ID(rng.Intn(50))
					row.Cols[c] = ids[c : c+1]
				}
				if idx := tbl.insert(row, 0, h); idx != int32(i) {
					t.Fatalf("seed %d round %d: insert %d returned index %d", seed, round, i, idx)
				}
				ref[h] = append(ref[h], int32(i))
				rows = append(rows, ids)
				if i&(i+1) == 0 { // after 1, 2, 4, 8, ... rows: around every growth
					check("mid-fill")
				}
			}
			check("filled")
		}
	}
}

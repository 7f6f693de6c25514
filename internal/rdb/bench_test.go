package rdb

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"ontario/internal/sql"
)

var benchRows int

// BenchmarkSeedBlockIN times the statement a 16-seed block-bind request
// becomes — a 16-literal IN on a foreign key of a 20k-row table — with the
// foreign key indexed and with the index dropped. Every iteration pays the
// access path.
func BenchmarkSeedBlockIN(b *testing.B) {
	const rows, genes, block = 20000, 2500, 16
	for _, indexed := range []bool{true, false} {
		db := NewDatabase("bench")
		tab, err := db.CreateTable(&Schema{
			Name: "probeset",
			Columns: []Column{
				{Name: "id", Type: TypeInt, NotNull: true},
				{Name: "gene_id", Type: TypeInt},
				{Name: "name", Type: TypeString},
			},
			PrimaryKey: "id",
		})
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < rows; i++ {
			if err := tab.Insert(Row{IntValue(int64(i)), IntValue(int64(rng.Intn(genes))), StringValue(fmt.Sprintf("p%05d", i))}); err != nil {
				b.Fatal(err)
			}
		}
		name := "index-dropped"
		if indexed {
			name = "indexed"
			if err := tab.CreateIndex(IndexSpec{Column: "gene_id", Kind: IndexHash}); err != nil {
				b.Fatal(err)
			}
		}
		stmts := make([]*sql.Select, 64)
		for i := range stmts {
			lits := make([]string, block)
			for j := range lits {
				lits[j] = fmt.Sprint(rng.Intn(genes))
			}
			if stmts[i], err = sql.Parse("SELECT id, name FROM probeset WHERE gene_id IN (" + strings.Join(lits, ", ") + ")"); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rs, err := db.Execute(stmts[i%len(stmts)])
				if err != nil {
					b.Fatal(err)
				}
				benchRows = rs.Len()
			}
		})
	}
}

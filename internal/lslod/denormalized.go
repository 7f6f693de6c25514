package lslod

import (
	"ontario/internal/catalog"
	"ontario/internal/rdb"
)

// buildDiseasomeDenormalized stores Diseasome as a single wide table —
// the paper's future-work "not normalized tables" setting. Each disease
// appears once per (gene, drug) combination; diseases without genes or
// drugs keep a NULL in that column. The subject column repeats across
// rows, so it is no longer the primary key; wrappers recover RDF set
// semantics with SELECT DISTINCT.
func buildDiseasomeDenormalized(d *Data) *datasetSpec {
	b := newRelationalBuilder(DSDiseasome)
	wide := b.table(&rdb.Schema{
		Name: "disease_wide",
		Columns: []rdb.Column{
			pkCol("row_id"),
			{Name: "disease_id", Type: rdb.TypeInt, NotNull: true},
			strCol("name"), strCol("disease_class"), intCol("degree"),
			intCol("gene_id"), intCol("drug_id"),
		},
		PrimaryKey: "row_id",
	})
	gene := b.table(&rdb.Schema{
		Name:       "gene",
		Columns:    []rdb.Column{pkCol("id"), strCol("label"), strCol("chromosome"), intCol("gene_length")},
		PrimaryKey: "id",
	})

	rowID := 0
	nullInt := rdb.NullValue(rdb.TypeInt)
	for _, dis := range d.Diseases {
		genes := dis.Genes
		if len(genes) == 0 {
			genes = []int{0}
		}
		drugs := dis.Drugs
		if len(drugs) == 0 {
			drugs = []int{0}
		}
		for _, g := range genes {
			for _, dr := range drugs {
				rowID++
				gv, dv := nullInt, nullInt
				if g != 0 {
					gv = rdb.IntValue(int64(g))
				}
				if dr != 0 {
					dv = rdb.IntValue(int64(dr))
				}
				b.insert(wide, rdb.Row{
					rdb.IntValue(int64(rowID)), rdb.IntValue(int64(dis.ID)),
					rdb.StringValue(dis.Name), rdb.StringValue(dis.Class),
					rdb.IntValue(int64(dis.Degree)), gv, dv,
				})
			}
		}
	}
	for _, g := range d.Genes {
		b.insert(gene, rdb.Row{
			rdb.IntValue(int64(g.ID)), rdb.StringValue(g.Label),
			rdb.StringValue(g.Chromosome), rdb.IntValue(int64(g.Length)),
		})
	}

	b.want("disease_wide", "disease_id", rdb.IndexHash)
	b.want("disease_wide", "name", rdb.IndexHash)
	b.want("disease_wide", "disease_class", rdb.IndexHash)
	b.want("disease_wide", "degree", rdb.IndexBTree)
	b.want("disease_wide", "gene_id", rdb.IndexHash)
	b.want("disease_wide", "drug_id", rdb.IndexHash)
	b.want("gene", "chromosome", rdb.IndexHash)
	b.want("gene", "gene_length", rdb.IndexBTree)

	b.mappings[ClassDisease] = &catalog.ClassMapping{
		Class: ClassDisease, Table: "disease_wide",
		SubjectColumn: "disease_id", SubjectTemplate: TmplDisease,
		Denormalized: true,
		Properties: map[string]*catalog.PropertyMapping{
			PredDiseaseName:    direct(PredDiseaseName, "name"),
			PredDiseaseClass:   direct(PredDiseaseClass, "disease_class"),
			PredDegree:         direct(PredDegree, "degree"),
			PredAssociatedGene: link(PredAssociatedGene, "gene_id", TmplGene, ClassGene),
			PredPossibleDrug:   link(PredPossibleDrug, "drug_id", TmplDrug, ClassDrug),
		},
	}
	b.mappings[ClassGene] = &catalog.ClassMapping{
		Class: ClassGene, Table: "gene",
		SubjectColumn: "id", SubjectTemplate: TmplGene,
		Properties: map[string]*catalog.PropertyMapping{
			PredGeneLabel:      direct(PredGeneLabel, "label"),
			PredGeneChromosome: direct(PredGeneChromosome, "chromosome"),
			PredGeneLength:     direct(PredGeneLength, "gene_length"),
		},
	}
	return b.finish(DSDiseasome)
}

// BuildDenormalizedLake assembles the lake with Diseasome stored
// denormalized (wide table) instead of 3NF, for the normalization
// ablation.
func BuildDenormalizedLake(scale Scale, seed int64) (*Lake, error) {
	data := Generate(scale, seed)
	specs, denied := relationalSpecs(data, nil)
	dspec := buildDiseasomeDenormalized(data)
	specs[DSDiseasome] = dspec
	denied = append(denied, dspec.applyIndexRule()...)
	return assembleLake(data, specs, denied, nil, nil)
}

package lslod

import (
	"fmt"
	"sort"

	"ontario/internal/catalog"
	"ontario/internal/rdb"
	"ontario/lake"
)

// MaxIndexValueFraction is the paper's indexing rule: "No index is created
// since there are values that are present in more than 15% of the records."
const MaxIndexValueFraction = 0.15

// indexDenied is the rule's threshold decision: a column whose most
// frequent value covers more than MaxIndexValueFraction of the rows gets
// no index.
func indexDenied(maxValueFraction float64) bool {
	return maxValueFraction > MaxIndexValueFraction
}

// indexRequest is one desired secondary index, subject to the 15% rule.
type indexRequest struct {
	t      *specTable
	column string
	kind   rdb.IndexKind
}

// datasetSpec is one dataset as the generator produced it: its tables with
// their rows and index requests, and its class mappings sorted by class. A
// relational dataset decides its indexes by the 15% rule
// (applyIndexRule) and is applied to lake.NewBuilder in public
// lake-builder terms — the same path external library users take; an RDF
// dataset builds no indexes and emits its triples straight from the rows
// (triples).
type datasetSpec struct {
	id       string
	tables   []*specTable
	mappings []*catalog.ClassMapping
	requests []indexRequest
}

// apply registers the dataset's tables and class mappings on the builder.
func (s *datasetSpec) apply(b *lake.Builder) {
	for _, t := range s.tables {
		b.AddTable(s.id, tableSpec(t))
	}
	for _, m := range s.mappings {
		b.MapClass(s.id, classMappingSpec(m))
	}
}

// specTable accumulates one table's declaration and rows.
type specTable struct {
	schema *rdb.Schema
	rows   []rdb.Row
	idx    []lake.Index
}

// relationalBuilder assembles one dataset's spec: tables, rows, mappings
// and rule-filtered index declarations.
type relationalBuilder struct {
	ds       string
	tables   []*specTable
	byName   map[string]*specTable
	mappings map[string]*catalog.ClassMapping
	requests []indexRequest
}

func newRelationalBuilder(ds string) *relationalBuilder {
	return &relationalBuilder{
		ds:       ds,
		byName:   map[string]*specTable{},
		mappings: map[string]*catalog.ClassMapping{},
	}
}

func (b *relationalBuilder) table(schema *rdb.Schema) *specTable {
	if _, dup := b.byName[schema.Name]; dup {
		panic(fmt.Sprintf("lslod: table %s declared twice in %s", schema.Name, b.ds))
	}
	t := &specTable{schema: schema}
	b.tables = append(b.tables, t)
	b.byName[schema.Name] = t
	return t
}

func (b *relationalBuilder) insert(t *specTable, rows ...rdb.Row) {
	t.rows = append(t.rows, rows...)
}

func (b *relationalBuilder) want(table, column string, kind rdb.IndexKind) {
	t := b.byName[table]
	if t == nil {
		panic(fmt.Sprintf("lslod: index request on unknown table %s.%s", table, column))
	}
	b.requests = append(b.requests, indexRequest{t: t, column: column, kind: kind})
}

// maxValueFraction returns the frequency of the column's most common
// non-null value as a fraction of the row count — the same statistic rdb
// maintains, computed here because the rule runs before the tables are
// materialized.
func maxValueFraction(t *specTable, column string) float64 {
	ci := t.schema.ColumnIndex(column)
	if ci < 0 || len(t.rows) == 0 {
		return 0
	}
	counts := map[string]int{}
	maxN := 0
	for _, r := range t.rows {
		if r[ci].Null {
			continue
		}
		key := r[ci].IndexKey()
		counts[key]++
		if n := counts[key]; n > maxN {
			maxN = n
		}
	}
	return float64(maxN) / float64(len(t.rows))
}

// finish emits the dataset spec.
func (b *relationalBuilder) finish(ds string) *datasetSpec {
	spec := &datasetSpec{id: ds, tables: b.tables, requests: b.requests}
	classes := make([]string, 0, len(b.mappings))
	for c := range b.mappings {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		spec.mappings = append(spec.mappings, b.mappings[c])
	}
	return spec
}

// applyIndexRule declares the requested indexes the 15% rule grants and
// returns the "table.column" of those it denies.
func (s *datasetSpec) applyIndexRule() (denied []string) {
	for _, req := range s.requests {
		if indexDenied(maxValueFraction(req.t, req.column)) {
			denied = append(denied, req.t.schema.Name+"."+req.column)
			continue
		}
		kind := lake.HashIndex
		if req.kind == rdb.IndexBTree {
			kind = lake.BTreeIndex
		}
		req.t.idx = append(req.t.idx, lake.Index{Column: req.column, Kind: kind})
	}
	return denied
}

// tableSpec converts an accumulated table into the public declaration.
func tableSpec(t *specTable) lake.TableSpec {
	spec := lake.TableSpec{
		Name:       t.schema.Name,
		PrimaryKey: t.schema.PrimaryKey,
		Indexes:    t.idx,
	}
	for _, c := range t.schema.Columns {
		var ct lake.ColumnType
		switch c.Type {
		case rdb.TypeInt:
			ct = lake.TypeInt
		case rdb.TypeFloat:
			ct = lake.TypeFloat
		case rdb.TypeBool:
			ct = lake.TypeBool
		default:
			ct = lake.TypeString
		}
		spec.Columns = append(spec.Columns, lake.Column{Name: c.Name, Type: ct, NotNull: c.NotNull})
	}
	for _, r := range t.rows {
		row := make([]any, len(r))
		for i, v := range r {
			switch {
			case v.Null:
				row[i] = nil
			case v.Type == rdb.TypeInt:
				row[i] = v.Int
			case v.Type == rdb.TypeFloat:
				row[i] = v.Float
			case v.Type == rdb.TypeBool:
				row[i] = v.Bool
			default:
				row[i] = v.Str
			}
		}
		spec.Rows = append(spec.Rows, row)
	}
	return spec
}

// classMappingSpec converts an internal mapping declaration into the
// public one.
func classMappingSpec(cm *catalog.ClassMapping) lake.ClassMapping {
	out := lake.ClassMapping{
		Class:           cm.Class,
		Table:           cm.Table,
		SubjectColumn:   cm.SubjectColumn,
		SubjectTemplate: cm.SubjectTemplate,
		Denormalized:    cm.Denormalized,
	}
	preds := make([]string, 0, len(cm.Properties))
	for p := range cm.Properties {
		preds = append(preds, p)
	}
	sort.Strings(preds)
	for _, p := range preds {
		pm := cm.Properties[p]
		out.Properties = append(out.Properties, lake.PropertyMapping{
			Predicate:      pm.Predicate,
			Column:         pm.Column,
			JoinTable:      pm.JoinTable,
			JoinFK:         pm.JoinFK,
			ValueColumn:    pm.ValueColumn,
			ObjectTemplate: pm.ObjectTemplate,
			ObjectClass:    pm.ObjectClass,
		})
	}
	return out
}

func intCol(name string) rdb.Column   { return rdb.Column{Name: name, Type: rdb.TypeInt} }
func strCol(name string) rdb.Column   { return rdb.Column{Name: name, Type: rdb.TypeString} }
func floatCol(name string) rdb.Column { return rdb.Column{Name: name, Type: rdb.TypeFloat} }
func pkCol(name string) rdb.Column    { return rdb.Column{Name: name, Type: rdb.TypeInt, NotNull: true} }
func direct(pred, col string) *catalog.PropertyMapping {
	return &catalog.PropertyMapping{Predicate: pred, Column: col}
}
func link(pred, col, tmpl, class string) *catalog.PropertyMapping {
	return &catalog.PropertyMapping{Predicate: pred, Column: col, ObjectTemplate: tmpl, ObjectClass: class}
}
func sideTable(pred, table, fk, val, tmpl, class string) *catalog.PropertyMapping {
	return &catalog.PropertyMapping{
		Predicate: pred, JoinTable: table, JoinFK: fk, ValueColumn: val,
		ObjectTemplate: tmpl, ObjectClass: class,
	}
}

// relationalSpecs declares the ten per-dataset databases with mappings in
// public lake-builder terms, and the indexes the 15% rule grants to the
// datasets stored relationally — those not in asRDF. It returns the specs
// by dataset ID and the list of index requests the rule denies.
func relationalSpecs(d *Data, asRDF map[string]bool) (map[string]*datasetSpec, []string) {
	out := map[string]*datasetSpec{}
	var denied []string
	for _, build := range []func(*Data) *datasetSpec{
		buildDiseasome, buildAffymetrix, buildDrugBank, buildTCGA, buildKEGG,
		buildChEBI, buildSider, buildLinkedCT, buildMedicare, buildPharmGKB,
	} {
		spec := build(d)
		out[spec.id] = spec
		if !asRDF[spec.id] {
			denied = append(denied, spec.applyIndexRule()...)
		}
	}
	return out, denied
}

func buildDiseasome(d *Data) *datasetSpec {
	b := newRelationalBuilder(DSDiseasome)
	disease := b.table(&rdb.Schema{
		Name:       "disease",
		Columns:    []rdb.Column{pkCol("id"), strCol("name"), strCol("disease_class"), intCol("degree")},
		PrimaryKey: "id",
	})
	gene := b.table(&rdb.Schema{
		Name:       "gene",
		Columns:    []rdb.Column{pkCol("id"), strCol("label"), strCol("chromosome"), intCol("gene_length")},
		PrimaryKey: "id",
	})
	diseaseGene := b.table(&rdb.Schema{
		Name:       "disease_gene",
		Columns:    []rdb.Column{pkCol("id"), intCol("disease_id"), intCol("gene_id")},
		PrimaryKey: "id",
	})
	diseaseDrug := b.table(&rdb.Schema{
		Name:       "disease_drug",
		Columns:    []rdb.Column{pkCol("id"), intCol("disease_id"), intCol("drug_id")},
		PrimaryKey: "id",
	})
	linkID := 0
	for _, dis := range d.Diseases {
		b.insert(disease, rdb.Row{
			rdb.IntValue(int64(dis.ID)), rdb.StringValue(dis.Name),
			rdb.StringValue(dis.Class), rdb.IntValue(int64(dis.Degree)),
		})
		for _, g := range dis.Genes {
			linkID++
			b.insert(diseaseGene, rdb.Row{
				rdb.IntValue(int64(linkID)), rdb.IntValue(int64(dis.ID)), rdb.IntValue(int64(g)),
			})
		}
	}
	linkID = 0
	for _, dis := range d.Diseases {
		for _, dr := range dis.Drugs {
			linkID++
			b.insert(diseaseDrug, rdb.Row{
				rdb.IntValue(int64(linkID)), rdb.IntValue(int64(dis.ID)), rdb.IntValue(int64(dr)),
			})
		}
	}
	for _, g := range d.Genes {
		b.insert(gene, rdb.Row{
			rdb.IntValue(int64(g.ID)), rdb.StringValue(g.Label),
			rdb.StringValue(g.Chromosome), rdb.IntValue(int64(g.Length)),
		})
	}

	b.want("disease", "name", rdb.IndexHash)
	b.want("disease", "disease_class", rdb.IndexHash)
	b.want("disease", "degree", rdb.IndexBTree)
	b.want("disease_gene", "disease_id", rdb.IndexHash)
	b.want("disease_gene", "gene_id", rdb.IndexHash)
	b.want("disease_drug", "disease_id", rdb.IndexHash)
	b.want("disease_drug", "drug_id", rdb.IndexHash)
	b.want("gene", "chromosome", rdb.IndexHash)
	b.want("gene", "gene_length", rdb.IndexBTree)

	b.mappings[ClassDisease] = &catalog.ClassMapping{
		Class: ClassDisease, Table: "disease",
		SubjectColumn: "id", SubjectTemplate: TmplDisease,
		Properties: map[string]*catalog.PropertyMapping{
			PredDiseaseName:    direct(PredDiseaseName, "name"),
			PredDiseaseClass:   direct(PredDiseaseClass, "disease_class"),
			PredDegree:         direct(PredDegree, "degree"),
			PredAssociatedGene: sideTable(PredAssociatedGene, "disease_gene", "disease_id", "gene_id", TmplGene, ClassGene),
			PredPossibleDrug:   sideTable(PredPossibleDrug, "disease_drug", "disease_id", "drug_id", TmplDrug, ClassDrug),
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

func buildAffymetrix(d *Data) *datasetSpec {
	b := newRelationalBuilder(DSAffymetrix)
	probeset := b.table(&rdb.Schema{
		Name: "probeset",
		Columns: []rdb.Column{
			pkCol("id"), strCol("name"), strCol("species"),
			strCol("chromosome"), floatCol("signal_avg"), intCol("gene_id"),
		},
		PrimaryKey: "id",
	})
	for _, p := range d.Probesets {
		b.insert(probeset, rdb.Row{
			rdb.IntValue(int64(p.ID)), rdb.StringValue(p.Name), rdb.StringValue(p.Species),
			rdb.StringValue(p.Chromosome), rdb.FloatValue(p.Signal), rdb.IntValue(int64(p.GeneID)),
		})
	}
	b.want("probeset", "gene_id", rdb.IndexHash)
	b.want("probeset", "chromosome", rdb.IndexHash)
	b.want("probeset", "signal_avg", rdb.IndexBTree)
	// Denied by the 15% rule: most records are Homo sapiens (the paper's
	// motivating example).
	b.want("probeset", "species", rdb.IndexHash)

	b.mappings[ClassProbeset] = &catalog.ClassMapping{
		Class: ClassProbeset, Table: "probeset",
		SubjectColumn: "id", SubjectTemplate: TmplProbeset,
		Properties: map[string]*catalog.PropertyMapping{
			PredProbesetName:    direct(PredProbesetName, "name"),
			PredSpecies:         direct(PredSpecies, "species"),
			PredProbeChromosome: direct(PredProbeChromosome, "chromosome"),
			PredSignal:          direct(PredSignal, "signal_avg"),
			PredTranscribedFrom: link(PredTranscribedFrom, "gene_id", TmplGene, ClassGene),
		},
	}
	return b.finish(DSAffymetrix)
}

func buildDrugBank(d *Data) *datasetSpec {
	b := newRelationalBuilder(DSDrugBank)
	drug := b.table(&rdb.Schema{
		Name: "drug",
		Columns: []rdb.Column{
			pkCol("id"), strCol("generic_name"), strCol("indication"),
			strCol("category"), floatCol("mol_weight"),
		},
		PrimaryKey: "id",
	})
	target := b.table(&rdb.Schema{
		Name:       "target",
		Columns:    []rdb.Column{pkCol("id"), strCol("target_name"), intCol("gene_id")},
		PrimaryKey: "id",
	})
	drugTarget := b.table(&rdb.Schema{
		Name:       "drug_target",
		Columns:    []rdb.Column{pkCol("id"), intCol("drug_id"), intCol("target_id")},
		PrimaryKey: "id",
	})
	for _, dr := range d.Drugs {
		b.insert(drug, rdb.Row{
			rdb.IntValue(int64(dr.ID)), rdb.StringValue(dr.GenericName),
			rdb.StringValue(dr.Indication), rdb.StringValue(dr.Category), rdb.FloatValue(dr.Weight),
		})
	}
	for _, t := range d.Targets {
		b.insert(target, rdb.Row{
			rdb.IntValue(int64(t.ID)), rdb.StringValue(t.Name), rdb.IntValue(int64(t.GeneID)),
		})
	}
	linkID := 0
	for _, dr := range d.Drugs {
		for _, tg := range dr.Targets {
			linkID++
			b.insert(drugTarget, rdb.Row{
				rdb.IntValue(int64(linkID)), rdb.IntValue(int64(dr.ID)), rdb.IntValue(int64(tg)),
			})
		}
	}
	b.want("drug", "category", rdb.IndexHash)
	b.want("drug", "mol_weight", rdb.IndexBTree)
	b.want("drug_target", "drug_id", rdb.IndexHash)
	b.want("drug_target", "target_id", rdb.IndexHash)
	b.want("target", "gene_id", rdb.IndexHash)

	b.mappings[ClassDrug] = &catalog.ClassMapping{
		Class: ClassDrug, Table: "drug",
		SubjectColumn: "id", SubjectTemplate: TmplDrug,
		Properties: map[string]*catalog.PropertyMapping{
			PredGenericName:  direct(PredGenericName, "generic_name"),
			PredIndication:   direct(PredIndication, "indication"),
			PredDrugCategory: direct(PredDrugCategory, "category"),
			PredMolWeight:    direct(PredMolWeight, "mol_weight"),
			PredTarget:       sideTable(PredTarget, "drug_target", "drug_id", "target_id", TmplTarget, ClassTarget),
		},
	}
	b.mappings[ClassTarget] = &catalog.ClassMapping{
		Class: ClassTarget, Table: "target",
		SubjectColumn: "id", SubjectTemplate: TmplTarget,
		Properties: map[string]*catalog.PropertyMapping{
			PredTargetName: direct(PredTargetName, "target_name"),
			PredTargetGene: link(PredTargetGene, "gene_id", TmplGene, ClassGene),
		},
	}
	return b.finish(DSDrugBank)
}

func buildTCGA(d *Data) *datasetSpec {
	b := newRelationalBuilder(DSTCGA)
	patient := b.table(&rdb.Schema{
		Name: "patient",
		Columns: []rdb.Column{
			pkCol("id"), strCol("gender"), intCol("age"), strCol("tumor_site"),
		},
		PrimaryKey: "id",
	})
	patientGene := b.table(&rdb.Schema{
		Name:       "patient_gene",
		Columns:    []rdb.Column{pkCol("id"), intCol("patient_id"), intCol("gene_id")},
		PrimaryKey: "id",
	})
	for _, p := range d.Patients {
		b.insert(patient, rdb.Row{
			rdb.IntValue(int64(p.ID)), rdb.StringValue(p.Gender),
			rdb.IntValue(int64(p.Age)), rdb.StringValue(p.TumorSite),
		})
	}
	linkID := 0
	for _, p := range d.Patients {
		for _, g := range p.Genes {
			linkID++
			b.insert(patientGene, rdb.Row{
				rdb.IntValue(int64(linkID)), rdb.IntValue(int64(p.ID)), rdb.IntValue(int64(g)),
			})
		}
	}
	b.want("patient", "tumor_site", rdb.IndexHash)
	b.want("patient", "age", rdb.IndexBTree)
	// Denied: only two gender values.
	b.want("patient", "gender", rdb.IndexHash)
	b.want("patient_gene", "patient_id", rdb.IndexHash)
	b.want("patient_gene", "gene_id", rdb.IndexHash)

	b.mappings[ClassPatient] = &catalog.ClassMapping{
		Class: ClassPatient, Table: "patient",
		SubjectColumn: "id", SubjectTemplate: TmplPatient,
		Properties: map[string]*catalog.PropertyMapping{
			PredGender:      direct(PredGender, "gender"),
			PredAge:         direct(PredAge, "age"),
			PredTumorSite:   direct(PredTumorSite, "tumor_site"),
			PredMutatedGene: sideTable(PredMutatedGene, "patient_gene", "patient_id", "gene_id", TmplGene, ClassGene),
		},
	}
	return b.finish(DSTCGA)
}

func buildKEGG(d *Data) *datasetSpec {
	b := newRelationalBuilder(DSKEGG)
	compound := b.table(&rdb.Schema{
		Name:       "compound",
		Columns:    []rdb.Column{pkCol("id"), strCol("formula"), strCol("pathway"), floatCol("mass")},
		PrimaryKey: "id",
	})
	for _, c := range d.Compounds {
		b.insert(compound, rdb.Row{
			rdb.IntValue(int64(c.ID)), rdb.StringValue(c.Formula),
			rdb.StringValue(c.Pathway), rdb.FloatValue(c.Mass),
		})
	}
	b.want("compound", "pathway", rdb.IndexHash)
	b.want("compound", "mass", rdb.IndexBTree)

	b.mappings[ClassCompound] = &catalog.ClassMapping{
		Class: ClassCompound, Table: "compound",
		SubjectColumn: "id", SubjectTemplate: TmplCompound,
		Properties: map[string]*catalog.PropertyMapping{
			PredFormula: direct(PredFormula, "formula"),
			PredPathway: direct(PredPathway, "pathway"),
			PredMass:    direct(PredMass, "mass"),
		},
	}
	return b.finish(DSKEGG)
}

func buildChEBI(d *Data) *datasetSpec {
	b := newRelationalBuilder(DSChEBI)
	ent := b.table(&rdb.Schema{
		Name:       "chem_entity",
		Columns:    []rdb.Column{pkCol("id"), strCol("name"), intCol("charge"), floatCol("mass")},
		PrimaryKey: "id",
	})
	for _, c := range d.ChemEntities {
		b.insert(ent, rdb.Row{
			rdb.IntValue(int64(c.ID)), rdb.StringValue(c.Name),
			rdb.IntValue(int64(c.Charge)), rdb.FloatValue(c.Mass),
		})
	}
	b.want("chem_entity", "mass", rdb.IndexBTree)
	// Denied: 7 distinct charges, most frequent above 15%.
	b.want("chem_entity", "charge", rdb.IndexHash)

	b.mappings[ClassChemEntity] = &catalog.ClassMapping{
		Class: ClassChemEntity, Table: "chem_entity",
		SubjectColumn: "id", SubjectTemplate: TmplChemEntity,
		Properties: map[string]*catalog.PropertyMapping{
			PredChebiName: direct(PredChebiName, "name"),
			PredCharge:    direct(PredCharge, "charge"),
			PredChebiMass: direct(PredChebiMass, "mass"),
		},
	}
	return b.finish(DSChEBI)
}

func buildSider(d *Data) *datasetSpec {
	b := newRelationalBuilder(DSSider)
	eff := b.table(&rdb.Schema{
		Name:       "side_effect",
		Columns:    []rdb.Column{pkCol("id"), strCol("effect_name"), intCol("drug_id")},
		PrimaryKey: "id",
	})
	for _, e := range d.Effects {
		b.insert(eff, rdb.Row{
			rdb.IntValue(int64(e.ID)), rdb.StringValue(e.Name), rdb.IntValue(int64(e.DrugID)),
		})
	}
	b.want("side_effect", "effect_name", rdb.IndexHash)
	b.want("side_effect", "drug_id", rdb.IndexHash)

	b.mappings[ClassSideEffect] = &catalog.ClassMapping{
		Class: ClassSideEffect, Table: "side_effect",
		SubjectColumn: "id", SubjectTemplate: TmplSideEffect,
		Properties: map[string]*catalog.PropertyMapping{
			PredEffectName: direct(PredEffectName, "effect_name"),
			PredCausedBy:   link(PredCausedBy, "drug_id", TmplDrug, ClassDrug),
		},
	}
	return b.finish(DSSider)
}

func buildLinkedCT(d *Data) *datasetSpec {
	b := newRelationalBuilder(DSLinkedCT)
	trial := b.table(&rdb.Schema{
		Name: "trial",
		Columns: []rdb.Column{
			pkCol("id"), strCol("title"), strCol("phase"),
			strCol("overall_status"), intCol("disease_id"), intCol("drug_id"),
		},
		PrimaryKey: "id",
	})
	for _, t := range d.Trials {
		b.insert(trial, rdb.Row{
			rdb.IntValue(int64(t.ID)), rdb.StringValue(t.Title), rdb.StringValue(t.Phase),
			rdb.StringValue(t.Status), rdb.IntValue(int64(t.DiseaseID)), rdb.IntValue(int64(t.DrugID)),
		})
	}
	b.want("trial", "overall_status", rdb.IndexHash)
	b.want("trial", "disease_id", rdb.IndexHash)
	b.want("trial", "drug_id", rdb.IndexHash)
	// Denied: four phases, each around 25% of the records.
	b.want("trial", "phase", rdb.IndexHash)

	b.mappings[ClassTrial] = &catalog.ClassMapping{
		Class: ClassTrial, Table: "trial",
		SubjectColumn: "id", SubjectTemplate: TmplTrial,
		Properties: map[string]*catalog.PropertyMapping{
			PredTrialTitle:   direct(PredTrialTitle, "title"),
			PredPhase:        direct(PredPhase, "phase"),
			PredStatus:       direct(PredStatus, "overall_status"),
			PredCondition:    link(PredCondition, "disease_id", TmplDisease, ClassDisease),
			PredIntervention: link(PredIntervention, "drug_id", TmplDrug, ClassDrug),
		},
	}
	return b.finish(DSLinkedCT)
}

func buildMedicare(d *Data) *datasetSpec {
	b := newRelationalBuilder(DSMedicare)
	prov := b.table(&rdb.Schema{
		Name:       "provider",
		Columns:    []rdb.Column{pkCol("id"), strCol("provider_name"), strCol("state"), strCol("specialty")},
		PrimaryKey: "id",
	})
	provDrug := b.table(&rdb.Schema{
		Name:       "provider_drug",
		Columns:    []rdb.Column{pkCol("id"), intCol("provider_id"), intCol("drug_id")},
		PrimaryKey: "id",
	})
	for _, p := range d.Providers {
		b.insert(prov, rdb.Row{
			rdb.IntValue(int64(p.ID)), rdb.StringValue(p.Name),
			rdb.StringValue(p.State), rdb.StringValue(p.Specialty),
		})
	}
	linkID := 0
	for _, p := range d.Providers {
		for _, dr := range p.Drugs {
			linkID++
			b.insert(provDrug, rdb.Row{
				rdb.IntValue(int64(linkID)), rdb.IntValue(int64(p.ID)), rdb.IntValue(int64(dr)),
			})
		}
	}
	b.want("provider", "state", rdb.IndexHash)
	b.want("provider", "specialty", rdb.IndexHash)
	b.want("provider_drug", "provider_id", rdb.IndexHash)
	b.want("provider_drug", "drug_id", rdb.IndexHash)

	b.mappings[ClassProvider] = &catalog.ClassMapping{
		Class: ClassProvider, Table: "provider",
		SubjectColumn: "id", SubjectTemplate: TmplProvider,
		Properties: map[string]*catalog.PropertyMapping{
			PredProviderName: direct(PredProviderName, "provider_name"),
			PredState:        direct(PredState, "state"),
			PredSpecialty:    direct(PredSpecialty, "specialty"),
			PredPrescribes:   sideTable(PredPrescribes, "provider_drug", "provider_id", "drug_id", TmplDrug, ClassDrug),
		},
	}
	return b.finish(DSMedicare)
}

func buildPharmGKB(d *Data) *datasetSpec {
	b := newRelationalBuilder(DSPharmGKB)
	assoc := b.table(&rdb.Schema{
		Name: "association",
		Columns: []rdb.Column{
			pkCol("id"), strCol("evidence"), floatCol("score"),
			intCol("gene_id"), intCol("drug_id"),
		},
		PrimaryKey: "id",
	})
	for _, a := range d.Associations {
		b.insert(assoc, rdb.Row{
			rdb.IntValue(int64(a.ID)), rdb.StringValue(a.Evidence), rdb.FloatValue(a.Score),
			rdb.IntValue(int64(a.GeneID)), rdb.IntValue(int64(a.DrugID)),
		})
	}
	b.want("association", "evidence", rdb.IndexHash)
	b.want("association", "score", rdb.IndexBTree)
	b.want("association", "gene_id", rdb.IndexHash)
	b.want("association", "drug_id", rdb.IndexHash)

	b.mappings[ClassAssociation] = &catalog.ClassMapping{
		Class: ClassAssociation, Table: "association",
		SubjectColumn: "id", SubjectTemplate: TmplAssociation,
		Properties: map[string]*catalog.PropertyMapping{
			PredEvidence: direct(PredEvidence, "evidence"),
			PredScore:    direct(PredScore, "score"),
			PredPAGene:   link(PredPAGene, "gene_id", TmplGene, ClassGene),
			PredPADrug:   link(PredPADrug, "drug_id", TmplDrug, ClassDrug),
		},
	}
	return b.finish(DSPharmGKB)
}

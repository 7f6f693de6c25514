package lslod

import (
	"fmt"
	"sort"

	"ontario/internal/bridge"
	"ontario/internal/catalog"
	"ontario/lake"
)

// Lake is a fully assembled synthetic Semantic Data Lake. It is built
// through the public lake.Builder — the same path external library users
// take — and keeps the internal catalog handle for in-module tools.
type Lake struct {
	// Lake is the public data-lake handle; hand it to ontario.New.
	Lake *lake.Lake
	// Catalog is the underlying internal catalog, for in-module tooling
	// and tests.
	Catalog *catalog.Catalog
	Data    *Data
	// DeniedIndexes lists "table.column" index requests denied by the 15%
	// rule.
	DeniedIndexes []string
}

// moleculeSpec declares one RDF-MT.
type moleculeSpec struct {
	class   string
	dataset string
	preds   []catalog.PredicateDesc
}

func moleculeSpecs() []moleculeSpec {
	return []moleculeSpec{
		{ClassDisease, DSDiseasome, []catalog.PredicateDesc{
			{Predicate: PredDiseaseName}, {Predicate: PredDiseaseClass}, {Predicate: PredDegree},
			{Predicate: PredAssociatedGene, LinkedClass: ClassGene},
			{Predicate: PredPossibleDrug, LinkedClass: ClassDrug},
		}},
		{ClassGene, DSDiseasome, []catalog.PredicateDesc{
			{Predicate: PredGeneLabel}, {Predicate: PredGeneChromosome}, {Predicate: PredGeneLength},
		}},
		{ClassProbeset, DSAffymetrix, []catalog.PredicateDesc{
			{Predicate: PredProbesetName}, {Predicate: PredSpecies}, {Predicate: PredProbeChromosome},
			{Predicate: PredSignal}, {Predicate: PredTranscribedFrom, LinkedClass: ClassGene},
		}},
		{ClassDrug, DSDrugBank, []catalog.PredicateDesc{
			{Predicate: PredGenericName}, {Predicate: PredIndication}, {Predicate: PredDrugCategory},
			{Predicate: PredMolWeight}, {Predicate: PredTarget, LinkedClass: ClassTarget},
		}},
		{ClassTarget, DSDrugBank, []catalog.PredicateDesc{
			{Predicate: PredTargetName}, {Predicate: PredTargetGene, LinkedClass: ClassGene},
		}},
		{ClassPatient, DSTCGA, []catalog.PredicateDesc{
			{Predicate: PredGender}, {Predicate: PredAge}, {Predicate: PredTumorSite},
			{Predicate: PredMutatedGene, LinkedClass: ClassGene},
		}},
		{ClassCompound, DSKEGG, []catalog.PredicateDesc{
			{Predicate: PredFormula}, {Predicate: PredPathway}, {Predicate: PredMass},
		}},
		{ClassChemEntity, DSChEBI, []catalog.PredicateDesc{
			{Predicate: PredChebiName}, {Predicate: PredCharge}, {Predicate: PredChebiMass},
		}},
		{ClassSideEffect, DSSider, []catalog.PredicateDesc{
			{Predicate: PredEffectName}, {Predicate: PredCausedBy, LinkedClass: ClassDrug},
		}},
		{ClassTrial, DSLinkedCT, []catalog.PredicateDesc{
			{Predicate: PredTrialTitle}, {Predicate: PredPhase}, {Predicate: PredStatus},
			{Predicate: PredCondition, LinkedClass: ClassDisease},
			{Predicate: PredIntervention, LinkedClass: ClassDrug},
		}},
		{ClassProvider, DSMedicare, []catalog.PredicateDesc{
			{Predicate: PredProviderName}, {Predicate: PredState}, {Predicate: PredSpecialty},
			{Predicate: PredPrescribes, LinkedClass: ClassDrug},
		}},
		{ClassAssociation, DSPharmGKB, []catalog.PredicateDesc{
			{Predicate: PredEvidence}, {Predicate: PredScore},
			{Predicate: PredPAGene, LinkedClass: ClassGene},
			{Predicate: PredPADrug, LinkedClass: ClassDrug},
		}},
	}
}

// BuildLake generates the data and assembles the paper's experimental
// setup: every dataset stored relationally (the RDF version of each LSLOD
// dataset transformed into 3NF tables with rule-filtered indexes).
func BuildLake(scale Scale, seed int64) (*Lake, error) {
	return buildLake(scale, seed, nil, nil)
}

// BuildLakeCustom assembles the standard lake and then hands the builder
// to customize before Build — the hook ontario-server uses to register
// remote peer endpoints next to the local datasets.
func BuildLakeCustom(scale Scale, seed int64, customize func(*lake.Builder)) (*Lake, error) {
	return buildLake(scale, seed, nil, customize)
}

// BuildMixedLake keeps the named datasets in their native RDF model and the
// rest relational, exercising the Semantic-Data-Lake heterogeneity the
// system is designed for. An RDF dataset is built once, as a graph whose
// triples are emitted straight from the generated rows: it is the graph
// GraphFromSource exports from the same dataset stored relationally,
// triple for triple and in the same order, without building that source.
func BuildMixedLake(scale Scale, seed int64, rdfDatasets []string) (*Lake, error) {
	asRDF := map[string]bool{}
	for _, ds := range rdfDatasets {
		valid := false
		for _, known := range Datasets() {
			if ds == known {
				valid = true
				break
			}
		}
		if !valid {
			return nil, fmt.Errorf("lslod: unknown dataset %q", ds)
		}
		asRDF[ds] = true
	}
	return buildLake(scale, seed, asRDF, nil)
}

func buildLake(scale Scale, seed int64, asRDF map[string]bool, customize func(*lake.Builder)) (*Lake, error) {
	data := Generate(scale, seed)
	specs, denied := relationalSpecs(data, asRDF)
	return assembleLake(data, specs, denied, asRDF, customize)
}

// assembleLake drives the public lake builder: relational datasets apply
// their table and mapping specs; a dataset in asRDF registers, through
// AddGraph, the triples datasetSpec.triples emits from its rows and class
// mappings, and no relational copy of it is built; the paper's molecule
// templates are declared explicitly (the builder's automatic derivation
// merges in behind them).
func assembleLake(data *Data, specs map[string]*datasetSpec, denied []string, asRDF map[string]bool, customize func(*lake.Builder)) (*Lake, error) {
	b := lake.NewBuilder()

	ids := make([]string, 0, len(specs))
	for id := range specs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if asRDF[id] {
			b.AddGraph(id, specs[id].triples())
			continue
		}
		specs[id].apply(b)
	}
	for _, spec := range moleculeSpecs() {
		m := lake.Molecule{Class: spec.class, Sources: []string{spec.dataset}}
		for _, pd := range spec.preds {
			m.Predicates = append(m.Predicates, lake.Predicate{IRI: pd.Predicate, LinkedClass: pd.LinkedClass})
		}
		b.AddMolecule(m)
	}
	if customize != nil {
		customize(b)
	}
	l, err := b.Build()
	if err != nil {
		return nil, err
	}
	return &Lake{Lake: l, Catalog: bridge.LakeCatalog(l), Data: data, DeniedIndexes: denied}, nil
}

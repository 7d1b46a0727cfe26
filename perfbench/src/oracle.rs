//! Exhaustive oracles for the sampled output checks.
//!
//! SDS uses the engine's own no-pruning scan, `sds_full_scan`. RDS at a
//! million documents cannot: `rds_full_scan` runs one DRC probe per
//! document, about 90 s per query. [`rds_topk_distances`] computes the
//! same exhaustive top-k straight from Equation 2 instead. One
//! valid-path breadth-first pass per query concept
//! (`multi_source_distances`, the ontology crate's reference) gives
//! `D(q, c)` for every concept; a document's distance is then the sum,
//! over query concepts, of the nearest of its concepts. That is about a
//! second at 1M docs, shares no code with kNDS or D-Radix, and a test
//! pins it to `rds_full_scan`.

use cbr_corpus::DocId;
use cbr_index::IndexSource;
use cbr_ontology::distance::{multi_source_distances, D_INF};
use cbr_ontology::ConceptId;
use concept_rank::EngineSnapshot;

/// The `k` smallest RDS distances over every live document of `snap`.
pub fn rds_topk_distances(snap: &EngineSnapshot, query: &[ConceptId], k: usize) -> Vec<f64> {
    let ont = snap.ontology();
    let per_concept: Vec<Vec<u32>> =
        query.iter().map(|&q| multi_source_distances(ont, &[q])).collect();
    let source = snap.source();
    let mut concepts = Vec::new();
    let mut all = Vec::with_capacity(source.num_docs());
    for i in 0..source.num_docs() {
        let d = DocId::from_index(i);
        if !source.is_live(d) {
            continue;
        }
        concepts.clear();
        source.doc_concepts(d, &mut concepts);
        all.push(document_query_distance(&per_concept, &concepts));
    }
    smallest(all, k)
}

/// Equation 2 from per-query-concept distance tables.
fn document_query_distance(per_concept: &[Vec<u32>], concepts: &[ConceptId]) -> f64 {
    let mut total = 0u64;
    for dist in per_concept {
        match concepts.iter().map(|c| dist[c.index()]).min() {
            Some(m) if m != D_INF => total += u64::from(m),
            _ => return f64::INFINITY,
        }
    }
    total as f64
}

/// The exhaustive SDS top-k distances (`sds_full_scan`).
pub fn sds_topk_distances(snap: &EngineSnapshot, query_doc: &[ConceptId], k: usize) -> Vec<f64> {
    match snap.sds_full_scan(query_doc, k) {
        Ok(r) => r.results.iter().map(|r| r.distance).collect(),
        Err(_) => Vec::new(),
    }
}

/// The `k` smallest values, ascending.
fn smallest(mut v: Vec<f64>, k: usize) -> Vec<f64> {
    if v.len() > k {
        v.select_nth_unstable_by(k, f64::total_cmp);
        v.truncate(k);
    }
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbr_corpus::{CorpusGenerator, CorpusProfile};
    use cbr_ontology::{GeneratorConfig, OntologyGenerator};
    use concept_rank::EngineBuilder;

    #[test]
    fn equation_two_oracle_matches_the_full_scan() {
        let ont = OntologyGenerator::new(GeneratorConfig::snomed_like(3_000)).generate();
        let corpus = CorpusGenerator::new(&ont, CorpusProfile::radio_scale(400)).generate();
        let engine = EngineBuilder::new().build(ont, corpus);
        let snap = engine.snapshot();
        let docs: Vec<Vec<ConceptId>> =
            snap.corpus().documents().map(|d| d.concepts().to_vec()).collect();
        for (i, doc) in docs.iter().enumerate().take(25) {
            let q: Vec<ConceptId> =
                doc.iter().copied().chain(docs[i + 100].iter().copied()).step_by(5).collect();
            let q = &q[..q.len().min(4)];
            let scan: Vec<f64> =
                snap.rds_full_scan(q, 10).unwrap().results.iter().map(|r| r.distance).collect();
            assert_eq!(rds_topk_distances(snap, q, 10), scan, "query {q:?}");
        }
    }

    #[test]
    fn smallest_keeps_the_k_least_in_order() {
        assert_eq!(smallest(vec![5.0, 1.0, 4.0, 2.0, 3.0], 3), vec![1.0, 2.0, 3.0]);
        assert_eq!(smallest(vec![2.0, 1.0], 5), vec![1.0, 2.0]);
    }
}

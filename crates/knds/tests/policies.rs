//! The two frontier policies of the kNDS driver, pinned to each other.
//!
//! [`Knds`] drains a level-synchronous frontier with push-time state
//! dedup; [`WeightedKnds`] drains distance buckets with relaxation and
//! lazy deletion. Under [`EdgeWeights::uniform`] every bucket holds
//! exactly one BFS level, so the two must do the *same* search: identical
//! results (doc ids and distance bits) and identical work counters, for
//! RDS and SDS, at every error threshold, with state dedup on and off,
//! and for `k` below, at, and above the collection size. Under skewed
//! weights an exhaustive search must still visit each state once.

use cbr_corpus::{Corpus, CorpusGenerator, CorpusProfile};
use cbr_index::{IndexSource, MemorySource};
use cbr_knds::{Knds, KndsConfig, QueryResult, WeightedKnds};
use cbr_ontology::{fixture, ConceptId, EdgeWeights, GeneratorConfig, Ontology, OntologyGenerator};
use proptest::prelude::*;

/// The deterministic work counters both policies must agree on.
fn counters(r: &QueryResult) -> [usize; 9] {
    let m = &r.metrics;
    [
        m.drc_calls,
        m.exact_from_partial,
        m.docs_examined,
        m.candidates_seen,
        m.nodes_visited,
        m.levels as usize,
        m.forced_rounds,
        m.dense_hits,
        m.progressive_results,
    ]
}

/// Runs the full comparison grid for one query and returns the first
/// divergence, if any.
fn compare_policies(
    ont: &Ontology,
    source: &MemorySource,
    query: &[ConceptId],
    queue_cap: usize,
) -> Result<(), String> {
    let uniform = EdgeWeights::uniform(ont);
    let num_docs = source.num_docs();
    for eps in [0.0, 0.5, 0.9, 1.0] {
        for dedup in [true, false] {
            let cfg = KndsConfig::default()
                .with_error_threshold(eps)
                .with_dedup_visits(dedup)
                .with_queue_cap(queue_cap);
            let level = Knds::new(ont, source, cfg.clone());
            let bucket = WeightedKnds::new(ont, &uniform, source, cfg);
            for k in [1, 5, num_docs + 3] {
                for sds in [false, true] {
                    let (a, b) = if sds {
                        (level.sds(query, k), bucket.sds(query, k))
                    } else {
                        (level.rds(query, k), bucket.rds(query, k))
                    };
                    let case = format!(
                        "{} eps {eps} dedup {dedup} k {k} cap {queue_cap} query {query:?}",
                        if sds { "SDS" } else { "RDS" }
                    );
                    let bits = |r: &QueryResult| -> Vec<(u32, u64)> {
                        r.results.iter().map(|d| (d.doc.0, d.distance.to_bits())).collect()
                    };
                    if bits(&a) != bits(&b) {
                        return Err(format!("{case}: results {:?} vs {:?}", a.results, b.results));
                    }
                    if counters(&a) != counters(&b) {
                        return Err(format!(
                            "{case}: counters {:?} vs {:?}",
                            counters(&a),
                            counters(&b)
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

fn pick_concepts(ont: &Ontology, picks: &[u32]) -> Vec<ConceptId> {
    let mut v: Vec<ConceptId> = picks.iter().map(|&p| ConceptId(p % ont.len() as u32)).collect();
    v.sort_unstable();
    v.dedup();
    v
}

/// The paper's Figure 3 ontology and example query: the hand-checkable
/// input of the comparison.
#[test]
fn unit_weights_match_the_unweighted_engine() {
    let fig = fixture::figure3();
    let c = |n: &str| fig.concept(n);
    let corpus = Corpus::from_concept_sets(vec![
        (vec![c("F"), c("R"), c("T"), c("V")], 0),
        (vec![c("I"), c("L"), c("U")], 0),
        (vec![c("M"), c("N")], 0),
    ]);
    let source = MemorySource::build(&corpus, fig.ontology.len());
    for cap in [KndsConfig::default().queue_cap, 2] {
        compare_policies(&fig.ontology, &source, &fig.example_query(), cap).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Generated ontologies, corpora, and queries: the level policy and
    /// the uniform-weight bucket policy are the same search.
    #[test]
    fn uniform_bucket_policy_matches_level_policy(
        seed in 0u64..500,
        query_picks in prop::collection::vec(0u32..10_000, 1..5),
        small_cap in any::<bool>(),
    ) {
        let ont = OntologyGenerator::new(GeneratorConfig::small(120).with_seed(seed)).generate();
        let profile = CorpusProfile::radio_like()
            .with_num_docs(30)
            .with_mean_concepts(6.0)
            .with_seed(seed.wrapping_add(41));
        let corpus = CorpusGenerator::new(&ont, profile).generate();
        let source = MemorySource::build(&corpus, ont.len());
        let q = pick_concepts(&ont, &query_picks);
        let cap = if small_cap { 8 } else { KndsConfig::default().queue_cap };
        if let Err(diff) = compare_policies(&ont, &source, &q, cap) {
            prop_assert!(false, "seed {}: {}", seed, diff);
        }

        // Lazy deletion: whatever the weights, a search run to exhaustion
        // visits each reachable state exactly once — the same states the
        // level policy visits — even though a state may be re-pushed at a
        // shorter distance after its first push.
        let skewed = EdgeWeights::from_fn(&ont, |p, c| 1 + (p.0.wrapping_mul(7) ^ c.0) % 5);
        let all = corpus.len() + 1;
        let level = Knds::new(&ont, &source, KndsConfig::default());
        let bucket = WeightedKnds::new(&ont, &skewed, &source, KndsConfig::default());
        prop_assert_eq!(
            bucket.rds(&q, all).metrics.nodes_visited,
            level.rds(&q, all).metrics.nodes_visited
        );
    }
}

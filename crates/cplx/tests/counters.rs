//! C05 dynamic cross-validation: the `counters` cfg feature threads
//! per-loop iteration counters through the kNDS and D-Radix hot loops
//! (each marked `// cplx: counter <name>` in the source), and these
//! properties assert that the *observed* iteration counts stay within a
//! small constant factor of the *statically proven* symbolic bounds for
//! arbitrary generated ontologies, corpora, and queries.
//!
//! Instance parameters mirror the symbolic atoms of `cbr_cplx::sym`:
//! `P` is the total number of ranked Dewey addresses of the concept
//! sets fed to the engine (the paper's `|Pd| + |Pq|`), and `depth` is
//! the longest Dewey address in the ontology (the radix label length,
//! which also caps the BFS diameter from any concept at `2·depth`).

use cbr_corpus::{Corpus, CorpusGenerator, CorpusProfile};
use cbr_dradix::counters as dag_counters;
use cbr_dradix::DRadixDag;
use cbr_index::MemorySource;
use cbr_knds::counters as knds_counters;
use cbr_knds::{Knds, KndsConfig, WeightedKnds};
use cbr_ontology::{ConceptId, EdgeWeights, GeneratorConfig, Ontology, OntologyGenerator};
use proptest::prelude::*;

fn ontology(seed: u64) -> Ontology {
    OntologyGenerator::new(GeneratorConfig::small(120).with_seed(seed)).generate()
}

fn corpus(ont: &Ontology, seed: u64) -> Corpus {
    let profile = CorpusProfile::radio_like()
        .with_num_docs(30)
        .with_mean_concepts(6.0)
        .with_seed(seed.wrapping_add(17));
    CorpusGenerator::new(ont, profile).generate()
}

fn pick_concepts(ont: &Ontology, picks: &[u32]) -> Vec<ConceptId> {
    let mut v: Vec<ConceptId> = picks.iter().map(|&p| ConceptId(p % ont.len() as u32)).collect();
    v.sort_unstable();
    v.dedup();
    v
}

/// Longest Dewey address in the ontology: the `depth` atom.
fn max_depth(ont: &Ontology) -> u64 {
    let paths = ont.path_table();
    (0..ont.len() as u32)
        .flat_map(|c| paths.addresses(ConceptId(c)))
        .map(|a| a.len() as u64)
        .max()
        .unwrap_or(0)
}

/// Total ranked addresses of a concept list: the `P` atom contribution.
fn total_addresses(ont: &Ontology, concepts: &[ConceptId]) -> u64 {
    let paths = ont.path_table();
    concepts.iter().map(|&c| paths.path_count(c) as u64).sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// D-Radix build: the staging loop runs exactly `P` times (its
    /// static nest bound is `deg·P`), the suffix worklist pops at most
    /// `O(depth²)` items per inserted address, and each pop descends at
    /// most `depth` radix edges.
    #[test]
    fn dradix_counters_respect_static_bounds(
        seed in 0u64..200,
        doc_picks in prop::collection::vec(0u32..10_000, 1..6),
        query_picks in prop::collection::vec(0u32..10_000, 1..4),
    ) {
        let ont = ontology(seed);
        let doc = pick_concepts(&ont, &doc_picks);
        let query = pick_concepts(&ont, &query_picks);
        let p = total_addresses(&ont, &doc) + total_addresses(&ont, &query);
        let depth = max_depth(&ont);

        dag_counters::reset();
        let mut dag = DRadixDag::new();
        dag.build_into(&ont, &doc, &query);
        dag.tune();
        let obs = dag_counters::snapshot();

        // C01/C02: the staging nest is O(deg·P); the loop body runs
        // exactly once per ranked address of d ∪ q.
        prop_assert_eq!(obs.addrs, p);
        // C04: the worklist holds at most O(depth²) items per inserted
        // address (each split requeues two strict subranges).
        prop_assert!(
            obs.suffix_pops <= 2 * p * (depth + 1) * (depth + 1),
            "suffix_pops {} vs bound 2·P·(depth+1)² = {}",
            obs.suffix_pops,
            2 * p * (depth + 1) * (depth + 1)
        );
        // C01: the radix descent consumes ≥ 1 label component per turn,
        // so each popped item drives at most depth+1 turns.
        prop_assert!(
            obs.radix_steps <= obs.suffix_pops * (depth + 2),
            "radix_steps {} vs bound pops·(depth+2) = {}",
            obs.radix_steps,
            obs.suffix_pops * (depth + 2)
        );
    }

    /// kNDS BFS: one level per turn, exhausting within the ontology
    /// diameter (≤ 2·depth: any two concepts connect through a common
    /// root-path prefix).
    #[test]
    fn knds_level_counter_respects_static_bound(
        seed in 0u64..200,
        query_picks in prop::collection::vec(0u32..10_000, 1..4),
        k in 1usize..6,
    ) {
        let ont = ontology(seed);
        let corpus = corpus(&ont, seed);
        let source = MemorySource::build(&corpus, ont.len());
        let q = pick_concepts(&ont, &query_picks);
        let depth = max_depth(&ont);

        knds_counters::reset();
        let engine = Knds::new(&ont, &source, KndsConfig::default());
        let _ = engine.rds(&q, k);
        let obs = knds_counters::snapshot();
        prop_assert!(
            obs.levels <= 2 * depth + 2,
            "levels {} vs bound 2·depth+2 = {}",
            obs.levels,
            2 * depth + 2
        );
    }

    /// Weighted kNDS under uniform weights: the same driver loop drains
    /// one distance bucket per turn (counted as a `levels` round) and
    /// distances span the same diameter.
    #[test]
    fn weighted_bucket_counter_respects_static_bound(
        seed in 0u64..200,
        query_picks in prop::collection::vec(0u32..10_000, 1..4),
        k in 1usize..6,
    ) {
        let ont = ontology(seed);
        let corpus = corpus(&ont, seed);
        let source = MemorySource::build(&corpus, ont.len());
        let weights = EdgeWeights::uniform(&ont);
        let q = pick_concepts(&ont, &query_picks);
        let depth = max_depth(&ont);

        knds_counters::reset();
        let engine = WeightedKnds::new(&ont, &weights, &source, KndsConfig::default());
        let _ = engine.rds(&q, k);
        let obs = knds_counters::snapshot();
        prop_assert!(
            obs.levels <= 2 * depth + 2,
            "levels {} vs bound 2·depth+2 = {}",
            obs.levels,
            2 * depth + 2
        );
    }
}

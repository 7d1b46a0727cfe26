//! Weighted-edge kNDS — the Section 7 future-work variant, as the
//! bucket-queue frontier policy of the one kNDS driver.
//!
//! The paper closes by asking "how non is-a ontological edges can be
//! incorporated into the similarity function and how this would affect the
//! algorithms' performance". With per-edge integer weights
//! ([`cbr_ontology::EdgeWeights`]) the level-synchronized BFS of the
//! unit-weight engine becomes a **bucketed Dijkstra**: states pop in
//! non-decreasing accumulated weight, one bucket per integer distance.
//! Only the drain order changes, so [`WeightedKnds`] runs the driver of
//! [`Knds`](crate::Knds) with this frontier policy, and all the Algorithm 2
//! machinery carries over:
//!
//! * coverage at first (minimal-distance) pop gives exact `Md`/`M'd`
//!   entries, because pops are globally distance-ordered;
//! * after finishing bucket `d`, every uncovered term has distance at
//!   least `d + 1` (weights are ≥ 1), so the Equation 6/8 lower bounds and
//!   the Equation 9 error estimate apply verbatim;
//! * termination is still `D⁻ ≥ D⁺ₖ`, so results are exact for any `εθ`.
//!
//! Push-time state deduplication (safe with unit steps) is replaced by the
//! classic lazy-deletion rule: a state re-pushed with a smaller tentative
//! distance supersedes the old entry, and stale pops are skipped.
//!
//! Like the unit-weight engine, all per-query state (candidate table,
//! Dijkstra buckets, coverage maps, DRC scratch) lives in a borrowed
//! [`KndsWorkspace`]; use the `*_with` entry points to reuse one across
//! queries.

use crate::config::KndsConfig;
use crate::engine::{FrontierPolicy, Hooks, Kind, Knds, QueryResult, State};
use crate::workspace::{DenseTables, KndsWorkspace};
use cbr_dradix::Drc;
use cbr_index::{packing, IndexSource};
use cbr_ontology::{ConceptId, EdgeWeights, Ontology};

/// Top-k search under weighted valid-path distances.
#[derive(Debug)]
pub struct WeightedKnds<'a, S: IndexSource> {
    knds: Knds<'a, S>,
    weights: &'a EdgeWeights,
}

impl<'a, S: IndexSource> WeightedKnds<'a, S> {
    /// Creates the weighted engine.
    pub fn new(
        ontology: &'a Ontology,
        weights: &'a EdgeWeights,
        source: &'a S,
        config: KndsConfig,
    ) -> Self {
        WeightedKnds { knds: Knds::new(ontology, source, config), weights }
    }

    /// Weighted RDS: top-k under `Ddq` with weighted concept distances.
    pub fn rds(&self, query: &[ConceptId], k: usize) -> QueryResult {
        let mut ws = KndsWorkspace::new();
        self.rds_with(&mut ws, query, k)
    }

    /// [`WeightedKnds::rds`] over a caller-owned workspace; see
    /// [`Knds::rds_with`].
    pub fn rds_with(&self, ws: &mut KndsWorkspace, query: &[ConceptId], k: usize) -> QueryResult {
        self.knds.run_policy(ws, self.bucket_queue(), Kind::Rds, query, k, Hooks::default())
    }

    /// Weighted SDS: top-k under the symmetric `Ddd` with weighted
    /// concept distances.
    pub fn sds(&self, query_doc: &[ConceptId], k: usize) -> QueryResult {
        let mut ws = KndsWorkspace::new();
        self.sds_with(&mut ws, query_doc, k)
    }

    /// [`WeightedKnds::sds`] over a caller-owned workspace; see
    /// [`Knds::rds_with`].
    pub fn sds_with(
        &self,
        ws: &mut KndsWorkspace,
        query_doc: &[ConceptId],
        k: usize,
    ) -> QueryResult {
        self.knds.run_policy(ws, self.bucket_queue(), Kind::Sds, query_doc, k, Hooks::default())
    }

    fn bucket_queue(&self) -> BucketQueue<'a> {
        BucketQueue { weights: self.weights, buckets: Vec::new() }
    }
}

/// The weighted policy: distance-indexed buckets of states (`buckets[d]`
/// holds the states pushed at tentative distance `d`), relaxed through
/// the dense `best` table with lazy deletion of stale entries. Buckets
/// grow on demand; both the outer Vec and every inner Vec are retained by
/// the workspace across queries.
struct BucketQueue<'a> {
    weights: &'a EdgeWeights,
    buckets: Vec<Vec<State>>,
}

impl BucketQueue<'_> {
    // Bucket growth is retained by the workspace across queries.
    // flow: workspace-fed
    fn enqueue(
        &mut self,
        dense: &mut DenseTables,
        state: State,
        dist: u32,
        dedup: bool,
        hits: &mut usize,
    ) {
        // Dijkstra relaxation: only keep strictly improving pushes.
        let (origin, node, desc) = state;
        if dedup && !dense.improve_best(origin, node, desc, dist) {
            *hits += 1;
            return;
        }
        if self.buckets.len() <= dist as usize {
            self.buckets.resize(dist as usize + 1, Vec::new());
        }
        if let Some(bucket) = self.buckets.get_mut(dist as usize) {
            bucket.push(state);
        }
    }

    fn take_bucket(&mut self, dist: u32) -> Vec<State> {
        self.buckets.get_mut(dist as usize).map(std::mem::take).unwrap_or_default()
    }
}

impl FrontierPolicy for BucketQueue<'_> {
    const RELAXES: bool = true;

    fn distance_oracle<'o>(&self, ont: &'o Ontology) -> Drc<'o>
    where
        Self: 'o,
    {
        Drc::with_weights(ont, self.weights)
    }

    fn seed_frontier(&mut self, ws: &mut KndsWorkspace, query: &[ConceptId]) -> Vec<State> {
        self.buckets = std::mem::take(&mut ws.buckets);
        // Seeds always record their zero distance, so lazy deletion works
        // with dedup off too; distinct origins never collide.
        let mut hits = 0;
        // cplx: bound nq — one seed state per query concept
        for (i, &c) in query.iter().enumerate() {
            self.enqueue(&mut ws.dense, (packing::narrow_u32(i), c, false), 0, true, &mut hits);
        }
        self.take_bucket(0)
    }

    #[inline]
    fn is_superseded(&self, dense: &DenseTables, state: State, round: u32) -> bool {
        let (origin, node, descending) = state;
        dense.best_dist(origin, node, descending).is_some_and(|best| best < round)
    }

    fn expand_state(
        &mut self,
        ont: &Ontology,
        dense: &mut DenseTables,
        (origin, node, descending): State,
        round: u32,
        dedup: bool,
        hits: &mut usize,
    ) {
        if !descending {
            // cplx: bound deg — one relaxation per parent edge
            for &p in ont.parents(node) {
                let Some(w) = self.weights.weight(ont, p, node) else {
                    debug_assert!(false, "parent adjacency is symmetric");
                    continue;
                };
                self.enqueue(dense, (origin, p, false), round + w, dedup, hits);
            }
        }
        // cplx: bound deg — one relaxation per child edge
        for (pos, &child) in ont.children(node).iter().enumerate() {
            let w = self.weights.weight_at(node, pos);
            self.enqueue(dense, (origin, child, true), round + w, dedup, hits);
        }
    }

    fn close_round(&mut self, round: u32, mut drained: Vec<State>) -> usize {
        // Expansion only ever pushes past `round`, so the slot is final
        // for this query.
        drained.clear();
        if let Some(slot) = self.buckets.get_mut(round as usize) {
            *slot = drained;
        }
        self.buckets.iter().map(|b| b.len()).sum()
    }

    fn next_round(&mut self, round: u32) -> Option<(u32, Vec<State>)> {
        let next = self.buckets.iter().skip(round as usize + 1).position(|b| !b.is_empty())?;
        let next = round + 1 + packing::narrow_u32(next);
        Some((next, self.take_bucket(next)))
    }

    fn stash_frontier(&mut self, ws: &mut KndsWorkspace) {
        ws.buckets = std::mem::take(&mut self.buckets);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbr_corpus::{Corpus, CorpusGenerator, CorpusProfile, DocId};
    use cbr_index::MemorySource;
    use cbr_ontology::{fixture, weighted, GeneratorConfig, OntologyGenerator};

    /// Exhaustive weighted baseline for verification: the `k` smallest
    /// values of `dist` over every document's concept set.
    fn weighted_scan(
        source: &MemorySource,
        k: usize,
        dist: impl Fn(&[ConceptId]) -> f64,
    ) -> Vec<f64> {
        let mut buf = Vec::new();
        let mut dists: Vec<f64> = (0..source.num_docs())
            .map(|i| {
                buf.clear();
                source.doc_concepts(DocId::from_index(i), &mut buf);
                dist(&buf)
            })
            .collect();
        dists.sort_by(f64::total_cmp);
        dists.truncate(k);
        dists
    }

    #[test]
    fn weighted_rds_matches_exhaustive_scan() {
        let ont = OntologyGenerator::new(GeneratorConfig::small(400).with_seed(9)).generate();
        let corpus = CorpusGenerator::new(
            &ont,
            CorpusProfile::radio_like().with_num_docs(50).with_mean_concepts(8.0),
        )
        .generate();
        let source = MemorySource::build(&corpus, ont.len());
        let w = EdgeWeights::from_fn(&ont, |p, c| 1 + (p.0.wrapping_add(c.0) % 3));
        let queries: Vec<Vec<ConceptId>> = corpus
            .documents()
            .filter(|d| d.num_concepts() >= 2)
            .take(5)
            .map(|d| d.concepts()[..2].to_vec())
            .collect();
        for (i, q) in queries.iter().enumerate() {
            for eps in [0.0, 0.5, 1.0] {
                let cfg = KndsConfig::default().with_error_threshold(eps);
                let engine = WeightedKnds::new(&ont, &w, &source, cfg);
                let got: Vec<f64> = engine.rds(q, 5).results.iter().map(|r| r.distance).collect();
                let expect =
                    weighted_scan(&source, 5, |d| {
                        match weighted::document_query_distance(&ont, &w, d, q) {
                            u64::MAX => f64::INFINITY,
                            dist => dist as f64,
                        }
                    });
                assert_eq!(got.len(), expect.len());
                for (a, b) in got.iter().zip(expect.iter()) {
                    assert!(
                        (a - b).abs() < 1e-9 || (a.is_infinite() && b.is_infinite()),
                        "query {i} eps {eps}: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn weighted_sds_matches_exhaustive_scan() {
        let ont = OntologyGenerator::new(GeneratorConfig::small(300).with_seed(10)).generate();
        let corpus = CorpusGenerator::new(
            &ont,
            CorpusProfile::radio_like().with_num_docs(40).with_mean_concepts(6.0),
        )
        .generate();
        let source = MemorySource::build(&corpus, ont.len());
        let w = EdgeWeights::from_fn(&ont, |p, _| 1 + (p.0 % 2));
        let q = corpus.documents().find(|d| d.num_concepts() >= 3).unwrap().concepts().to_vec();
        let engine = WeightedKnds::new(&ont, &w, &source, KndsConfig::default());
        let got: Vec<f64> = engine.sds(&q, 5).results.iter().map(|r| r.distance).collect();
        let expect =
            weighted_scan(&source, 5, |d| weighted::document_document_distance(&ont, &w, d, &q));
        assert_eq!(got.len(), expect.len());
        for (a, b) in got.iter().zip(expect.iter()) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn heavier_weights_change_the_ranking() {
        // Sanity: the weighting actually matters — a query whose unit-weight
        // winner is reached through a penalized region must change distance.
        let fig = fixture::figure3();
        let c = |n: &str| fig.concept(n);
        let corpus = Corpus::from_concept_sets(vec![
            (vec![c("M")], 0), // near I through G
            (vec![c("T")], 0), // far from I
        ]);
        let source = MemorySource::build(&corpus, fig.ontology.len());
        let q = vec![c("I")];

        let unit = EdgeWeights::uniform(&fig.ontology);
        let a = WeightedKnds::new(&fig.ontology, &unit, &source, KndsConfig::default()).rds(&q, 2);
        assert_eq!(a.results[0].doc, DocId(0));

        // Penalize I's own edges heavily: both documents get farther, and
        // the distances reflect the weights.
        let i = c("I");
        let g = c("G");
        let heavy =
            EdgeWeights::from_fn(
                &fig.ontology,
                |p, ch| {
                    if p == i || (p == g && ch == i) {
                        50
                    } else {
                        1
                    }
                },
            );
        let b = WeightedKnds::new(&fig.ontology, &heavy, &source, KndsConfig::default()).rds(&q, 2);
        assert!(b.results[0].distance > a.results[0].distance);
    }

    #[test]
    fn weighted_workspace_reuse_matches_fresh_runs() {
        let fig = fixture::figure3();
        let c = |n: &str| fig.concept(n);
        let corpus = Corpus::from_concept_sets(vec![
            (vec![c("F"), c("R"), c("T"), c("V")], 0),
            (vec![c("I"), c("L"), c("U")], 0),
            (vec![c("M"), c("N")], 0),
        ]);
        let source = MemorySource::build(&corpus, fig.ontology.len());
        let w = EdgeWeights::from_fn(&fig.ontology, |p, _| 1 + (p.0 % 2));
        let engine = WeightedKnds::new(&fig.ontology, &w, &source, KndsConfig::default());
        let q1 = fig.example_query();
        let q2 = vec![c("M"), c("V")];
        let mut ws = KndsWorkspace::new();
        for q in [&q1, &q2, &q1] {
            let a = engine.rds_with(&mut ws, q, 3);
            let b = engine.rds(q, 3);
            assert_eq!(a.results, b.results, "weighted RDS diverged under reuse");
            let a = engine.sds_with(&mut ws, q, 3);
            let b = engine.sds(q, 3);
            assert_eq!(a.results, b.results, "weighted SDS diverged under reuse");
        }
        // A unit-weight query on the same (shared) workspace still matches.
        let plain = crate::Knds::new(&fig.ontology, &source, KndsConfig::default());
        let a = plain.rds_with(&mut ws, &q1, 3);
        let b = plain.rds(&q1, 3);
        assert_eq!(a.results, b.results, "engine interleave diverged");
    }
}

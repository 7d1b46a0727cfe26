//! The three workloads: what each builds, queries and writes.
//!
//! * `rds-1m` — read-only RDS over 1M RADIO-scale documents, one reader.
//!   Traversal and candidate bookkeeping dominate: each query admits
//!   about half the collection as candidates and examines ~130
//!   documents. Admission pruning and postings work show here.
//! * `sds-cohort` — read-only SDS over the paper's 983 PATIENT-shaped
//!   documents at ~120 concepts each, one reader. DRC distance dominates,
//!   and every document is a candidate, so admission pruning has nothing
//!   to cut: a gain on `rds-1m` should leave this workload unchanged.
//! * `mixed-1m` — the `rds-1m` collection and query list, with one
//!   open-loop writer beside the reader (appends, deletes, compactions),
//!   so epochs publish and segments multiply under the read path. It is
//!   not in `BENCHMARK.json`: the benchmark's runs must fit an hour, and
//!   two 1M workloads only fit with half the passes, which left the
//!   tail metrics too noisy to gate (see `README.md`).
//!
//! The collection and the query list are fixed per workload: a
//! SNOMED-shaped ontology, a corpus from the generator's own profile seed,
//! and a [`QUERIES`]-query list drawn with [`LIST_SEED`]. Every run and
//! every commit therefore measures the same queries. A list drawn per seed
//! would make the list's own cost vary, since a few RDS queries admit most
//! of the collection. The workload seed generates what varies between
//! runs: the order of each pass over the list, the warm-up queries, the
//! write stream and the oracle sample.
//! The engine receives only generated inputs.

use crate::writer::WriterPlan;
use cbr_corpus::{CorpusGenerator, CorpusProfile, DocId};
use cbr_knds::KndsConfig;
use cbr_ontology::{ConceptId, GeneratorConfig, OntologyGenerator};
use concept_rank::{EngineBuilder, SharedEngine};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// The query type a workload issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// Relevant document search over `nq` random concepts.
    Rds,
    /// Similar document search with a collection document as the query.
    Sds,
}

/// One workload's fixed parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Name on the command line.
    pub name: &'static str,
    /// Query type.
    pub kind: QueryKind,
    /// Documents in the bulk collection.
    pub docs: usize,
    /// Ontology concepts.
    pub ontology_concepts: usize,
    /// Result count.
    pub k: usize,
    /// RDS query concepts (unused for SDS).
    pub nq: usize,
    /// kNDS error threshold εθ.
    pub eps: f64,
    /// Set-ups per run; `setup_s` is their median. All but the last run
    /// in child processes, so that the engine the run measures is the
    /// process's only one and `peak_rss_mb` is its own.
    pub setups: usize,
    /// Query evaluations per second of `--seconds`, which set the number
    /// of passes over the list: about what the machine the benchmark was
    /// tuned on completes.
    pub evals_per_second: f64,
    /// When the writer runs.
    pub writes: Writes,
}

/// When a workload's writer runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Writes {
    /// Beside the reader, for the whole measured phase.
    Beside(WriterPlan),
    /// Alone, after the read phase of a read-only workload's traced run,
    /// so that every workload reports the `writer` layer while its reads
    /// never see a write.
    After(WriterPlan),
}

/// The writer of `mixed-1m`, with `scale`'s parameters.
const FEED: WriterPlan =
    WriterPlan { rate: 2_000, delete_every: 7, compact_every: 4_096, appends: None };

/// The writer of the read-only workloads, alone after their reads: the
/// same feed, cut at its first compaction.
const FEED_AFTER_READS: WriterPlan = WriterPlan { appends: Some(4_096), ..FEED };

/// Every workload.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "rds-1m",
        kind: QueryKind::Rds,
        docs: 1_000_000,
        ontology_concepts: 93_750,
        k: 10,
        nq: 4,
        eps: 0.9,
        setups: 3,
        evals_per_second: 8.0,
        writes: Writes::After(FEED_AFTER_READS),
    },
    Workload {
        name: "sds-cohort",
        kind: QueryKind::Sds,
        docs: 983,
        ontology_concepts: 20_000,
        k: 100,
        nq: 0,
        eps: 0.5,
        setups: 5,
        evals_per_second: 6.0,
        writes: Writes::After(FEED_AFTER_READS),
    },
    Workload {
        name: "mixed-1m",
        kind: QueryKind::Rds,
        docs: 1_000_000,
        ontology_concepts: 93_750,
        k: 10,
        nq: 4,
        eps: 0.9,
        setups: 3,
        evals_per_second: 8.0,
        writes: Writes::Beside(FEED),
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Seed of every workload's query list (`scale`'s query seed).
pub const LIST_SEED: u64 = 0x5CA1_E001;

/// Distinct queries in the measured list.
pub const QUERIES: usize = 50;

/// The reported tail percentile, per mille: with [`QUERIES`] per-query
/// figures, the p80 is the highest percentile with 10 samples beyond it.
pub const TAIL_PER_MILLE: usize = 800;

/// Fewest passes over the list: each query's figure is its best of at
/// least this many evaluations, spread over the whole measured phase.
pub const MIN_PASSES: usize = 4;

/// Queries per run compared with the exhaustive oracle (about 0.4–0.6 s
/// each).
pub const ORACLE_SAMPLES: usize = 2;

/// Untimed queries before the measured list (fill the session pool,
/// fault in the tables).
pub const WARMUP_QUERIES: usize = 3;

impl Workload {
    /// The bulk corpus profile.
    pub fn profile(&self) -> CorpusProfile {
        match self.kind {
            QueryKind::Rds => CorpusProfile::radio_scale(self.docs),
            // PATIENT shape at the `Scale::small` density.
            QueryKind::Sds => {
                CorpusProfile::patient_like().with_num_docs(self.docs).with_mean_concepts(120.0)
            }
        }
    }

    /// Passes over the list for `seconds`: at least [`MIN_PASSES`], and
    /// otherwise `seconds × evals_per_second / QUERIES`, so every commit
    /// makes the same evaluations for the same `--seconds`.
    pub fn passes(&self, seconds: u64) -> usize {
        let passes = seconds as f64 * self.evals_per_second / QUERIES as f64;
        (passes.round() as usize).max(MIN_PASSES)
    }
}

/// The order of the list in pass `pass` of a run with `seed`.
pub fn pass_order(n: usize, seed: u64, pass: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    shuffle(&mut order, mix(seed ^ 0x51 ^ ((pass as u64) << 32)));
    order
}

/// SplitMix64 finalizer: spreads nearby seeds over the seed space.
pub fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seconds each set-up stage took.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SetupTimes {
    /// Ontology generation.
    pub ontology_s: f64,
    /// Dewey path-table materialization.
    pub path_table_s: f64,
    /// Corpus generation.
    pub corpus_s: f64,
    /// Engine build (segmented index, snapshot) and `SharedEngine` wrap.
    pub build_s: f64,
}

impl SetupTimes {
    /// The whole set-up.
    pub fn total(&self) -> f64 {
        self.ontology_s + self.path_table_s + self.corpus_s + self.build_s
    }

    /// The stage times as one line of four numbers, as a child process
    /// reports them.
    pub fn to_line(&self) -> String {
        format!("{} {} {} {}", self.ontology_s, self.path_table_s, self.corpus_s, self.build_s)
    }

    /// Parses [`SetupTimes::to_line`].
    pub fn from_line(line: &str) -> Option<SetupTimes> {
        let v: Vec<f64> = line.split_whitespace().map(str::parse).collect::<Result<_, _>>().ok()?;
        match v[..] {
            [ontology_s, path_table_s, corpus_s, build_s] => {
                Some(SetupTimes { ontology_s, path_table_s, corpus_s, build_s })
            }
            _ => None,
        }
    }
}

/// One set-up in a child process (this program with `--setup-only`),
/// waited for; its engine dies with it.
pub fn build_in_child(w: &Workload) -> SetupTimes {
    let exe = std::env::current_exe().expect("the benchmark knows its own path");
    let out = std::process::Command::new(exe)
        .args(["--setup-only", w.name])
        .stderr(std::process::Stdio::inherit())
        .output()
        .expect("the set-up child starts");
    assert!(out.status.success(), "the set-up child failed: {}", out.status);
    SetupTimes::from_line(&String::from_utf8_lossy(&out.stdout))
        .expect("the set-up child prints its stage times")
}

/// Builds the workload's engine from scratch.
pub fn build(w: &Workload) -> (SharedEngine, SetupTimes) {
    let mut times = SetupTimes::default();
    let t = Instant::now();
    let ontology =
        OntologyGenerator::new(GeneratorConfig::snomed_like(w.ontology_concepts)).generate();
    times.ontology_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let _ = ontology.path_table();
    times.path_table_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let corpus = CorpusGenerator::new(&ontology, w.profile()).generate();
    times.corpus_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let engine = EngineBuilder::new()
        .knds_config(KndsConfig::default().with_error_threshold(w.eps))
        .build(ontology, corpus);
    let shared = SharedEngine::new(engine);
    times.build_s = t.elapsed().as_secs_f64();
    (shared, times)
}

/// The query and append vocabulary: the first 50,000 distinct concepts
/// of the bulk corpus, sorted (as `scale` draws them).
pub fn concept_pool(shared: &SharedEngine) -> Vec<ConceptId> {
    let snap = shared.snapshot();
    let mut seen = cbr_ontology::FxHashSet::default();
    let mut pool = Vec::new();
    for d in snap.corpus().documents() {
        pool.extend(d.concepts().iter().copied().filter(|&c| seen.insert(c)));
        if pool.len() >= 50_000 {
            break;
        }
    }
    pool.sort_unstable();
    pool
}

/// Fisher–Yates shuffle driven by `seed`.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..items.len()).rev() {
        items.swap(i, rng.random_range(0..=i));
    }
}

/// `n` queries for the workload, drawn with `seed`: `nq` distinct pool
/// concepts for RDS, distinct collection documents' concept sets for SDS.
pub fn queries(
    w: &Workload,
    shared: &SharedEngine,
    pool: &[ConceptId],
    n: usize,
    seed: u64,
) -> Vec<Vec<ConceptId>> {
    let mut rng = StdRng::seed_from_u64(seed);
    match w.kind {
        QueryKind::Rds => (0..n)
            .map(|_| {
                let mut q: Vec<ConceptId> = Vec::with_capacity(w.nq);
                while q.len() < w.nq.min(pool.len()) {
                    let c = pool[rng.random_range(0..pool.len())];
                    if !q.contains(&c) {
                        q.push(c);
                    }
                }
                q.sort_unstable();
                q
            })
            .collect(),
        QueryKind::Sds => {
            // Stratified by size: sort the documents by concept count, cut
            // the order into `n` equal strata and draw one query document
            // from each. SDS cost grows with the query's size, so every
            // seed's list then spans the same size profile, and seeds
            // differ less than independent draws would.
            let snap = shared.snapshot();
            let docs: Vec<Vec<ConceptId>> = (0..snap.num_docs())
                .map(|d| snap.document_concepts(DocId::from_index(d)).unwrap_or_default())
                .collect();
            let mut by_size: Vec<usize> = (0..docs.len()).collect();
            by_size.sort_by_key(|&d| (docs[d].len(), d));
            (0..n)
                .map(|j| {
                    let (lo, hi) = (
                        j * docs.len() / n,
                        ((j + 1) * docs.len() / n).max(j * docs.len() / n + 1),
                    );
                    docs[by_size[rng.random_range(lo..hi.min(docs.len()))]].clone()
                })
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_times_cross_the_process_boundary() {
        let t = SetupTimes { ontology_s: 0.25, path_table_s: 0.125, corpus_s: 1.5, build_s: 3.0 };
        assert_eq!(SetupTimes::from_line(&format!("{}\n", t.to_line())), Some(t));
        assert_eq!(SetupTimes::from_line("1 2 3"), None);
        assert_eq!(SetupTimes::from_line("1 2 x 4"), None);
    }

    #[test]
    fn passes_follow_the_seconds() {
        let (rds, sds) = (by_name("rds-1m").unwrap(), by_name("sds-cohort").unwrap());
        assert_eq!((rds.passes(50), sds.passes(50)), (8, 6));
        assert_eq!((rds.passes(100), sds.passes(1)), (16, MIN_PASSES));
    }

    #[test]
    fn every_pass_is_a_permutation_and_seeds_differ() {
        let a = pass_order(50, 7, 0);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(a, pass_order(50, 7, 1));
        assert_ne!(a, pass_order(50, 8, 0));
        assert_eq!(a, pass_order(50, 7, 0));
    }
}

//! The kNDS engine (Algorithm 2) for RDS and SDS queries.
//!
//! One search proceeds in **rounds** — BFS levels, or distance buckets
//! under the weighted frontier policy of [`crate::weighted`]. Round `l`
//! processes every valid-path state at distance `l` from a query concept:
//!
//! 1. **coverage** — for each state `(origin, node)` reached for the first
//!    time, the posting list of `node` updates every containing document's
//!    partial distance (`Md` of Equation 5; for SDS also the reverse map
//!    `M'd` of Equation 7 on the node's global first touch);
//! 2. **expansion** — ascending states push parents (still ascending) and
//!    children (now descending); descending states push only children, so
//!    every traversed path is ∧-shaped (the valid-path rule of
//!    Section 3.1);
//! 3. **examination** — candidates are sorted by lower bound
//!    (Equations 6/8) and examined while the error estimate
//!    `εd = 1 − Dpartial/D⁻` stays at or below `εθ` (Equation 9): complete
//!    candidates finalize from their partial sums (Section 5.3,
//!    optimization 3), incomplete ones get a DRC probe;
//! 4. **termination** — once the top-k heap is full and the smallest lower
//!    bound among unexamined *and unseen* documents reaches the k-th
//!    distance `D⁺ₖ`, the remaining collection is provably outside the
//!    top-k.
//!
//! Exactness does not depend on `εθ` or the queue watermark: both only
//! steer when exact distances are computed.
//!
//! Every [`Knds`] and [`WeightedKnds`](crate::WeightedKnds) entry point
//! funnels into one runner over a borrowed [`KndsWorkspace`]; the `*_with`
//! variants reuse a caller-owned workspace so steady-state queries
//! allocate nothing.

use crate::config::KndsConfig;
use crate::metrics::QueryMetrics;
use crate::util::TopK;
use crate::workspace::{DenseTables, KndsWorkspace};
use cbr_corpus::DocId;
use cbr_dradix::Drc;
use cbr_index::{packing, IndexSource};
use cbr_ontology::{ConceptId, Ontology};
use std::time::Instant;

/// One ranked result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankedDoc {
    /// The document.
    pub doc: DocId,
    /// Its exact distance from the query (`Ddq` for RDS — an integer value
    /// widened to `f64` — or the normalized `Ddd` for SDS).
    pub distance: f64,
}

/// Results plus instrumentation for one query.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// The top-k documents, ascending by distance (ties by id).
    pub results: Vec<RankedDoc>,
    /// Work and timing counters.
    pub metrics: QueryMetrics,
}

/// The kNDS query engine over an ontology and an [`IndexSource`].
#[derive(Debug)]
pub struct Knds<'a, S: IndexSource> {
    ontology: &'a Ontology,
    source: &'a S,
    config: KndsConfig,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    Rds,
    Sds,
}

/// One row of the dense candidate table (`Md` bookkeeping of Equation 5).
/// The per-origin coverage bits live in the workspace's shared arena (one
/// `cover_stride` span per row), so a row is a small flat record and
/// admission allocates nothing.
#[derive(Debug)]
pub(crate) struct Candidate {
    /// Query concepts covered by the forward expansion.
    pub(crate) covered: u32,
    /// Σ of first-touch levels over covered query concepts.
    pub(crate) partial: u64,
    /// SDS only: concepts of this document touched by any expansion.
    pub(crate) rev_covered: u32,
    /// SDS only: Σ of first-touch levels over covered document concepts.
    pub(crate) rev_sum: u64,
    /// `|d|` (number of concepts), needed by the SDS normalizers.
    pub(crate) doc_len: u32,
    pub(crate) examined: bool,
}

impl Candidate {
    pub(crate) fn new(doc_len: u32) -> Candidate {
        Candidate { covered: 0, partial: 0, rev_covered: 0, rev_sum: 0, doc_len, examined: false }
    }
}

impl<'a, S: IndexSource> Knds<'a, S> {
    /// Creates an engine over `ontology` and `source`.
    pub fn new(ontology: &'a Ontology, source: &'a S, config: KndsConfig) -> Self {
        Knds { ontology, source, config }
    }

    /// The active configuration.
    pub fn config(&self) -> &KndsConfig {
        &self.config
    }

    /// Evaluates an RDS query (Definition 1): the `k` documents minimizing
    /// `Ddq(d, q)` (Equation 2). `query` is treated as a set.
    ///
    /// ```
    /// use cbr_corpus::Corpus;
    /// use cbr_index::MemorySource;
    /// use cbr_knds::{Knds, KndsConfig};
    /// use cbr_ontology::fixture;
    ///
    /// let fig = fixture::figure3();
    /// let corpus = Corpus::from_concept_sets(vec![
    ///     (fig.example_document(), 0),
    ///     (fig.example_query(), 0),
    /// ]);
    /// let source = MemorySource::build(&corpus, fig.ontology.len());
    /// let knds = Knds::new(&fig.ontology, &source, KndsConfig::default());
    ///
    /// let top = knds.rds(&fig.example_query(), 2);
    /// assert_eq!(top.results[0].distance, 0.0); // doc 1 is the query itself
    /// assert_eq!(top.results[1].distance, 7.0); // the paper's Example 1
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `query` is empty or `k` is zero.
    pub fn rds(&self, query: &[ConceptId], k: usize) -> QueryResult {
        let mut ws = KndsWorkspace::new();
        self.rds_with(&mut ws, query, k)
    }

    /// [`Knds::rds`] over a caller-owned workspace: identical results,
    /// but all per-query state reuses `ws`'s capacity, so a warm
    /// workspace makes the hot loop allocation-free.
    ///
    /// ```
    /// use cbr_corpus::Corpus;
    /// use cbr_index::MemorySource;
    /// use cbr_knds::{Knds, KndsConfig, KndsWorkspace};
    /// use cbr_ontology::fixture;
    ///
    /// let fig = fixture::figure3();
    /// let corpus = Corpus::from_concept_sets(vec![
    ///     (fig.example_document(), 0),
    ///     (fig.example_query(), 0),
    /// ]);
    /// let source = MemorySource::build(&corpus, fig.ontology.len());
    /// let knds = Knds::new(&fig.ontology, &source, KndsConfig::default());
    ///
    /// let mut ws = KndsWorkspace::new();
    /// let cold = knds.rds_with(&mut ws, &fig.example_query(), 2);
    /// let warm = knds.rds_with(&mut ws, &fig.example_query(), 2);
    /// assert_eq!(cold.results, warm.results);
    /// assert_eq!(warm.metrics.workspace_reused, 1);
    /// ```
    pub fn rds_with(&self, ws: &mut KndsWorkspace, query: &[ConceptId], k: usize) -> QueryResult {
        self.run_hooked(ws, Kind::Rds, query, k, Hooks::default())
    }

    /// Evaluates an SDS query (Definition 2): the `k` documents minimizing
    /// the symmetric `Ddd(d, dq)` (Equation 3), where `query_doc` is the
    /// query document's concept set.
    ///
    /// # Panics
    ///
    /// Panics if `query_doc` is empty or `k` is zero.
    pub fn sds(&self, query_doc: &[ConceptId], k: usize) -> QueryResult {
        let mut ws = KndsWorkspace::new();
        self.sds_with(&mut ws, query_doc, k)
    }

    /// [`Knds::sds`] over a caller-owned workspace; see
    /// [`Knds::rds_with`].
    pub fn sds_with(
        &self,
        ws: &mut KndsWorkspace,
        query_doc: &[ConceptId],
        k: usize,
    ) -> QueryResult {
        self.run_hooked(ws, Kind::Sds, query_doc, k, Hooks::default())
    }

    /// RDS with progressive emission (Section 5.3, optimization 4):
    /// `on_final` fires for each document the moment it is *provably* in
    /// the top-k — its exact distance is strictly below every unexamined
    /// and unseen document's lower bound — and the emission order is
    /// non-decreasing in distance. Every result is emitted exactly once;
    /// the returned [`QueryResult`] is identical to [`Knds::rds`].
    pub fn rds_streaming(
        &self,
        query: &[ConceptId],
        k: usize,
        on_final: impl FnMut(RankedDoc),
    ) -> QueryResult {
        let mut ws = KndsWorkspace::new();
        self.run_hooked(&mut ws, Kind::Rds, query, k, Hooks::streaming(on_final))
    }

    /// [`Knds::rds_streaming`] over a caller-owned workspace; see
    /// [`Knds::rds_with`] for the reuse contract.
    pub fn rds_streaming_with(
        &self,
        ws: &mut KndsWorkspace,
        query: &[ConceptId],
        k: usize,
        on_final: impl FnMut(RankedDoc),
    ) -> QueryResult {
        self.run_hooked(ws, Kind::Rds, query, k, Hooks::streaming(on_final))
    }

    /// SDS with progressive emission; see [`Knds::rds_streaming`].
    pub fn sds_streaming(
        &self,
        query_doc: &[ConceptId],
        k: usize,
        on_final: impl FnMut(RankedDoc),
    ) -> QueryResult {
        let mut ws = KndsWorkspace::new();
        self.run_hooked(&mut ws, Kind::Sds, query_doc, k, Hooks::streaming(on_final))
    }

    /// [`Knds::sds_streaming`] over a caller-owned workspace; see
    /// [`Knds::rds_with`] for the reuse contract.
    pub fn sds_streaming_with(
        &self,
        ws: &mut KndsWorkspace,
        query_doc: &[ConceptId],
        k: usize,
        on_final: impl FnMut(RankedDoc),
    ) -> QueryResult {
        self.run_hooked(ws, Kind::Sds, query_doc, k, Hooks::streaming(on_final))
    }

    /// RDS with a [`TraceEvent`](crate::trace::TraceEvent) stream — the
    /// paper's Table 2 walkthrough, live. Tracing is verbose; use it for
    /// debugging and teaching, not benchmarking.
    pub fn rds_traced(
        &self,
        query: &[ConceptId],
        k: usize,
        on_trace: impl FnMut(crate::trace::TraceEvent),
    ) -> QueryResult {
        let mut ws = KndsWorkspace::new();
        self.run_hooked(&mut ws, Kind::Rds, query, k, Hooks::traced(on_trace))
    }

    /// [`Knds::rds_traced`] over a caller-owned workspace; see
    /// [`Knds::rds_with`] for the reuse contract.
    pub fn rds_traced_with(
        &self,
        ws: &mut KndsWorkspace,
        query: &[ConceptId],
        k: usize,
        on_trace: impl FnMut(crate::trace::TraceEvent),
    ) -> QueryResult {
        self.run_hooked(ws, Kind::Rds, query, k, Hooks::traced(on_trace))
    }

    /// SDS with a trace stream; see [`Knds::rds_traced`].
    pub fn sds_traced(
        &self,
        query_doc: &[ConceptId],
        k: usize,
        on_trace: impl FnMut(crate::trace::TraceEvent),
    ) -> QueryResult {
        let mut ws = KndsWorkspace::new();
        self.run_hooked(&mut ws, Kind::Sds, query_doc, k, Hooks::traced(on_trace))
    }

    /// [`Knds::sds_traced`] over a caller-owned workspace; see
    /// [`Knds::rds_with`] for the reuse contract.
    pub fn sds_traced_with(
        &self,
        ws: &mut KndsWorkspace,
        query_doc: &[ConceptId],
        k: usize,
        on_trace: impl FnMut(crate::trace::TraceEvent),
    ) -> QueryResult {
        self.run_hooked(ws, Kind::Sds, query_doc, k, Hooks::traced(on_trace))
    }

    /// The runner behind every entry point: the level frontier policy.
    fn run_hooked(
        &self,
        ws: &mut KndsWorkspace,
        kind: Kind,
        query: &[ConceptId],
        k: usize,
        hooks: Hooks<'_>,
    ) -> QueryResult {
        self.run_policy(ws, LevelFrontier::default(), kind, query, k, hooks)
    }

    /// The single runner behind both engines: normalizes the query into
    /// the workspace, runs the search over borrowed scratch with the
    /// given frontier policy, and returns the workspace clean (even the
    /// DRC DAG arena is round-tripped through it).
    pub(crate) fn run_policy<F: FrontierPolicy>(
        &self,
        ws: &mut KndsWorkspace,
        frontier: F,
        kind: Kind,
        query: &[ConceptId],
        k: usize,
        hooks: Hooks<'_>,
    ) -> QueryResult {
        assert!(k > 0, "k must be positive");
        let reused = ws.begin();
        let mut q = std::mem::take(&mut ws.query);
        crate::util::normalize_query_into(query, &mut q);
        assert!(!q.is_empty(), "query must contain at least one concept");
        // Open a dense-table epoch sized to this query's geometry (the SDS
        // reverse map needs the first-touch table; only a relaxing policy
        // needs the tentative-distance table).
        let rolled = ws.dense.begin_query(
            q.len(),
            self.ontology.len(),
            self.source.num_docs(),
            kind == Kind::Sds,
            F::RELAXES,
        );

        let drc = frontier.distance_oracle(self.ontology).with_scratch(ws.take_dag());
        let mut search = Search {
            ont: self.ontology,
            source: self.source,
            drc,
            config: &self.config,
            kind,
            nq: q.len(),
            query: q,
            ws,
            frontier,
            heap: TopK::new(k),
            metrics: QueryMetrics { epoch_rollover: rolled as usize, ..QueryMetrics::default() },
            hooks,
        };
        let mut result = search.run();

        let Search { drc, mut query, ws, .. } = search;
        query.clear();
        ws.query = query;
        ws.restore_dag(drc.into_scratch());
        ws.finish();
        result.metrics.workspace_reused = reused as usize;
        result.metrics.workspace_bytes = ws.footprint_bytes();
        result.metrics.table_bytes = ws.dense.footprint_bytes();
        result
    }
}

/// The optional per-query sinks.
#[derive(Default)]
pub(crate) struct Hooks<'h> {
    /// Progressive-result sink (Section 5.3, optimization 4).
    on_final: Option<Box<dyn FnMut(RankedDoc) + 'h>>,
    /// Trace sink (the Table 2 walkthrough).
    on_trace: Option<crate::trace::TraceSink<'h>>,
}

impl<'h> Hooks<'h> {
    fn streaming(on_final: impl FnMut(RankedDoc) + 'h) -> Self {
        Hooks { on_final: Some(Box::new(on_final)), on_trace: None }
    }

    fn traced(on_trace: impl FnMut(crate::trace::TraceEvent) + 'h) -> Self {
        Hooks { on_final: None, on_trace: Some(Box::new(on_trace)) }
    }
}

/// BFS state: `(origin query-concept index, node, has descended?)`.
/// Ascending states (`false`) may still move to parents; once a state
/// descends to a child the flag flips and only further descents are valid.
pub(crate) type State = (u32, ConceptId, bool);

/// The order in which the driver drains its frontier — the only thing
/// the unit-weight BFS of Section 5 and the weighted-edge extension of
/// Section 7 do differently. A *round* is one BFS level (unit weights)
/// or one distance bucket (weights); once round `r` is drained, every
/// uncovered term is at distance ≥ `r + 1`, which is all the Equation
/// 6/8 lower bounds and the termination test rely on. [`Search`] is
/// monomorphized over its policy, so the per-state calls are static.
pub(crate) trait FrontierPolicy {
    /// Whether the policy relaxes tentative distances, i.e. needs the
    /// dense `best` table.
    const RELAXES: bool;

    /// The DRC distance oracle under the policy's edge metric.
    fn distance_oracle<'o>(&self, ont: &'o Ontology) -> Drc<'o>
    where
        Self: 'o;

    /// Detaches the frontier buffers from `ws` and returns round 0: one
    /// ascending state per query concept.
    fn seed_frontier(&mut self, ws: &mut KndsWorkspace, query: &[ConceptId]) -> Vec<State>;

    /// Whether a drained state was superseded by a shorter re-push
    /// (lazy deletion); such a state is skipped.
    fn is_superseded(&self, _dense: &DenseTables, _state: State, _round: u32) -> bool {
        false
    }

    /// Queues the valid-path neighbors of `state`, drained in `round`:
    /// once a traversal has descended it may not ascend again (the
    /// "{G,F} not pushed" rule of Example 4). Pushes rejected by the
    /// dedup rule count into `hits`.
    fn expand_state(
        &mut self,
        ont: &Ontology,
        dense: &mut DenseTables,
        state: State,
        round: u32,
        dedup: bool,
        hits: &mut usize,
    );

    /// Takes a drained round's buffer back (capacity retained) and
    /// returns the states queued for later rounds — what `queue_cap` is
    /// compared against.
    fn close_round(&mut self, round: u32, drained: Vec<State>) -> usize;

    /// The next non-empty round after `round` and its states; `None`
    /// once the frontier is exhausted.
    fn next_round(&mut self, round: u32) -> Option<(u32, Vec<State>)>;

    /// Re-attaches the frontier buffers to `ws`.
    fn stash_frontier(&mut self, ws: &mut KndsWorkspace);
}

/// The unit-weight policy: a level-synchronous frontier over two
/// buffers that trade places between levels instead of allocating
/// (`next` is the level being built, `spare` the one last drained).
/// Every edge is one hop, so a state's first push is at its minimal
/// distance and push-time dedup (`mark_state`) is exact.
#[derive(Default)]
struct LevelFrontier {
    next: Vec<State>,
    spare: Vec<State>,
}

impl LevelFrontier {
    #[inline]
    fn enqueue(&mut self, dense: &mut DenseTables, state: State, dedup: bool, hits: &mut usize) {
        let (origin, node, desc) = state;
        if dedup && !dense.mark_state(origin, node, desc) {
            *hits += 1;
            return;
        }
        self.next.push(state);
    }
}

impl FrontierPolicy for LevelFrontier {
    const RELAXES: bool = false;

    fn distance_oracle<'o>(&self, ont: &'o Ontology) -> Drc<'o>
    where
        Self: 'o,
    {
        Drc::new(ont)
    }

    fn seed_frontier(&mut self, ws: &mut KndsWorkspace, query: &[ConceptId]) -> Vec<State> {
        self.next = std::mem::take(&mut ws.next_frontier);
        self.next.clear();
        let mut seeds = std::mem::take(&mut ws.frontier);
        seeds.clear();
        seeds.extend(query.iter().enumerate().map(|(i, &c)| (packing::narrow_u32(i), c, false)));
        // Marked even with dedup off, where the marks are never read.
        // cplx: bound nq — one seed state per query concept
        for &(origin, node, desc) in &seeds {
            ws.dense.mark_state(origin, node, desc);
        }
        seeds
    }

    fn expand_state(
        &mut self,
        ont: &Ontology,
        dense: &mut DenseTables,
        (origin, node, descending): State,
        _round: u32,
        dedup: bool,
        hits: &mut usize,
    ) {
        if !descending {
            // cplx: bound deg — one push per parent edge
            for &p in ont.parents(node) {
                self.enqueue(dense, (origin, p, false), dedup, hits);
            }
        }
        // cplx: bound deg — one push per child edge
        for &c in ont.children(node) {
            self.enqueue(dense, (origin, c, true), dedup, hits);
        }
    }

    fn close_round(&mut self, _round: u32, drained: Vec<State>) -> usize {
        self.spare = drained;
        self.next.len()
    }

    fn next_round(&mut self, round: u32) -> Option<(u32, Vec<State>)> {
        if self.next.is_empty() {
            return None;
        }
        let states = std::mem::replace(&mut self.next, std::mem::take(&mut self.spare));
        self.next.clear();
        Some((round + 1, states))
    }

    fn stash_frontier(&mut self, ws: &mut KndsWorkspace) {
        ws.frontier = std::mem::take(&mut self.spare);
        ws.next_frontier = std::mem::take(&mut self.next);
    }
}

struct Search<'a, 'w, S: IndexSource, F> {
    ont: &'a Ontology,
    source: &'a S,
    drc: Drc<'a>,
    config: &'a KndsConfig,
    kind: Kind,
    query: Vec<ConceptId>,
    nq: usize,
    /// All per-query maps and buffers live here, borrowed for this query.
    ws: &'w mut KndsWorkspace,
    /// The frontier policy (its buffers are detached from `ws` while the
    /// query runs).
    frontier: F,
    heap: TopK,
    metrics: QueryMetrics,
    hooks: Hooks<'a>,
}

impl<S: IndexSource, F: FrontierPolicy> Search<'_, '_, S, F> {
    fn run(&mut self) -> QueryResult {
        let dedup = self.config.dedup_visits;
        let mut current = self.frontier.seed_frontier(self.ws, &self.query);

        let mut level: u32 = 0;
        // cplx: bound depth — one BFS level or distance bucket per turn, exhausting within the diameter; cplx: counter levels
        loop {
            #[cfg(feature = "counters")]
            crate::counters::bump_levels();
            self.trace(|| crate::trace::TraceEvent::LevelStart { level, frontier: current.len() });
            // --- coverage + expansion (traversal bucket) --------------------
            let t0 = Instant::now();
            for &state in &current {
                if self.frontier.is_superseded(&self.ws.dense, state, level) {
                    continue;
                }
                let (origin, node, _) = state;
                self.metrics.nodes_visited += 1;
                self.apply_coverage(origin, node, level);
                self.frontier.expand_state(
                    self.ont,
                    &mut self.ws.dense,
                    state,
                    level,
                    dedup,
                    &mut self.metrics.dense_hits,
                );
            }
            let forced = self.frontier.close_round(level, current) > self.config.queue_cap;
            if forced {
                self.metrics.forced_rounds += 1;
            }
            self.metrics.traversal += t0.elapsed();
            self.metrics.levels += 1;

            // --- examination (distance-calculation bucket) ------------------
            let min_unexamined = self.examine(level, forced);

            // --- termination -------------------------------------------------
            let d_minus = min_unexamined.min(self.unseen_bound(level));
            if self.config.progressive {
                let final_now = self.heap.iter().filter(|&(_, d)| d <= d_minus).count();
                self.metrics.progressive_results = self.metrics.progressive_results.max(final_now);
                self.emit_final(d_minus);
            }
            if self.heap.is_full() && d_minus >= self.heap.threshold() {
                let threshold = self.heap.threshold();
                self.trace(|| crate::trace::TraceEvent::Terminated { level, d_minus, threshold });
                break;
            }
            match self.frontier.next_round(level) {
                Some((next, states)) => (level, current) = (next, states),
                None => {
                    self.finalize_exhausted();
                    break;
                }
            }
        }
        self.frontier.stash_frontier(self.ws);

        self.metrics.candidates_seen = self.ws.dense.cand.len();
        let results: Vec<RankedDoc> = std::mem::replace(&mut self.heap, TopK::new(1))
            .into_sorted()
            .into_iter()
            .map(|(doc, distance)| RankedDoc { doc, distance })
            .collect();
        // Flush the remaining results (already sorted) to the sink.
        if let Some(sink) = self.hooks.on_final.as_mut() {
            for &r in &results {
                if self.ws.dense.mark_doc(r.doc) {
                    sink(r);
                }
            }
        }
        QueryResult { results, metrics: std::mem::take(&mut self.metrics) }
    }

    /// Emits every held result whose distance is strictly below `d_minus`:
    /// no unexamined or unseen document can beat it, so it is final. Any
    /// later emission has distance ≥ `d_minus`, keeping the stream sorted.
    fn emit_final(&mut self, d_minus: f64) {
        if self.hooks.on_final.is_none() {
            return;
        }
        let mut ready = std::mem::take(&mut self.ws.order);
        ready.clear();
        ready.extend(
            self.heap
                .iter()
                .filter(|&(doc, d)| d < d_minus && !self.ws.dense.doc_marked(doc))
                .map(|(doc, d)| (d, doc)),
        );
        ready.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        if let Some(sink) = self.hooks.on_final.as_mut() {
            for &(distance, doc) in &ready {
                self.ws.dense.mark_doc(doc);
                sink(RankedDoc { doc, distance });
            }
        }
        ready.clear();
        self.ws.order = ready;
    }

    /// Applies the posting list of `node` to the candidate bookkeeping:
    /// forward coverage once per `(origin, node)`, reverse coverage (SDS)
    /// once per `node`.
    // cplx: bound nq*post — amortized: the dense pair marks admit each (origin,
    // concept) pair once per query, so the posting scans sum to nq·Σ|postings|
    fn apply_coverage(&mut self, origin: u32, node: ConceptId, level: u32) {
        let fwd_new = self.ws.dense.mark_pair(origin, node);
        let rev_new = self.kind == Kind::Sds && self.ws.dense.touch_first(node);
        if !fwd_new && !rev_new {
            return;
        }

        // Detach the postings buffer so the loop below can mutate the
        // candidate table without aliasing the workspace borrow.
        let mut postings = std::mem::take(&mut self.ws.postings_buf);
        let t = Instant::now();
        postings.clear();
        self.source.postings(node, &mut postings);
        self.metrics.io += t.elapsed();

        for &d in &postings {
            let slot = match self.ws.dense.slot_of(d) {
                Some(slot) => {
                    self.metrics.dense_hits += 1;
                    slot
                }
                None => {
                    let len = if self.kind == Kind::Sds {
                        packing::narrow_u32(self.source.doc_len(d))
                    } else {
                        0
                    };
                    self.ws.dense.insert_candidate(d, len)
                }
            };
            self.ws.dense.apply_to_candidate(slot, origin, level, fwd_new, rev_new);
        }
        self.ws.postings_buf = postings;
    }

    /// Sorts unexamined candidates by lower bound and examines while the
    /// error estimate allows (or unconditionally in a forced round).
    /// Returns the smallest lower bound left unexamined.
    fn examine(&mut self, level: u32, forced: bool) -> f64 {
        let t0 = Instant::now();
        let mut order = std::mem::take(&mut self.ws.order);
        order.clear();
        order.extend(
            self.ws
                .dense
                .cand_docs
                .iter()
                .zip(self.ws.dense.cand.iter())
                .filter(|(_, c)| !c.examined)
                .map(|(&d, c)| (self.lower_bound(c, level), d)),
        );
        order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        self.metrics.traversal += t0.elapsed();

        if self.hooks.on_trace.is_some() {
            for &(_, doc) in &order {
                let entry = self.ws.dense.slot_of(doc).and_then(|s| self.ws.dense.candidate(s));
                if let Some(c) = entry {
                    let (covered, partial) = (c.covered, c.partial);
                    self.trace(|| crate::trace::TraceEvent::Candidate { doc, covered, partial });
                }
            }
        }

        let mut min_unexamined = f64::INFINITY;
        for &(lb, doc) in &order {
            if self.heap.is_full() && lb >= self.heap.threshold() {
                // Optimization 1 (Section 5.3): nothing below this bound can
                // enter the top-k; the sorted order makes the rest moot too.
                min_unexamined = lb;
                break;
            }
            // `order` was built from the candidate rows, so the lookup cannot
            // miss; degrade to skipping the entry rather than panicking.
            let Some(slot) = self.ws.dense.slot_of(doc) else {
                debug_assert!(false, "ordered candidate {doc:?} missing from the slot map");
                continue;
            };
            let Some(c) = self.ws.dense.candidate(slot) else {
                debug_assert!(false, "slot of {doc:?} points past the candidate rows");
                continue;
            };
            let eps = self.error_estimate(c, lb);
            if !forced && eps > self.config.error_threshold {
                min_unexamined = lb;
                break;
            }
            let complete = self.is_complete(c);
            let partial = self.partial_distance(c);
            let (exact, via_drc) = self.exact_distance(doc, complete, partial);
            if let Some(cand) = self.ws.dense.candidate_mut(slot) {
                cand.examined = true;
            }
            self.metrics.docs_examined += 1;
            self.heap.offer(doc, exact);
            self.trace(|| crate::trace::TraceEvent::Examined {
                doc,
                lower_bound: lb,
                error: eps,
                exact,
                via_drc,
            });
        }
        order.clear();
        self.ws.order = order;
        let threshold = self.heap.threshold();
        self.trace(|| crate::trace::TraceEvent::ExamineBreak { min_unexamined, threshold });
        min_unexamined
    }

    /// Emits a trace event if a sink is attached (the closure keeps event
    /// construction off the hot path).
    #[inline]
    fn trace(&mut self, event: impl FnOnce() -> crate::trace::TraceEvent) {
        if let Some(sink) = self.hooks.on_trace.as_mut() {
            sink(event());
        }
    }

    /// Equation 6 (RDS) / Equation 8 (SDS): partial distance plus `l + 1`
    /// for every uncovered term.
    // bound: proven — nq ≥ 1 (asserted at query entry) and every counter is
    // bounded by nq · max ontology depth, far below the 2^53 f64 mantissa
    fn lower_bound(&self, c: &Candidate, level: u32) -> f64 {
        let next = (level + 1) as u64;
        let fwd = c.partial + (self.nq as u64 - c.covered as u64) * next;
        match self.kind {
            Kind::Rds => fwd as f64,
            Kind::Sds => {
                let rev = c.rev_sum + (c.doc_len as u64 - c.rev_covered as u64) * next;
                fwd as f64 / self.nq as f64 + rev as f64 / c.doc_len.max(1) as f64
            }
        }
    }

    /// The partial (currently known) distance — Equation 5 / 7.
    // bound: proven — nq ≥ 1 (asserted at query entry); partial and rev_sum
    // are sums of ≤ nq·doc_len hop counts, far below the 2^53 f64 mantissa
    fn partial_distance(&self, c: &Candidate) -> f64 {
        match self.kind {
            Kind::Rds => c.partial as f64,
            Kind::Sds => {
                c.partial as f64 / self.nq as f64 + c.rev_sum as f64 / c.doc_len.max(1) as f64
            }
        }
    }

    /// Equation 9: `εd = 1 − Dpartial / D⁻`.
    fn error_estimate(&self, c: &Candidate, lb: f64) -> f64 {
        if lb <= 0.0 {
            return 0.0;
        }
        1.0 - self.partial_distance(c) / lb
    }

    /// Whether the candidate's partial information already determines its
    /// exact distance (Section 5.3, optimization 3).
    fn is_complete(&self, c: &Candidate) -> bool {
        match self.kind {
            Kind::Rds => c.covered as usize == self.nq,
            Kind::Sds => c.covered as usize == self.nq && c.rev_covered == c.doc_len,
        }
    }

    /// Smallest possible distance of a document no expansion has seen yet:
    /// every term is uncovered, so every term contributes at least `l + 1`.
    // bound: proven — nq is the query concept count, far below 2^53
    fn unseen_bound(&self, level: u32) -> f64 {
        let next = (level + 1) as f64;
        match self.kind {
            Kind::Rds => self.nq as f64 * next,
            Kind::Sds => 2.0 * next,
        }
    }

    /// Exact distance of `doc` and whether DRC was needed: complete partial
    /// information short-circuits (Section 5.3, optimization 3), otherwise
    /// a DRC probe runs (rebuilding the workspace's DAG arena in place).
    /// `complete` and `partial` are precomputed by the caller from the
    /// candidate entry (see [`Search::is_complete`]).
    // cplx: bound deg*p*log+depth*depth*depth*deg*p — one probe is one
    // D-Radix build over Pd ∪ Pq (the dradix::dag::build_into root); its
    // nq/nd staging terms fold into p, since every concept has ≥ 1 address
    fn exact_distance(&mut self, doc: DocId, complete: bool, partial: f64) -> (f64, bool) {
        if complete {
            self.metrics.exact_from_partial += 1;
            return (partial, false);
        }

        let t = Instant::now();
        self.ws.concepts_buf.clear();
        self.source.doc_concepts(doc, &mut self.ws.concepts_buf);
        self.metrics.io += t.elapsed();

        let t = Instant::now();
        let exact = match self.kind {
            Kind::Rds => {
                let d = self.drc.document_query_distance(&self.ws.concepts_buf, &self.query);
                if d == cbr_dradix::INFINITE {
                    f64::INFINITY
                } else {
                    d as f64
                }
            }
            Kind::Sds => self.drc.document_document_distance(&self.ws.concepts_buf, &self.query),
        };
        self.metrics.distance_calc += t.elapsed();
        self.metrics.drc_calls += 1;
        (exact, true)
    }

    /// The expansion exhausted every reachable state: every candidate's
    /// coverage is complete, so partial sums *are* the exact distances.
    /// Documents never seen contain no reachable concepts (i.e. none at
    /// all) and sit at infinite distance.
    fn finalize_exhausted(&mut self) {
        let t0 = Instant::now();
        let finalized = self.ws.dense.cand.iter().filter(|c| !c.examined).count();
        self.trace(|| crate::trace::TraceEvent::Exhausted { finalized });
        let dense = &self.ws.dense;
        for (&doc, c) in dense.cand_docs.iter().zip(&dense.cand).filter(|(_, c)| !c.examined) {
            debug_assert_eq!(c.covered as usize, self.nq, "exhaustion implies full coverage");
            self.metrics.exact_from_partial += 1;
            self.metrics.docs_examined += 1;
            self.heap.offer(doc, self.partial_distance(c));
        }
        if !self.heap.is_full() {
            for i in 0..self.source.num_docs() {
                let d = DocId::from_index(i);
                if self.ws.dense.slot_of(d).is_none() && self.source.is_live(d) {
                    self.heap.offer(d, f64::INFINITY);
                }
            }
        }
        self.metrics.distance_calc += t0.elapsed();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbr_corpus::Corpus;
    use cbr_index::MemorySource;
    use cbr_ontology::fixture;

    /// A small collection over the Figure 3 ontology.
    fn setup() -> (fixture::Figure3, Corpus, MemorySource) {
        let fig = fixture::figure3();
        let c = |n: &str| fig.concept(n);
        let corpus = Corpus::from_concept_sets(vec![
            (vec![c("F"), c("R"), c("T"), c("V")], 0), // the paper's example doc
            (vec![c("I"), c("L"), c("U")], 0),         // equals the example query
            (vec![c("M"), c("N")], 0),
            (vec![c("C")], 0),
            (vec![c("G"), c("H")], 0),
            (vec![c("U"), c("L")], 0),
        ]);
        let source = MemorySource::build(&corpus, fig.ontology.len());
        (fig, corpus, source)
    }

    #[test]
    fn rds_finds_exact_match_first() {
        let (fig, _corpus, source) = setup();
        let knds = Knds::new(&fig.ontology, &source, KndsConfig::default());
        let q = fig.example_query(); // {I, L, U} == doc 1
        let r = knds.rds(&q, 2);
        assert_eq!(r.results[0].doc, DocId(1));
        assert_eq!(r.results[0].distance, 0.0);
        assert_eq!(r.results.len(), 2);
    }

    #[test]
    fn rds_distances_match_drc() {
        let (fig, corpus, source) = setup();
        let knds = Knds::new(&fig.ontology, &source, KndsConfig::default());
        let mut drc = Drc::new(&fig.ontology);
        let q = fig.example_query();
        let r = knds.rds(&q, 6);
        assert_eq!(r.results.len(), 6);
        for rd in &r.results {
            let doc = corpus.get(rd.doc);
            let expect = drc.document_query_distance(doc.concepts(), &q);
            assert_eq!(rd.distance, expect as f64, "distance of {:?}", rd.doc);
        }
        // Ranking is non-decreasing.
        for w in r.results.windows(2) {
            assert!(w[0].distance <= w[1].distance);
        }
    }

    #[test]
    fn example_doc_query_distance_is_seven() {
        let (fig, _corpus, source) = setup();
        let knds = Knds::new(&fig.ontology, &source, KndsConfig::default());
        let r = knds.rds(&fig.example_query(), 6);
        let d0 = r.results.iter().find(|r| r.doc == DocId(0)).unwrap();
        assert_eq!(d0.distance, 7.0, "Example 1 of the paper");
    }

    #[test]
    fn sds_self_similarity_is_zero() {
        let (fig, _corpus, source) = setup();
        let knds = Knds::new(&fig.ontology, &source, KndsConfig::default());
        let q = fig.example_query();
        let r = knds.sds(&q, 1);
        assert_eq!(r.results[0].doc, DocId(1));
        assert_eq!(r.results[0].distance, 0.0);
    }

    #[test]
    fn k_larger_than_collection_returns_everything() {
        let (fig, _corpus, source) = setup();
        let knds = Knds::new(&fig.ontology, &source, KndsConfig::default());
        let r = knds.rds(&[fig.concept("U")], 100);
        assert_eq!(r.results.len(), 6, "all documents returned");
    }

    #[test]
    fn duplicate_query_concepts_collapse() {
        let (fig, _corpus, source) = setup();
        let knds = Knds::new(&fig.ontology, &source, KndsConfig::default());
        let u = fig.concept("U");
        let a = knds.rds(&[u, u, u], 3);
        let b = knds.rds(&[u], 3);
        for (x, y) in a.results.iter().zip(b.results.iter()) {
            assert_eq!(x.doc, y.doc);
            assert_eq!(x.distance, y.distance);
        }
    }

    #[test]
    #[should_panic(expected = "at least one concept")]
    fn empty_query_panics() {
        let (fig, _corpus, source) = setup();
        Knds::new(&fig.ontology, &source, KndsConfig::default()).rds(&[], 1);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        let (fig, _corpus, source) = setup();
        Knds::new(&fig.ontology, &source, KndsConfig::default()).rds(&[fig.concept("U")], 0);
    }

    #[test]
    fn metrics_are_populated() {
        let (fig, _corpus, source) = setup();
        let knds = Knds::new(&fig.ontology, &source, KndsConfig::default());
        let r = knds.rds(&fig.example_query(), 2);
        assert!(r.metrics.nodes_visited > 0);
        assert!(r.metrics.levels > 0);
        assert!(r.metrics.docs_examined >= 2);
        assert!(r.metrics.candidates_seen >= r.metrics.docs_examined);
    }

    #[test]
    fn workspace_reuse_matches_fresh_runs() {
        let (fig, _corpus, source) = setup();
        let knds = Knds::new(&fig.ontology, &source, KndsConfig::default());
        let q1 = fig.example_query();
        let q2 = vec![fig.concept("M"), fig.concept("V")];
        let mut ws = KndsWorkspace::new();
        // Interleave RDS and SDS on one workspace; each must equal a
        // fresh-workspace run exactly.
        for (i, q) in [&q1, &q2, &q1].iter().enumerate() {
            let a = knds.rds_with(&mut ws, q, 4);
            let b = knds.rds(q, 4);
            assert_eq!(a.results, b.results, "RDS round {i} diverged under reuse");
            let a = knds.sds_with(&mut ws, q, 4);
            let b = knds.sds(q, 4);
            assert_eq!(a.results, b.results, "SDS round {i} diverged under reuse");
        }
        assert!(ws.footprint_bytes() > 0, "workspace warmed up");
    }

    #[test]
    fn steady_state_queries_stop_growing_the_workspace() {
        let (fig, _corpus, source) = setup();
        let knds = Knds::new(&fig.ontology, &source, KndsConfig::default());
        let q1 = fig.example_query();
        let q2 = vec![fig.concept("M"), fig.concept("V")];
        let mut ws = KndsWorkspace::new();
        // Warm-up pass over every query shape.
        let cold = knds.rds_with(&mut ws, &q1, 4);
        assert_eq!(cold.metrics.workspace_reused, 0, "first query is cold");
        knds.sds_with(&mut ws, &q1, 4);
        knds.rds_with(&mut ws, &q2, 4);
        knds.sds_with(&mut ws, &q2, 4);
        let warm = ws.footprint_bytes();
        // Steady state: repeated queries must not grow any buffer.
        for _ in 0..3 {
            let r = knds.rds_with(&mut ws, &q1, 4);
            assert_eq!(r.metrics.workspace_reused, 1);
            assert_eq!(r.metrics.workspace_bytes, warm, "RDS grew the workspace");
            let r = knds.sds_with(&mut ws, &q2, 4);
            assert_eq!(r.metrics.workspace_bytes, warm, "SDS grew the workspace");
        }
    }
}

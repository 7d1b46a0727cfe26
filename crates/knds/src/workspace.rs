//! Reusable per-query scratch for the kNDS engines.
//!
//! Every kNDS query needs a family of lookup tables and buffers — the
//! candidate table, the coverage sets, the BFS frontier, posting/concept
//! fetch buffers, and the DRC DAG scratch. Allocating them per query
//! dominates short-query latency and defeats the paper's "no
//! precomputation, instant admission" story at service scale. A
//! [`KndsWorkspace`] owns all of that state once: engines borrow it for
//! the duration of one query via the `*_with` entry points
//! ([`Knds::rds_with`](crate::Knds::rds_with) and friends), clear it —
//! never free it — on return, and the hot loop stops allocating after the
//! first few queries warm the capacities up.
//!
//! # Dense epoch-stamped tables
//!
//! The per-state lookups of Algorithm 2 (BFS dedup, coverage-applied
//! pairs, the candidate map, Dijkstra tentative distances) live in
//! [`DenseTables`]: flat arrays sized by `|C|` and `|D|`, indexed by
//! arithmetic on `(origin, concept)` or by `DocId`, with **epoch stamps**
//! instead of per-query clearing. Every entry carries the epoch of the
//! query that last wrote it; a stamp that does not match the current
//! epoch reads as empty. Opening a query bumps one counter — O(1)
//! regardless of how much the previous query touched — and the arrays are
//! never memset between queries. When the 32-bit counter wraps (once per
//! ~4 billion queries) the stamps are zeroed wholesale so no entry from
//! the pre-wrap era can alias a live epoch; the event is surfaced as the
//! [`epoch_rollover`](crate::QueryMetrics::epoch_rollover) metric and
//! regression-tested via [`KndsWorkspace::force_epoch_wrap`].
//!
//! # Poisoning
//!
//! A query that panics mid-flight leaves the workspace dirty. The next
//! borrow detects this and resets the logical content before use, so a
//! pooled workspace can never leak one query's candidates into another's
//! results.

use crate::engine::{Candidate, State};
use cbr_corpus::DocId;
use cbr_dradix::DagScratch;
use cbr_index::packing;
use cbr_ontology::ConceptId;

/// Owned, reusable query state for [`Knds`](crate::Knds),
/// [`WeightedKnds`](crate::WeightedKnds), and the scan baselines.
///
/// One workspace serves one query at a time but any number of queries in
/// sequence — RDS, SDS, weighted, and baseline runs may interleave freely
/// on the same workspace and are bit-identical to fresh-state runs (see
/// the reuse-equivalence property tests in `tests/properties.rs`).
#[derive(Debug, Default)]
pub struct KndsWorkspace {
    /// Normalized (sorted, deduplicated) query buffer.
    pub(crate) query: Vec<ConceptId>,
    /// Dense epoch-stamped state tables (candidates, coverage, dedup,
    /// Dijkstra distances, doc marks) — the hash-free hot path.
    pub(crate) dense: DenseTables,
    /// Posting-list fetch buffer.
    pub(crate) postings_buf: Vec<DocId>,
    /// Forward-index fetch buffer.
    pub(crate) concepts_buf: Vec<ConceptId>,
    /// Level frontier policy: the current BFS level (double-buffered).
    pub(crate) frontier: Vec<State>,
    /// Level frontier policy: the next BFS level (swap-and-clear).
    pub(crate) next_frontier: Vec<State>,
    /// Bucket-queue frontier policy (weights): distance-indexed buckets.
    pub(crate) buckets: Vec<Vec<State>>,
    /// Examination order buffer: `(lower bound, doc)` per round.
    pub(crate) order: Vec<(f64, DocId)>,
    /// The DRC D-Radix build scratch (node/label arenas et al.).
    pub(crate) dag: DagScratch,
    /// True while a query is in flight (or after a panic left one
    /// unfinished); `begin` resets a dirty workspace before reuse.
    dirty: bool,
    /// Queries served so far (drives the `workspace_reused` metric).
    uses: usize,
}

impl KndsWorkspace {
    /// An empty workspace; capacity accrues over the first queries.
    pub fn new() -> KndsWorkspace {
        KndsWorkspace::default()
    }

    /// Marks the start of a query. Returns whether the workspace has
    /// served a query before (i.e. its capacities are warm). If the
    /// previous query panicked mid-flight the logical content is still
    /// present; it is cleared here before reuse.
    pub(crate) fn begin(&mut self) -> bool {
        if self.dirty {
            self.clear();
        }
        self.dirty = true;
        let warm = self.uses > 0;
        self.uses = self.uses.saturating_add(1);
        warm
    }

    /// Marks the end of a query: clears all logical content (keeping
    /// capacity) so the workspace is returned clean.
    pub(crate) fn finish(&mut self) {
        self.clear();
        self.dirty = false;
    }

    /// Pre-sizes the `|C|`- and `|D|`-indexed dense tables for an index
    /// of `concepts` concepts and `docs` documents, so a pooled or
    /// per-worker workspace does not grow them inside its first query.
    /// Origin-dependent tables still size at query begin (once `nq` is
    /// known), which also keeps pooled workspaces correct when the index
    /// grows between queries.
    pub fn reserve(&mut self, concepts: usize, docs: usize) {
        self.dense.reserve(concepts, docs);
    }

    /// Test-only hook: primes the epoch counter so the *next* query wraps
    /// it, exercising the full-stamp-reset path (`epoch_rollover`).
    #[doc(hidden)]
    pub fn force_epoch_wrap(&mut self) {
        self.dense.epoch = u32::MAX;
    }

    /// Detaches the DRC scratch for the duration of a query (it rides
    /// inside a [`Drc`](cbr_dradix::Drc) value); pair with
    /// [`restore_dag`](Self::restore_dag).
    pub(crate) fn take_dag(&mut self) -> DagScratch {
        std::mem::take(&mut self.dag)
    }

    /// Re-attaches the DRC scratch after a query.
    pub(crate) fn restore_dag(&mut self, dag: DagScratch) {
        self.dag = dag;
    }

    fn clear(&mut self) {
        self.query.clear();
        self.dense.clear();
        self.postings_buf.clear();
        self.concepts_buf.clear();
        self.frontier.clear();
        self.next_frontier.clear();
        for b in &mut self.buckets {
            b.clear();
        }
        self.order.clear();
        // The DAG scratch clears itself on the next build; the dense
        // stamp arrays are invalidated by the next epoch bump.
    }

    /// Approximate heap footprint of the retained capacities, in bytes.
    /// This is the quantity reported as
    /// [`QueryMetrics::workspace_bytes`](crate::QueryMetrics) and asserted
    /// stable by the steady-state allocation tests: once warm, repeated
    /// queries must not grow any backing buffer.
    pub fn footprint_bytes(&self) -> usize {
        use std::mem::size_of;
        self.query.capacity() * size_of::<ConceptId>()
            + self.dense.footprint_bytes()
            + self.postings_buf.capacity() * size_of::<DocId>()
            + self.concepts_buf.capacity() * size_of::<ConceptId>()
            + (self.frontier.capacity() + self.next_frontier.capacity()) * size_of::<State>()
            + self.buckets.capacity() * size_of::<Vec<State>>()
            + self.buckets.iter().map(|b| b.capacity() * size_of::<State>()).sum::<usize>()
            + self.order.capacity() * size_of::<(f64, DocId)>()
            + self.dag.footprint_bytes()
    }
}

/// The dense, epoch-stamped replacement for the per-query hash maps.
///
/// Layouts (all indexes are plain arithmetic, no hashing):
///
/// * **packed state** `(origin, node, descending)` →
///   `(origin · |C| + node) · 2 + descending` — one bit per state in
///   `state_bits` (BFS dedup) and one `u32` per state in `best`
///   (weighted tentative distances);
/// * **pair** `(origin, node)` → `origin · |C| + node` — one bit per pair
///   in `pair_bits` (coverage applied);
/// * **concept** `node` → one stamp in `touch_stamps` (SDS global first
///   touch);
/// * **document** `doc` → one bit in `doc_bits` (progressive emission /
///   TA scan marks) and one packed `stamp << 32 | row` entry in `slots`
///   pointing into the dense candidate rows.
///
/// Bitsets stamp per 64-bit word, with the stamp *beside* the word (one
/// [`StampedWord`] per 64 entries) so a test-and-set touches a single
/// cache line; value arrays stamp per entry. A stamp equal to the current
/// epoch means live; any other value reads as empty, which is what makes
/// clearing O(1).
///
/// Candidates are *rows*, not map entries: `slots[doc]` points at
/// parallel `cand`/`cand_docs` vectors, and each row owns `cover_stride`
/// words of the shared `cover_words` arena for its per-query-concept
/// coverage bits — no per-candidate heap allocation anywhere.
#[derive(Debug, Default)]
pub(crate) struct DenseTables {
    /// Current query generation; stamps equal to this are live.
    epoch: u32,
    /// `|C|` used for state/pair indexing this query.
    concepts: usize,
    /// Words per candidate coverage row this query (`⌈nq / 64⌉`).
    cover_stride: usize,
    /// BFS state visited bits, stamped per word.
    state_bits: Vec<StampedWord>,
    /// `(origin, node)` coverage-applied bits, stamped per word.
    pair_bits: Vec<StampedWord>,
    /// Per-document mark bits (emitted / TA-seen), stamped per word.
    doc_bits: Vec<StampedWord>,
    /// SDS: per-concept first-touch stamps (a pure set; the touch level
    /// itself is applied to candidates at mark time).
    touch_stamps: Vec<u32>,
    /// Weighted: per-state best tentative distance + per-entry stamps.
    best: Vec<u32>,
    best_stamps: Vec<u32>,
    /// Document → candidate row index, packed `stamp << 32 | slot` so one
    /// load answers the (random-access, cache-hostile) slot lookup.
    slots: Vec<u64>,
    /// Dense candidate rows (`Md` bookkeeping), truncated between queries.
    pub(crate) cand: Vec<Candidate>,
    /// Parallel row → document mapping (drives iteration in examine /
    /// finalize without touching the `|D|`-sized slot map).
    pub(crate) cand_docs: Vec<DocId>,
    /// Shared coverage-bit arena: row `r` owns words
    /// `[r · cover_stride, (r + 1) · cover_stride)`.
    cover_words: Vec<u64>,
}

/// One stamped bitset word: 64 membership bits and the epoch that wrote
/// them, side by side so a test-and-set touches one cache line instead of
/// two parallel arrays.
#[derive(Debug, Default, Clone, Copy)]
struct StampedWord {
    word: u64,
    stamp: u32,
}

/// Grows a stamped bitset to hold `bits` entries. Never shrinks; new
/// words arrive with stamp 0, which is dead for every live epoch.
// flow: workspace-fed
fn grow_words(words: &mut Vec<StampedWord>, bits: usize) {
    let n = bits.div_ceil(64);
    if words.len() < n {
        words.resize(n, StampedWord::default());
    }
}

/// Tests-and-sets bit `idx` of a stamped bitset: `Some(true)` if the bit
/// was newly set this epoch, `Some(false)` if it was already live, `None`
/// if `idx` is out of range.
#[inline]
fn set_bit(words: &mut [StampedWord], epoch: u32, idx: usize) -> Option<bool> {
    let mask = 1u64 << (idx & 63);
    let e = words.get_mut(idx >> 6)?;
    if e.stamp != epoch {
        e.stamp = epoch;
        e.word = 0;
    }
    let fresh = e.word & mask == 0;
    e.word |= mask;
    Some(fresh)
}

/// Reads bit `idx` of a stamped bitset (out of range reads as unset).
#[inline]
fn test_bit(words: &[StampedWord], epoch: u32, idx: usize) -> bool {
    match words.get(idx >> 6) {
        Some(e) => e.stamp == epoch && e.word & (1u64 << (idx & 63)) != 0,
        None => false,
    }
}

impl DenseTables {
    /// Packed index of a BFS state (see the type-level layout docs).
    #[inline]
    fn state_index(&self, origin: u32, node: ConceptId, descending: bool) -> usize {
        debug_assert!(node.index() < self.concepts, "node beyond the sized concept bound");
        // bound: proven — the table is allocated at 2·origins·concepts, so the shift fits usize
        ((origin as usize * self.concepts + node.index()) << 1) | descending as usize
    }

    /// Opens a new query epoch and grows the tables to the query's
    /// geometry (`origins` query concepts over `concepts` ontology ids
    /// and `docs` documents). Growth happens here — at workspace
    /// acquisition — and never mid-query; a warm workspace re-sizes
    /// nothing and pays exactly one counter bump. Returns whether the
    /// epoch counter wrapped (forcing the one-time full stamp reset).
    // flow: workspace-fed
    pub(crate) fn begin_query(
        &mut self,
        origins: usize,
        concepts: usize,
        docs: usize,
        needs_touch: bool,
        needs_best: bool,
    ) -> bool {
        self.concepts = concepts;
        self.cover_stride = origins.div_ceil(64).max(1);
        let states = origins * concepts * 2;
        grow_words(&mut self.state_bits, states);
        grow_words(&mut self.pair_bits, origins * concepts);
        grow_words(&mut self.doc_bits, docs);
        if needs_touch && self.touch_stamps.len() < concepts {
            self.touch_stamps.resize(concepts, 0);
        }
        if needs_best && self.best.len() < states {
            self.best.resize(states, 0);
            self.best_stamps.resize(states, 0);
        }
        if self.slots.len() < docs {
            self.slots.resize(docs, 0);
        }
        self.cand.clear();
        self.cand_docs.clear();
        self.cover_words.clear();

        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // The counter wrapped: stamps written ~4 billion queries ago
            // would now alias a live epoch. Reset them all once and
            // restart the epoch sequence above the dead stamp value.
            for e in &mut self.state_bits {
                e.stamp = 0;
            }
            for e in &mut self.pair_bits {
                e.stamp = 0;
            }
            for e in &mut self.doc_bits {
                e.stamp = 0;
            }
            for s in &mut self.touch_stamps {
                *s = 0;
            }
            for s in &mut self.best_stamps {
                *s = 0;
            }
            for s in &mut self.slots {
                *s = 0;
            }
            self.epoch = 1;
            return true;
        }
        false
    }

    /// Pre-sizes the `|C|`/`|D|`-indexed tables (see
    /// [`KndsWorkspace::reserve`]).
    // flow: workspace-fed
    pub(crate) fn reserve(&mut self, concepts: usize, docs: usize) {
        if self.touch_stamps.len() < concepts {
            self.touch_stamps.resize(concepts, 0);
        }
        grow_words(&mut self.doc_bits, docs);
        if self.slots.len() < docs {
            self.slots.resize(docs, 0);
        }
    }

    /// Truncates the per-query candidate rows (capacity retained). The
    /// stamped arrays need no touch: the next epoch bump invalidates them.
    pub(crate) fn clear(&mut self) {
        self.cand.clear();
        self.cand_docs.clear();
        self.cover_words.clear();
    }

    /// Marks BFS state `(origin, node, descending)` visited; `true` if it
    /// was not yet visited this query.
    #[inline]
    pub(crate) fn mark_state(&mut self, origin: u32, node: ConceptId, descending: bool) -> bool {
        let idx = self.state_index(origin, node, descending);
        match set_bit(&mut self.state_bits, self.epoch, idx) {
            Some(fresh) => fresh,
            None => {
                debug_assert!(false, "state table smaller than the query geometry");
                false
            }
        }
    }

    /// Marks `(origin, node)` coverage-applied; `true` if newly applied.
    #[inline]
    pub(crate) fn mark_pair(&mut self, origin: u32, node: ConceptId) -> bool {
        debug_assert!(node.index() < self.concepts, "node beyond the sized concept bound");
        let idx = origin as usize * self.concepts + node.index();
        match set_bit(&mut self.pair_bits, self.epoch, idx) {
            Some(fresh) => fresh,
            None => {
                debug_assert!(false, "pair table smaller than the query geometry");
                false
            }
        }
    }

    /// SDS: records the global first touch of `node`; `true` exactly once
    /// per query per concept.
    #[inline]
    pub(crate) fn touch_first(&mut self, node: ConceptId) -> bool {
        let Some(stamp) = self.touch_stamps.get_mut(node.index()) else {
            debug_assert!(false, "touch table smaller than the ontology");
            return false;
        };
        if *stamp == self.epoch {
            return false;
        }
        *stamp = self.epoch;
        true
    }

    /// Weighted: the live best tentative distance of a state, if any.
    #[inline]
    pub(crate) fn best_dist(&self, origin: u32, node: ConceptId, descending: bool) -> Option<u32> {
        let idx = self.state_index(origin, node, descending);
        match (self.best.get(idx), self.best_stamps.get(idx)) {
            (Some(&v), Some(&s)) if s == self.epoch => Some(v),
            _ => None,
        }
    }

    /// Weighted relaxation: keeps `dist` iff it strictly improves (or
    /// first-sets) the state's tentative distance; `true` if kept.
    #[inline]
    pub(crate) fn improve_best(
        &mut self,
        origin: u32,
        node: ConceptId,
        descending: bool,
        dist: u32,
    ) -> bool {
        let idx = self.state_index(origin, node, descending);
        let epoch = self.epoch;
        let Some(stamp) = self.best_stamps.get_mut(idx) else {
            debug_assert!(false, "best table smaller than the query geometry");
            // Degrade to processing the push (duplicate work, never a
            // dropped state) — the sound direction.
            return true;
        };
        let Some(val) = self.best.get_mut(idx) else {
            debug_assert!(false, "best table smaller than the query geometry");
            return true;
        };
        if *stamp == epoch && *val <= dist {
            return false;
        }
        *stamp = epoch;
        *val = dist;
        true
    }

    /// The candidate row of `doc`, if one exists this query.
    #[inline]
    pub(crate) fn slot_of(&self, doc: DocId) -> Option<usize> {
        let &e = self.slots.get(doc.index())?;
        let (stamp, slot) = packing::unpack_stamp_slot(e);
        (stamp == self.epoch).then_some(slot as usize)
    }

    /// Appends a candidate row for `doc` and points the slot map at it.
    /// Rows and their arena words are retained capacity: pushes stop
    /// allocating once the workspace has seen the collection's reach.
    // flow: workspace-fed
    pub(crate) fn insert_candidate(&mut self, doc: DocId, doc_len: u32) -> usize {
        let slot = self.cand.len();
        self.cand.push(Candidate::new(doc_len));
        self.cand_docs.push(doc);
        // The arena was truncated at query begin, so the row's words are
        // freshly zeroed here (capacity, not contents, is retained).
        self.cover_words.resize(self.cover_words.len() + self.cover_stride, 0);
        let i = doc.index();
        debug_assert!(i < self.slots.len(), "doc beyond the sized document bound");
        if let Some(e) = self.slots.get_mut(i) {
            *e = packing::pack_stamp_slot(self.epoch, packing::narrow_u32(slot));
        }
        slot
    }

    /// Applies one posting hit to the row at `slot` in a single row
    /// access: skips examined rows (already in `Sd`, Algorithm 2 line
    /// 11), forward-covers `origin` at `level` if `fwd`, reverse-covers
    /// (SDS) if `rev`.
    #[inline]
    pub(crate) fn apply_to_candidate(
        &mut self,
        slot: usize,
        origin: u32,
        level: u32,
        fwd: bool,
        rev: bool,
    ) {
        let Some(c) = self.cand.get_mut(slot) else {
            debug_assert!(false, "posting hit without a candidate row");
            return;
        };
        if c.examined {
            return;
        }
        if fwd {
            let w = slot * self.cover_stride + (origin as usize >> 6);
            let mask = 1u64 << (origin & 63);
            if let Some(word) = self.cover_words.get_mut(w) {
                if *word & mask == 0 {
                    *word |= mask;
                    c.covered += 1;
                    c.partial += level as u64;
                }
            } else {
                debug_assert!(false, "coverage row beyond the arena");
            }
        }
        if rev {
            c.rev_covered += 1;
            c.rev_sum += level as u64;
        }
    }

    /// The candidate row at `slot`.
    #[inline]
    pub(crate) fn candidate(&self, slot: usize) -> Option<&Candidate> {
        self.cand.get(slot)
    }

    /// The candidate row at `slot`, mutably.
    #[inline]
    pub(crate) fn candidate_mut(&mut self, slot: usize) -> Option<&mut Candidate> {
        self.cand.get_mut(slot)
    }

    /// Marks `doc` (progressive emission / TA scan); `true` if newly
    /// marked this query.
    #[inline]
    pub(crate) fn mark_doc(&mut self, doc: DocId) -> bool {
        match set_bit(&mut self.doc_bits, self.epoch, doc.index()) {
            Some(fresh) => fresh,
            None => {
                debug_assert!(false, "doc table smaller than the collection");
                false
            }
        }
    }

    /// Whether `doc` is marked this query.
    #[inline]
    pub(crate) fn doc_marked(&self, doc: DocId) -> bool {
        test_bit(&self.doc_bits, self.epoch, doc.index())
    }

    /// Retained bytes of every dense table — the
    /// [`table_bytes`](crate::QueryMetrics::table_bytes) metric and part
    /// of the workspace footprint.
    pub(crate) fn footprint_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.state_bits.capacity() + self.pair_bits.capacity() + self.doc_bits.capacity())
            * size_of::<StampedWord>()
            + (self.touch_stamps.capacity() + self.best.capacity() + self.best_stamps.capacity())
                * size_of::<u32>()
            + self.slots.capacity() * size_of::<u64>()
            + self.cand.capacity() * size_of::<Candidate>()
            + self.cand_docs.capacity() * size_of::<DocId>()
            + self.cover_words.capacity() * size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn begin_reports_warmth_and_finish_returns_clean() {
        let mut ws = KndsWorkspace::new();
        assert!(!ws.begin(), "first borrow is cold");
        ws.postings_buf.push(DocId(1));
        ws.finish();
        assert!(!ws.dirty);
        assert!(ws.postings_buf.is_empty(), "finish clears content");
        assert!(ws.begin(), "second borrow is warm");
    }

    #[test]
    fn dirty_workspace_is_cleared_on_next_begin() {
        let mut ws = KndsWorkspace::new();
        ws.begin();
        ws.query.push(ConceptId(3));
        ws.dense.begin_query(1, 8, 4, false, false);
        ws.dense.insert_candidate(DocId(0), 0);
        // No finish(): simulates a panic mid-query.
        ws.begin();
        assert!(ws.query.is_empty(), "stale query leaked");
        assert!(ws.dense.cand.is_empty(), "stale candidates leaked");
    }

    #[test]
    fn clearing_keeps_capacity() {
        let mut ws = KndsWorkspace::new();
        ws.begin();
        ws.postings_buf.extend((0..100).map(DocId));
        ws.buckets.push(vec![(0, ConceptId(0), false); 16]);
        ws.dense.begin_query(2, 64, 32, true, true);
        ws.dense.insert_candidate(DocId(5), 3);
        let footprint = ws.footprint_bytes();
        ws.finish();
        assert_eq!(ws.footprint_bytes(), footprint, "finish must keep capacity");
    }

    #[test]
    fn epoch_bump_empties_every_table_without_clearing() {
        let mut d = DenseTables::default();
        d.begin_query(2, 16, 8, true, true);
        assert!(d.mark_state(1, ConceptId(3), true), "first visit");
        assert!(!d.mark_state(1, ConceptId(3), true), "dup visit");
        assert!(d.mark_pair(0, ConceptId(7)));
        assert!(d.touch_first(ConceptId(9)));
        assert!(d.improve_best(1, ConceptId(2), false, 5));
        assert!(!d.improve_best(1, ConceptId(2), false, 5), "equal is not an improvement");
        assert!(d.improve_best(1, ConceptId(2), false, 4), "strict improvement");
        assert_eq!(d.best_dist(1, ConceptId(2), false), Some(4));
        assert!(d.mark_doc(DocId(6)));
        assert!(d.doc_marked(DocId(6)));
        let slot = d.insert_candidate(DocId(4), 2);
        assert_eq!(d.slot_of(DocId(4)), Some(slot));
        d.apply_to_candidate(slot, 0, 1, true, false);
        assert_eq!(d.candidate(slot).map(|c| (c.covered, c.partial)), Some((1, 1)));
        d.apply_to_candidate(slot, 0, 2, true, false);
        assert_eq!(
            d.candidate(slot).map(|c| (c.covered, c.partial)),
            Some((1, 1)),
            "origin already covered"
        );

        // Next query: everything reads empty again, at O(1) cost.
        d.begin_query(2, 16, 8, true, true);
        assert!(d.mark_state(1, ConceptId(3), true), "stale visit leaked");
        assert!(d.mark_pair(0, ConceptId(7)), "stale pair leaked");
        assert!(d.touch_first(ConceptId(9)), "stale touch leaked");
        assert_eq!(d.best_dist(1, ConceptId(2), false), None, "stale distance leaked");
        assert!(!d.doc_marked(DocId(6)), "stale doc mark leaked");
        assert_eq!(d.slot_of(DocId(4)), None, "stale slot leaked");
        assert!(d.cand.is_empty(), "stale rows leaked");
    }

    #[test]
    fn epoch_wrap_resets_stamps_instead_of_aliasing() {
        let mut d = DenseTables::default();
        assert!(!d.begin_query(1, 8, 4, true, true));
        d.mark_state(0, ConceptId(1), false);
        d.mark_pair(0, ConceptId(2));
        d.mark_doc(DocId(3));
        // Prime the counter at the wrap boundary, as the workspace hook
        // does, then open the wrapping query.
        d.epoch = u32::MAX;
        assert!(d.begin_query(1, 8, 4, true, true), "wrap must be reported");
        assert!(d.mark_state(0, ConceptId(1), false), "pre-wrap visit aliased the new epoch");
        assert!(d.mark_pair(0, ConceptId(2)), "pre-wrap pair aliased the new epoch");
        assert!(d.mark_doc(DocId(3)), "pre-wrap doc mark aliased the new epoch");
        assert!(!d.begin_query(1, 8, 4, true, true), "post-wrap queries are ordinary");
    }

    #[test]
    fn geometry_can_grow_between_queries() {
        let mut d = DenseTables::default();
        d.begin_query(1, 4, 2, false, false);
        d.mark_state(0, ConceptId(3), true);
        let small = d.footprint_bytes();
        // A wider query over a grown index re-sizes at begin and the old
        // stamps stay dead under the new indexing.
        d.begin_query(3, 64, 50, true, true);
        assert!(d.footprint_bytes() > small, "tables grew with the geometry");
        for c in 0..64u32 {
            for o in 0..3u32 {
                assert!(d.mark_state(o, ConceptId(c), false), "stale state under new geometry");
            }
        }
    }

    #[test]
    fn reserve_pre_sizes_the_collection_tables() {
        let mut ws = KndsWorkspace::new();
        ws.reserve(1000, 500);
        let reserved = ws.footprint_bytes();
        assert!(reserved > 0);
        // A query inside the reserved bounds grows nothing doc/concept
        // sized (state/pair tables still size by nq at begin).
        ws.dense.begin_query(0, 0, 400, true, false);
        assert_eq!(ws.footprint_bytes(), reserved, "reserved tables re-grew");
    }
}

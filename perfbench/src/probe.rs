//! The `index` layer seen from outside: an [`IndexSource`] wrapper.
//!
//! The traced run hands kNDS this wrapper around the snapshot's
//! [`SegmentedView`]. It times `postings` and `doc_concepts` (the calls
//! that move data) and only counts `doc_len` and `is_live`, which are
//! too cheap to time without the clock dominating them.

use cbr_corpus::DocId;
use cbr_index::{IndexSource, SegmentedView};
use cbr_ontology::ConceptId;
use std::cell::Cell;
use std::time::Instant;

/// Work and time the index layer did for one query.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct IndexWork {
    /// `postings` calls.
    pub postings_calls: u64,
    /// Document ids those calls returned.
    pub postings_docs: u64,
    /// `doc_concepts` (forward index) calls.
    pub forward_calls: u64,
    /// Concepts those calls returned.
    pub forward_concepts: u64,
    /// `doc_len` calls.
    pub len_calls: u64,
    /// `is_live` calls.
    pub live_calls: u64,
    /// Time inside `postings` and `doc_concepts` (ns).
    pub self_ns: u64,
}

/// A counting, timing view over a [`SegmentedView`].
#[derive(Debug)]
pub struct TimedSource<'a> {
    inner: &'a SegmentedView,
    work: Cell<IndexWork>,
}

impl<'a> TimedSource<'a> {
    /// Wraps `inner` with zeroed counters.
    pub fn new(inner: &'a SegmentedView) -> TimedSource<'a> {
        TimedSource { inner, work: Cell::new(IndexWork::default()) }
    }

    /// The counters so far.
    pub fn work(&self) -> IndexWork {
        self.work.get()
    }

    fn update(&self, f: impl FnOnce(&mut IndexWork)) {
        let mut w = self.work.get();
        f(&mut w);
        self.work.set(w);
    }
}

fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl IndexSource for TimedSource<'_> {
    fn postings(&self, c: ConceptId, out: &mut Vec<DocId>) {
        let before = out.len();
        let t = Instant::now();
        self.inner.postings(c, out);
        let ns = elapsed_ns(t);
        self.update(|w| {
            w.postings_calls += 1;
            w.postings_docs += (out.len() - before) as u64;
            w.self_ns += ns;
        });
    }

    fn doc_concepts(&self, d: DocId, out: &mut Vec<ConceptId>) {
        let before = out.len();
        let t = Instant::now();
        self.inner.doc_concepts(d, out);
        let ns = elapsed_ns(t);
        self.update(|w| {
            w.forward_calls += 1;
            w.forward_concepts += (out.len() - before) as u64;
            w.self_ns += ns;
        });
    }

    fn doc_len(&self, d: DocId) -> usize {
        self.update(|w| w.len_calls += 1);
        self.inner.doc_len(d)
    }

    fn num_docs(&self) -> usize {
        self.inner.num_docs()
    }

    fn is_live(&self, d: DocId) -> bool {
        self.update(|w| w.live_calls += 1);
        self.inner.is_live(d)
    }
}

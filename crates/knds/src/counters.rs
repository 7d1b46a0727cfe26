//! Per-thread loop-iteration counters for the C05 dynamic cross-check.
//!
//! Compiled only under the `counters` cfg feature (which also forwards
//! to `cbr-dradix/counters`): release and bench builds carry no trace
//! of these. Each counter pairs with a `// cplx: counter <name>` marker
//! on a hot loop; the `cbr-cplx` test harness resets them, runs queries
//! over generated corpora, and asserts the observed iteration counts
//! stay within a constant factor of the statically proven bounds.

use std::cell::Cell;

thread_local! {
    static LEVELS: Cell<u64> = const { Cell::new(0) };
}

/// Observed iteration counts since the last [`reset`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KndsCounters {
    /// kNDS driver rounds, levels or buckets (static bound: `depth`).
    pub levels: u64,
}

/// Zeroes every counter on this thread.
pub fn reset() {
    LEVELS.with(|c| c.set(0));
}

/// Reads every counter on this thread.
pub fn snapshot() -> KndsCounters {
    KndsCounters { levels: LEVELS.with(Cell::get) }
}

/// One driver round (a BFS level or a distance bucket).
pub fn bump_levels() {
    LEVELS.with(|c| c.set(c.get().wrapping_add(1)));
}

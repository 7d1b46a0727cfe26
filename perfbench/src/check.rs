//! Output checks and failure counting.
//!
//! Every operation the benchmark issues is *attempted*; it *fails* when
//! the engine returns an error or when its output breaks a check. A query
//! result must hold at most `k` documents, in non-decreasing distance,
//! none of them dead before the query started, each at exactly the
//! distance a direct `Drc` recomputation gives. On seeded samples its
//! top-k distance vector must also equal an exhaustive oracle's. Doc ids
//! are not compared with the oracle: documents tied at the k-th distance
//! may legitimately differ.

use cbr_corpus::DocId;
use cbr_knds::RankedDoc;

/// Relative tolerance for distance equality. RDS distances are integers
/// and compare exactly; SDS distances are normalized sums whose last bits
/// depend on summation order (partial sums versus a DRC probe).
const REL_TOL: f64 = 1e-9;

/// Whether two distances agree.
pub fn same_distance(a: f64, b: f64) -> bool {
    a == b || (a - b).abs() <= REL_TOL * a.abs().max(b.abs()).max(1.0)
}

/// Checks one query result's size, order and distances. `exact`
/// recomputes a document's distance directly.
pub fn check_result(
    results: &[RankedDoc],
    k: usize,
    mut exact: impl FnMut(DocId) -> f64,
) -> Result<(), String> {
    if results.len() > k {
        return Err(format!("{} results for k = {k}", results.len()));
    }
    for pair in results.windows(2) {
        if pair[1].distance < pair[0].distance {
            return Err(format!(
                "distances decrease: {} then {}",
                pair[0].distance, pair[1].distance
            ));
        }
    }
    for r in results {
        let d = exact(r.doc);
        if !same_distance(r.distance, d) {
            return Err(format!("doc {} at {} but DRC gives {d}", r.doc.0, r.distance));
        }
    }
    Ok(())
}

/// Checks that no result was already deleted when the query started, as
/// `dead_before` says. It runs right after the query, while the epoch
/// current at its start is still at hand.
pub fn check_live(
    results: &[RankedDoc],
    dead_before: impl Fn(DocId) -> bool,
) -> Result<(), String> {
    match results.iter().find(|r| dead_before(r.doc)) {
        Some(r) => Err(format!("doc {} was deleted before the query", r.doc.0)),
        None => Ok(()),
    }
}

/// Compares a result's top-k distance vector with an oracle's.
pub fn same_distances(got: &[RankedDoc], oracle: &[f64]) -> Result<(), String> {
    let ok = got.len() == oracle.len()
        && got.iter().zip(oracle).all(|(g, &o)| same_distance(g.distance, o));
    if ok {
        Ok(())
    } else {
        let got: Vec<f64> = got.iter().map(|r| r.distance).collect();
        Err(format!("top-k distances {got:?} but the oracle gives {oracle:?}"))
    }
}

/// Attempted and failed operations, with the first few failure reasons.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (engine error or broken check).
    pub failed: u64,
    /// The first failure reasons, for the log.
    pub reasons: Vec<String>,
}

impl Tally {
    /// Records one operation's outcome.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.fail(why);
        }
    }

    /// Marks an already-attempted operation as failed: an oracle check
    /// made after the timed phase fails the query it sampled.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.reasons.len() < 8 {
            self.reasons.push(why);
        }
    }

    /// Adds another tally's counts.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for r in other.reasons {
            if self.reasons.len() < 8 {
                self.reasons.push(r);
            }
        }
    }

    /// Failed over attempted operations.
    pub fn failed_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ranked(v: &[(u32, f64)]) -> Vec<RankedDoc> {
        v.iter().map(|&(d, distance)| RankedDoc { doc: DocId(d), distance }).collect()
    }

    fn truth(d: DocId) -> f64 {
        f64::from(d.0) * 2.0
    }

    #[test]
    fn a_correct_result_passes() {
        let r = ranked(&[(1, 2.0), (2, 4.0), (3, 6.0)]);
        assert_eq!(check_result(&r, 3, truth), Ok(()));
    }

    #[test]
    fn a_corrupted_distance_registers_as_a_failure() {
        let mut r = ranked(&[(1, 2.0), (2, 4.0), (3, 6.0)]);
        r[1].distance = 5.0;
        let mut tally = Tally::default();
        tally.record(check_result(&r, 3, truth));
        tally.record(check_result(&ranked(&[(1, 2.0)]), 3, truth));
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        assert_eq!(tally.failed_ratio(), 0.5);
        assert!(tally.reasons[0].contains("DRC gives 4"), "{:?}", tally.reasons);
    }

    #[test]
    fn order_size_and_liveness_are_checked() {
        let unordered = ranked(&[(2, 4.0), (1, 2.0)]);
        assert!(check_result(&unordered, 3, truth).is_err());
        let too_many = ranked(&[(1, 2.0), (2, 4.0)]);
        assert!(check_result(&too_many, 1, truth).is_err());
        let r = ranked(&[(1, 2.0), (2, 4.0)]);
        assert_eq!(check_live(&r, |d| d == DocId(3)), Ok(()));
        let why = check_live(&r, |d| d == DocId(2)).unwrap_err();
        assert!(why.contains("doc 2"), "{why}");
    }

    #[test]
    fn oracle_compares_distances_not_ids() {
        // A different doc tied at the k-th distance is fine...
        let r = ranked(&[(1, 2.0), (7, 4.0)]);
        assert_eq!(same_distances(&r, &[2.0, 4.0]), Ok(()));
        // ...a different distance or a missing result is not.
        assert!(same_distances(&r, &[2.0, 3.0]).is_err());
        assert!(same_distances(&r, &[2.0, 4.0, 5.0]).is_err());
        let mut tally = Tally::default();
        tally.record(Ok(()));
        tally.fail("oracle".into());
        assert_eq!((tally.attempted, tally.failed), (1, 1));
    }

    #[test]
    fn sds_distances_tolerate_summation_order() {
        let a = 0.1 + 0.2 + 0.3;
        let b = 0.3 + 0.2 + 0.1;
        assert_ne!(a, b);
        assert!(same_distance(a, b));
        assert!(!same_distance(1.0, 1.0 + 1e-6));
        assert!(same_distance(f64::INFINITY, f64::INFINITY));
    }
}

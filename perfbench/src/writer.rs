//! The open-loop writer: appends, deletes and compactions on a schedule.
//!
//! Appends are due at a fixed rate whether or not the engine keeps up, as
//! an EMR feed would send them. Every append is timed from the moment it
//! was *due*, so a compaction that stalls the writer also charges its wait
//! to every append queued behind it; how late the generator issued each
//! append is reported separately as lag. Deletes and compactions ride on
//! the append that triggers them.
//!
//! The writer waits for each due time by spinning on its own core. With
//! `thread::sleep`, half of ten `sds-cohort` runs on the reference box
//! timed the VM's wake-ups: their append p95 read 4–9 ms instead of
//! 0.35–0.45 ms.

use crate::check::Tally;
use cbr_corpus::DocId;
use cbr_ontology::ConceptId;
use concept_rank::SharedEngine;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Concepts per appended document.
pub const APPEND_CONCEPTS: usize = 24;

/// What the writer does and how fast.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WriterPlan {
    /// Appends due per second.
    pub rate: u64,
    /// One delete of a random earlier append per this many appends.
    pub delete_every: u64,
    /// One full `compact()` per this many appends.
    pub compact_every: u64,
    /// Stop after this many appends (`None`: run until told to stop).
    pub appends: Option<u64>,
}

/// Due-time accounting for an open-loop schedule.
#[derive(Debug)]
pub struct Schedule {
    start: Instant,
    interval: Duration,
    /// Per operation: completion minus due time, in ms.
    pub latency_ms: Vec<f64>,
    /// Per operation: issue minus due time, in ms.
    pub lag_ms: Vec<f64>,
}

impl Schedule {
    /// `rate` operations per second from `start`.
    pub fn new(start: Instant, rate: u64) -> Schedule {
        let interval = Duration::from_secs(1) / u32::try_from(rate).expect("rate fits u32");
        Schedule { start, interval, latency_ms: Vec::new(), lag_ms: Vec::new() }
    }

    /// When operation `i` is due.
    pub fn due(&self, i: u64) -> Instant {
        self.start + self.interval * u32::try_from(i).expect("operation index fits u32")
    }

    /// Records an operation due at `due`, issued at `issued` and
    /// completed at `done`.
    pub fn record(&mut self, due: Instant, issued: Instant, done: Instant) {
        self.latency_ms.push(ms(done.saturating_duration_since(due)));
        self.lag_ms.push(ms(issued.saturating_duration_since(due)));
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A stop signal: the reader publishes its finish time, and the writer
/// stops issuing appends due at or after it.
#[derive(Debug)]
pub struct Stop {
    start: Instant,
    at_ns: AtomicU64,
}

impl Stop {
    /// A signal for a schedule starting at `start`.
    pub fn new(start: Instant) -> Stop {
        Stop { start, at_ns: AtomicU64::new(u64::MAX) }
    }

    /// Stops the schedule now.
    pub fn stop(&self) {
        let ns = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.at_ns.store(ns, Ordering::Release);
    }

    fn stopped_before(&self, due: Instant) -> bool {
        let at = self.at_ns.load(Ordering::Acquire);
        at != u64::MAX && due >= self.start + Duration::from_nanos(at)
    }
}

/// Everything the writer did.
#[derive(Debug)]
pub struct WriterLog {
    /// Due-time latency and lag of every append.
    pub schedule: Schedule,
    /// Service time of each append call (µs).
    pub append_us: Vec<f64>,
    /// Service time of each delete call (µs).
    pub delete_us: Vec<f64>,
    /// Service time of each full compaction (ms).
    pub compact_ms: Vec<f64>,
    /// First id the writer appended; appends are numbered on from it.
    pub first_doc: DocId,
    /// Concept sets of every append, in id order (normalized as stored).
    pub appended: Vec<Vec<ConceptId>>,
    /// Wall time from the schedule start to the last append's completion
    /// (s).
    pub elapsed_s: f64,
    /// Operations attempted and failed.
    pub tally: Tally,
}

impl WriterLog {
    /// The stored concept set of an appended document.
    pub fn concepts(&self, d: DocId) -> Option<&[ConceptId]> {
        let i = d.0.checked_sub(self.first_doc.0)?;
        self.appended.get(i as usize).map(Vec::as_slice)
    }

    /// Appends completed per second of schedule.
    pub fn appends_per_s(&self) -> f64 {
        self.appended.len() as f64 / self.elapsed_s.max(1e-9)
    }
}

/// Runs the writer on `shared` from `start` until `stop` fires (or the
/// plan's append count is reached), drawing appended concepts from
/// `pool` with `seed`. Appends due before the stop are all issued.
pub fn run(
    shared: &SharedEngine,
    plan: WriterPlan,
    pool: &[ConceptId],
    seed: u64,
    start: Instant,
    stop: &Stop,
) -> WriterLog {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut log = WriterLog {
        schedule: Schedule::new(start, plan.rate),
        append_us: Vec::new(),
        delete_us: Vec::new(),
        compact_ms: Vec::new(),
        first_doc: DocId::from_index(shared.snapshot().num_docs()),
        appended: Vec::new(),
        elapsed_s: 0.0,
        tally: Tally::default(),
    };
    let mut live: Vec<DocId> = Vec::new();
    for i in 0.. {
        if plan.appends.is_some_and(|n| i >= n) {
            break;
        }
        let due = log.schedule.due(i);
        if stop.stopped_before(due) {
            break;
        }
        // Spin, not sleep: on a loaded VM a sleep can overshoot by
        // milliseconds, and the writer would then time the hypervisor's
        // wake-ups instead of the engine.
        while Instant::now() < due {
            std::hint::spin_loop();
        }
        let mut concepts: Vec<ConceptId> =
            (0..APPEND_CONCEPTS).map(|_| pool[rng.random_range(0..pool.len())]).collect();
        cbr_corpus::normalize_concepts(&mut concepts);

        let issued = Instant::now();
        let id = shared.add_document(concepts.clone());
        let done = Instant::now();
        log.schedule.record(due, issued, done);
        log.elapsed_s = (done - start).as_secs_f64();
        log.append_us.push((done - issued).as_secs_f64() * 1e6);
        let expected = DocId::from_index(log.first_doc.index() + log.appended.len());
        log.tally.record(if id == expected {
            Ok(())
        } else {
            Err(format!("append got id {} but {} was next", id.0, expected.0))
        });
        log.appended.push(concepts);
        live.push(id);

        let n = i + 1;
        if n % plan.delete_every == 0 {
            let victim = live.swap_remove(rng.random_range(0..live.len()));
            let t = Instant::now();
            let outcome = shared.remove_document(victim).map_err(|e| format!("delete: {e}"));
            log.delete_us.push(t.elapsed().as_secs_f64() * 1e6);
            log.tally.record(outcome);
        }
        if n % plan.compact_every == 0 {
            let t = Instant::now();
            shared.compact();
            log.compact_ms.push(t.elapsed().as_secs_f64() * 1e3);
            log.tally.record(Ok(()));
        }
    }
    log
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_counts_from_the_due_time() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut lp = Schedule::new(t0, 1_000); // one op due per ms
        assert_eq!(lp.due(3), at(3));
        // Op 0 runs on time and takes 1 ms.
        lp.record(lp.due(0), at(0), at(1));
        // Op 1 is stuck behind a 10 ms stall: issued at 11 ms, done at 12.
        lp.record(lp.due(1), at(11), at(12));
        // Op 2 was due at 2 ms and issued right after op 1.
        lp.record(lp.due(2), at(12), at(13));
        assert_eq!(lp.latency_ms, vec![1.0, 11.0, 11.0]);
        assert_eq!(lp.lag_ms, vec![0.0, 10.0, 10.0]);
    }

    #[test]
    fn early_completion_is_not_negative() {
        let t0 = Instant::now();
        let mut lp = Schedule::new(t0, 100);
        lp.record(lp.due(1), t0, t0 + Duration::from_millis(2));
        assert_eq!(lp.latency_ms, vec![0.0]);
    }

    #[test]
    fn stop_cuts_the_schedule_at_the_stop_time() {
        let t0 = Instant::now() - Duration::from_secs(1);
        let stop = Stop::new(t0);
        assert!(!stop.stopped_before(t0 + Duration::from_secs(5)));
        stop.stop();
        assert!(stop.stopped_before(t0 + Duration::from_secs(5)));
        assert!(!stop.stopped_before(t0 + Duration::from_millis(500)));
    }
}

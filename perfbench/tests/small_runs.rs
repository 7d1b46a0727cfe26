//! Whole runs on a small engine: every operation is checked, and each run
//! reports exactly the metrics `BENCHMARK.json` names.

use cbr_perfbench::run::{run, Outcome, Settings};
use cbr_perfbench::workload::{QueryKind, Workload, Writes};
use cbr_perfbench::writer::WriterPlan;

/// The `rds-1m` shape at 2,000 documents, set up once in-process.
fn small(writes: Writes) -> Workload {
    Workload {
        name: "small",
        kind: QueryKind::Rds,
        docs: 2_000,
        ontology_concepts: 2_000,
        k: 10,
        nq: 4,
        eps: 0.9,
        setups: 1,
        evals_per_second: 8.0,
        writes,
    }
}

/// The metric names of one `BENCHMARK.json` section, in order.
fn spec_names(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    let start = spec.find(&format!("\"{section}\"")).expect("section present");
    let body = &spec[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split("\"name\": \"").skip(1).map(|s| s[..s.find('"').unwrap()].to_string()).collect()
}

fn names(out: &Outcome) -> Vec<String> {
    out.metrics.0.iter().map(|m| m.name.clone()).collect()
}

fn assert_all_passed(out: &Outcome) {
    assert_eq!(out.tally.failed, 0, "{:?}", out.tally.reasons);
    assert!(out.metrics.0.iter().all(|m| m.value.is_finite()));
}

#[test]
fn reads_beside_the_writer_are_all_checked() {
    let plan = WriterPlan { rate: 2_000, delete_every: 7, compact_every: 64, appends: None };
    let w = small(Writes::Beside(plan));
    let out = run(Settings { workload: w, seed: 1, seconds: 1, trace: false });
    assert_all_passed(&out);
    // 4 passes over 50 queries, the oracle re-runs, at least one append.
    assert!(out.tally.attempted > 200 + 2, "{}", out.tally.attempted);
    assert_eq!(names(&out), spec_names("end_to_end"));
}

#[test]
fn the_traced_run_agrees_across_entry_points() {
    let plan =
        WriterPlan { rate: 2_000, delete_every: 7, compact_every: 4_096, appends: Some(4_096) };
    let w = small(Writes::After(plan));
    let out = run(Settings { workload: w, seed: 2, seconds: 1, trace: true });
    assert_all_passed(&out);
    assert_eq!(names(&out), spec_names("per_layer"));
}

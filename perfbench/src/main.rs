//! `cbr-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a parameter line, then the result line
//! `{"correct", "attempted", "failed", "metrics"}` as the last line of
//! standard output. Exits 2 on bad arguments.
//!
//! `cbr-perfbench --setup-only <name>` builds the workload once and prints
//! its set-up stage times; a run starts itself this way for all but its
//! last set-up.

#![forbid(unsafe_code)]

use cbr_perfbench::report::result_line;
use cbr_perfbench::run::{run, Settings};
use cbr_perfbench::workload::{build, by_name, WORKLOADS};

fn usage(why: &str) -> ! {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!("{why}");
    eprintln!(
        "usage: cbr-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    );
    std::process::exit(2);
}

fn parse() -> Settings {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in argv.chunks(2) {
        let [flag, value] = pair else { usage(&format!("{} has no value", pair[0])) };
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(by_name(value).unwrap_or_else(|| usage(&format!("no workload {value:?}"))))
            }
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<u64>().ok().filter(|&s| s > 0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            other => usage(&format!("unexpected argument {other:?}")),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => {
            Settings { workload, seed, seconds, trace }
        }
        _ => usage("--workload, --seed, --seconds and --trace are all required"),
    }
}

fn main() {
    // A set-up child: build the workload once and print its stage times.
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, name] = &argv[..] {
        if flag == "--setup-only" {
            let w = by_name(name).unwrap_or_else(|| usage(&format!("no workload {name:?}")));
            println!("{}", build(&w).1.to_line());
            return;
        }
    }
    let settings = parse();
    let out = run(settings);
    println!("{}", out.params);
    let t = &out.tally;
    println!("{}", result_line(t.failed == 0, t.attempted, t.failed, &out.metrics));
}

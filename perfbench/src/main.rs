//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! `--seed` defaults to 1, `--seconds` to `run_seconds` of `BENCHMARK.json`
//! and `--trace` to 0.
//!
//! Prints what it measured, then one JSON result line: the end-to-end
//! metrics when `--trace 0`, the per-layer metrics when `--trace 1`. Exits
//! non-zero when any answer is wrong.

use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

use perfbench::report::{Report, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use perfbench::spans::SpanLog;
use perfbench::util::Clock;
use perfbench::{lsm, mem};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} expects {what}, got {value:?}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(bad(&format!("one of {WORKLOADS:?}"))),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                let s: u32 = value.parse().map_err(|_| bad("a whole number of seconds"))?;
                if !(1..=600).contains(&s) {
                    return Err(bad("1 to 600"));
                }
                seconds = Some(s as f64);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(RUN_SECONDS as f64),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let log = args.trace.then(|| Arc::new(SpanLog::new(Clock::start())));
    println!(
        "perfbench {} seed {} seconds {} trace {} on {} cores",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let mut report = Report::default();
    if args.trace {
        // A layer the workload does not reach reports 0.
        for (name, _) in PER_LAYER {
            report.set(name, 0.0);
        }
    }
    let measured = match args.workload.as_str() {
        "mem-hit" => mem::run(&mem::MEM_HIT, args.seed, args.seconds, log.clone()),
        "mem-miss" => mem::run(&mem::MEM_MISS, args.seed, args.seconds, log.clone()),
        _ => lsm::run(args.seed, args.seconds, log.clone()),
    };
    report.merge(measured);
    report.set("failed_frac", report.failed as f64 / report.attempted.max(1) as f64);
    for line in report.human_lines() {
        println!("{line}");
    }
    if let Some(log) = &log {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        match log.write_jsonl(&path) {
            Ok(0) => println!("spans: {}", path.display()),
            Ok(left) => println!("spans: {} ({left} more not written)", path.display()),
            Err(e) => eprintln!("perfbench: writing spans to {}: {e}", path.display()),
        }
    }
    println!("{}", report.json(if args.trace { &PER_LAYER } else { &END_TO_END }));
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {} of {} answers or writes were wrong",
            report.failed, report.attempted
        );
        ExitCode::FAILURE
    }
}

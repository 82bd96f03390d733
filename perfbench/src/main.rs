//! One wire-level benchmark for SIRUM.
//!
//! The program self-hosts the real `sirum::net::Server` + `SirumService`
//! stack on loopback and drives it through `net::client::HttpClient`, in
//! closed loops (each client waits for its reply). The server receives
//! only generated CSV bytes and request bodies; tables come from
//! `sirum::table::generators` seeded by `--seed`.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload mine-cold --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Workloads: `mine-cold` (cold mining, the paper's operation),
//! `ingest-large` (upload → mine → delete of a 15 MB table under a memory
//! budget) and `serve-hot` (one client on one CPU, a cached-read mix with
//! small writes); `all` runs the three one after another, each in a
//! process of its own. `--trace 0` measures the end-to-end metrics;
//! `--trace 1` is the separate traced run that records spans around the
//! benchmark's own calls into each layer, writes them to `.perfbench/`
//! and prints the per-layer metrics and the ledger. `--tiny` shrinks every
//! table for the smoke test.
//!
//! Every output is checked; the run exits 1 when a check fails, 2 when it
//! cannot run at all, and prints its result as the last line of stdout.

mod alloc;
mod harness;
mod probes;
mod replay;
mod report;
mod stats;
mod trace;
mod workloads;

use report::{Report, E2E_METRICS, LAYER_METRICS};
use std::process::ExitCode;
use workloads::Args;

#[global_allocator]
static HEAP: alloc::Counting = alloc::Counting;

const WORKLOADS: [&str; 3] = ["mine-cold", "ingest-large", "serve-hot"];

const USAGE: &str = "usage: perfbench --workload mine-cold|ingest-large|serve-hot|all \
                     --seed <n> --seconds <s> --trace 0|1 [--tiny]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut tiny = false;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        if flag == "--tiny" {
            tiny = true;
            continue;
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" || WORKLOADS.contains(&value.as_str()) => {
                workload = Some(value)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown argument {flag} {value}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        tiny,
    })
}

/// Run every workload in a child process of this program, in turn; exits
/// with the worst child's code.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot find this program: {e}");
            return ExitCode::from(2);
        }
    };
    let mut worst = 0u8;
    for workload in WORKLOADS {
        let mut child = std::process::Command::new(&exe);
        child.args(["--workload", workload]);
        child.args(["--seed", &args.seed.to_string()]);
        child.args(["--seconds", &args.seconds.to_string()]);
        child.args(["--trace", if args.trace { "1" } else { "0" }]);
        if args.tiny {
            child.arg("--tiny");
        }
        let code = match child.status() {
            Ok(status) => status.code().map_or(2, |c| u8::try_from(c).unwrap_or(2)),
            Err(e) => {
                eprintln!("perfbench: cannot run {workload}: {e}");
                2
            }
        };
        worst = worst.max(code);
    }
    ExitCode::from(worst)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let work = match harness::WorkDir::create() {
        Ok(work) => work,
        Err(e) => {
            eprintln!("perfbench: cannot create the working directory: {e}");
            return ExitCode::from(2);
        }
    };
    let tracer = args.trace.then(trace::Tracer::new);
    let mut report = Report::default();
    report.header("workload", &args.workload);
    report.header("seed", args.seed);
    report.header("seconds", args.seconds);
    report.header("trace", u8::from(args.trace));
    report.header("nproc", harness::nproc());
    report.header("git_rev", harness::git_rev());
    if args.tiny {
        report.header("sizes", "tiny");
    }
    let run = match args.workload.as_str() {
        "mine-cold" => workloads::mine_cold::run,
        "ingest-large" => workloads::ingest_large::run,
        _ => workloads::serve_hot::run,
    };
    // Off the main thread: the system allocator serves the main thread
    // from a heap that trims eagerly, which made in-process mines there 5%
    // slower than the same mines on the server's pool threads.
    let outcome = std::thread::scope(|scope| {
        scope
            .spawn(|| run(&args, &work, tracer.as_ref(), &mut report))
            .join()
            .unwrap_or_else(|_| Err("the benchmark thread panicked".into()))
    });
    if let Err(e) = outcome {
        eprintln!("perfbench: {} failed to run: {e}", args.workload);
        return ExitCode::from(2);
    }
    if let Some(tracer) = &tracer {
        let path = work
            .root()
            .join(format!("trace-{}-seed{}.tsv", args.workload, args.seed));
        let written = std::fs::File::create(&path)
            .and_then(|f| tracer.write_to(&mut std::io::BufWriter::new(f)));
        if let Err(e) = written {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        report.header("spans", path.display());
    }
    let declared: &[(&str, &str)] = if args.trace {
        &LAYER_METRICS
    } else {
        &E2E_METRICS
    };
    match report.render(declared) {
        Ok(out) => print!("{out}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    }
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

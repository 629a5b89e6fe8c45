//! Benchmark of the hop-doubling label index: construction, read
//! serving and write serving, measured from outside by timing calls
//! into the workspace's public functions.
//!
//! ```text
//! perfbench --workload build|serve-write --seed N --seconds S --trace 0|1
//!           [--work-dir DIR] [--trace-file FILE]
//! ```
//!
//! Prints a table on stderr and, as the last line of stdout, one JSON
//! object: `correct`, `attempted`, `failed` and the end-to-end metrics
//! (or, with `--trace 1`, the per-layer metrics derived from spans).

mod check;
mod inputs;
mod net;
mod report;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Report;
use workload::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
    trace_file: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let at = args.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        args.get(at + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let optional = |flag: &str| value(flag).ok().map(PathBuf::from);
    let name = value("--workload")?;
    let seconds: f64 = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: Workload::from_name(name).ok_or(format!("unknown workload {name}"))?,
        seed: value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
        work_dir: optional("--work-dir").unwrap_or_else(std::env::temp_dir),
        trace_file: optional("--trace-file"),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    trace::init(args.trace);
    let dir = args.work_dir.join(format!("perfbench-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: work dir {}: {e}", dir.display());
        return ExitCode::from(2);
    }
    let mut report = Report::default();
    let outcome = workload::run(args.workload, args.seed, args.seconds, &dir, &mut report);
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(e) = outcome {
        eprintln!("perfbench: {e}");
        return ExitCode::from(1);
    }
    if args.trace {
        report.derive_layers(workload::FRAME_PAIRS);
        if let Some(path) = &args.trace_file {
            if let Err(e) = trace::write_out(path, &trace::spans()) {
                eprintln!("perfbench: trace file {}: {e}", path.display());
                return ExitCode::from(1);
            }
        }
    }
    eprint!("{}", report.table());
    println!("{}", report.json(args.trace));
    ExitCode::SUCCESS
}

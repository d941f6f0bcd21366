//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Prints a context line (workload, machine, sample counts) and, last, the
//! result line. Exits 1 on any failed or wrong operation, 2 on bad usage.

use std::io::Write;
use std::process::ExitCode;

use perfbench::env;
use perfbench::metrics::{result_line, END_TO_END, PER_LAYER};
use perfbench::plan::{Params, Workload};
use perfbench::runner;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 40.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

fn write_spans(args: &Args, report: &runner::Report) -> std::io::Result<std::path::PathBuf> {
    let dir = env::out_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{}-seed{}.json", args.workload.name(), args.seed));
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(f, "{{\"traceEvents\": [")?;
    let events: Vec<String> = report.tracers.iter().flat_map(|t| t.chrome_events()).collect();
    writeln!(f, "{}", events.join(",\n"))?;
    writeln!(f, "]}}")?;
    f.flush()?;
    Ok(path)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload query_fig6|ingest_fresh|mixed_rw --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let params = Params::fig6(args.workload, args.seed, args.seconds);
    let report = match runner::run(&params, args.trace) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.trace {
        match write_spans(&args, &report) {
            Ok(path) => eprintln!("perfbench: spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: could not write spans: {e}"),
        }
    }
    let defs = if args.trace { PER_LAYER } else { END_TO_END };
    let line =
        match result_line(report.correct, report.attempted, report.failed, defs, &report.values) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        };
    println!("{}", report.context);
    println!("{line}");
    if report.failed > 0 || !report.correct {
        eprintln!(
            "perfbench: {} of {} operations failed or were wrong",
            report.failed, report.attempted
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

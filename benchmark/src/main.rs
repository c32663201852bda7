//! `o2k-benchmark` — the benchmark `BENCHMARK.json` describes.
//!
//! ```text
//! o2k-benchmark [run] --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! o2k-benchmark set --out <file> [--seed N] [--seconds S]
//! o2k-benchmark compare <setA.json> <setB.json>
//! o2k-benchmark selftest [--seed N] [--seconds S]
//! ```
//!
//! See `README.md` beside this crate for the workloads, the metrics and how
//! they are meant to interact.

mod adapter;
mod compare;
mod harness;
mod host;
mod json;
mod spans;
mod workloads;

use std::path::PathBuf;
use std::time::Instant;

#[global_allocator]
static ALLOC: host::CountingAlloc = host::CountingAlloc;

/// The seed the repository's own serving experiments use.
const DEFAULT_SEED: u64 = 0x00C0_FFEE;
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 22.0;

const USAGE: &str =
    "usage: o2k-benchmark --workload <repro-quick|serve-tail|nbody-3model|amr-adapt> \
[--seed N] [--seconds S] [--trace 0|1]
       o2k-benchmark set --out <file> [--seed N] [--seconds S]
       o2k-benchmark compare <setA.json> <setB.json>
       o2k-benchmark selftest [--seed N] [--seconds S]";

struct Cli {
    command: String,
    positional: Vec<String>,
    workload: Option<String>,
    out: Option<PathBuf>,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    break_expectation: bool,
}

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        command: "run".into(),
        positional: Vec::new(),
        workload: None,
        out: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
        smoke: false,
        break_expectation: false,
    };
    let mut it = args.iter();
    let mut first = true;
    while let Some(a) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{a} needs {what}"))
        };
        match a.as_str() {
            "--workload" => cli.workload = Some(value("a workload name")?),
            "--out" => cli.out = Some(PathBuf::from(value("a file")?)),
            "--seed" => {
                cli.seed = parse_seed(&value("a number")?).ok_or("--seed needs a number")?;
            }
            "--seconds" => {
                cli.seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds needs a positive number")?;
            }
            "--trace" => {
                cli.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                };
            }
            "--traced" => cli.traced = true,
            "--smoke" => cli.smoke = true,
            "--break-expectation" => cli.break_expectation = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            word if first => cli.command = word.to_string(),
            word => cli.positional.push(word.to_string()),
        }
        first = false;
    }
    Ok(cli)
}

fn main() {
    // Process start, for `setup_s`: nothing has run before this line.
    let start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match parse_cli(&args).and_then(|cli| dispatch(start, cli)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("o2k-benchmark: {e}\n{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

fn dispatch(start: Instant, cli: Cli) -> Result<i32, String> {
    // `run <workload>` reads the same as `--workload <workload>`.
    let workload = || {
        (cli.workload.clone())
            .or_else(|| cli.positional.first().cloned())
            .ok_or("--workload is required")
    };
    match cli.command.as_str() {
        "run" => Ok(harness::run(
            start,
            &harness::RunArgs {
                workload: workload()?,
                seed: cli.seed,
                seconds: cli.seconds,
                traced: cli.traced,
                smoke: cli.smoke,
                break_expectation: cli.break_expectation,
            },
        )),
        "setup-probe" => Ok(harness::setup_probe(
            start,
            &workload()?,
            cli.seed,
            cli.smoke,
        )),
        "set" => compare::run_set(&compare::SetArgs {
            out: cli.out.ok_or("set needs --out <file>")?,
            seed: cli.seed,
            seconds: cli.seconds,
            smoke: cli.smoke,
        })
        .map(|()| 0),
        "compare" => match cli.positional.as_slice() {
            [a, b] => compare::compare(a.as_ref(), b.as_ref()).map(|pass| i32::from(!pass)),
            _ => Err("compare needs two set files".into()),
        },
        "selftest" => {
            compare::selftest(cli.seed, cli.seconds, cli.smoke).map(|pass| i32::from(!pass))
        }
        other => Err(format!("unknown command {other}")),
    }
}

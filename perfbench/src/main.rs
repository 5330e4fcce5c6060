//! `perfbench`: run one workload, or compare two sets of results.
//!
//! ```text
//! perfbench --workload step|bulk|fleet --seed N --seconds S --trace 0|1
//! perfbench compare [--bounds BENCHMARK.json] BASE CHANGE
//! ```
//!
//! A run prints a table of its metrics, then its full record (with the
//! environment block) as one JSON line, then the result as the last
//! line. It exits 0 when every reply matched the dense reference, 1 when
//! any did not, and 2 when the run could not be made (no result line).
//! A run on more than one allowed CPU runs itself again on one (see
//! `confine`).

use perfbench::{compare, env, metrics, run, Options};
use std::path::PathBuf;
use std::process::{Command, ExitCode};

const USAGE: &str =
    "usage: perfbench --workload step|bulk|fleet --seed N --seconds S --trace 0|1\n       \
perfbench compare [--bounds BENCHMARK.json] BASE CHANGE";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare_main(&args[1..]),
        Some("-h" | "--help") => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        _ => parse(&args).and_then(|opts| match confine(&opts, &args)? {
            Some(code) => Ok(code),
            None => run_main(&opts),
        }),
    };
    result.unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        ExitCode::from(2)
    })
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        quick: false,
        work_dir: PathBuf::from(".perfbench"),
    };
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or(format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => opts.workload = value()?,
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    if opts.workload.is_empty() {
        return Err(format!("--workload is required\n{USAGE}"));
    }
    opts.seed = seed.ok_or(format!("--seed is required\n{USAGE}"))?;
    opts.seconds = seconds.ok_or(format!("--seconds is required\n{USAGE}"))?;
    if !(opts.seconds > 0.0 && opts.seconds <= 3600.0) {
        return Err("--seconds must be in (0, 3600]".into());
    }
    opts.trace = trace.unwrap_or(false);
    Ok(opts)
}

/// Runs the workload again as a child process confined by `taskset` to
/// the first CPU this one may use, and returns the child's exit code;
/// `None` when the process is on one CPU already. The child inherits
/// stdout and stderr, and is waited for.
///
/// Every workload runs on one CPU. The caller, the server's connection
/// thread and the pool's workers hand each request and reply to each
/// other; on one CPU each hand-over is a context switch, while across
/// CPUs it is often the wake-up of an idle CPU, which on a shared
/// virtual machine waits on the hypervisor and so varies from run to run
/// with the host's load rather than with the program.
fn confine(opts: &Options, args: &[String]) -> Result<Option<ExitCode>, String> {
    let cpus = env::allowed_cpus().ok_or("cannot read the allowed CPUs")?;
    let Some(first) = cpus.first().filter(|_| cpus.len() > 1) else {
        return Ok(None);
    };
    let exe = std::env::current_exe().map_err(|e| format!("locating perfbench: {e}"))?;
    let status = Command::new("taskset")
        .arg("-c")
        .arg(first.to_string())
        .arg(exe)
        .args(args)
        .status()
        .map_err(|e| {
            format!(
                "running taskset to put the {} run on one CPU: {e}",
                opts.workload
            )
        })?;
    Ok(Some(match status.code() {
        Some(code) => ExitCode::from(u8::try_from(code).unwrap_or(2)),
        None => ExitCode::from(2),
    }))
}

fn run_main(opts: &Options) -> Result<ExitCode, String> {
    let outcome = run(opts)?;
    for (metric, value) in &outcome.values.0 {
        println!(
            "{:<26} {:>16.4} {:<12} [{}]",
            metric.name, value, metric.unit, metric.layer
        );
    }
    for (name, value) in &outcome.detail {
        println!("{name:<26} {value:>16.4}");
    }
    if let Some(e) = &outcome.first_error {
        println!("first failure: {e}");
    }
    println!("{}", outcome.record_line());
    println!("{}", outcome.result_line()?);
    Ok(if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {} output(s) differed from the dense reference",
            outcome.mismatches
        );
        ExitCode::from(1)
    })
}

fn compare_main(args: &[String]) -> Result<ExitCode, String> {
    let mut bounds_path = PathBuf::from("BENCHMARK.json");
    let mut files = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--bounds" => bounds_path = PathBuf::from(it.next().ok_or("--bounds needs a value")?),
            _ => files.push(PathBuf::from(arg)),
        }
    }
    let [base, change] = files.as_slice() else {
        return Err(format!("compare takes two result files\n{USAGE}"));
    };
    let read = |p: &PathBuf| {
        std::fs::read_to_string(p).map_err(|e| format!("reading {}: {e}", p.display()))
    };
    let bounds = compare::bounds(&read(&bounds_path)?)?;
    for b in &bounds {
        if metrics::find(&b.name).is_none() {
            return Err(format!(
                "{} names metric {} that this benchmark does not measure",
                bounds_path.display(),
                b.name
            ));
        }
    }
    let rows = compare::compare(
        &compare::records(&read(base)?)?,
        &compare::records(&read(change)?)?,
        &bounds,
    );
    if rows.is_empty() {
        return Err("no workload has untraced records on both sides".into());
    }
    print!("{}", compare::render(&rows));
    Ok(ExitCode::SUCCESS)
}

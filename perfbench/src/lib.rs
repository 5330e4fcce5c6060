//! The repository benchmark.
//!
//! One run starts an `smm-server` in-process, loads a seeded workload's
//! matrices over loopback TCP, drives it with closed-loop
//! `smm_server::Client`s for a fixed time and checks every reply against
//! the dense reference computed during set-up. The untraced run reports
//! the end-to-end metrics; the traced run (`trace = true`) reports the
//! per-layer ladder (see [`ladder`]). `README.md` lists every metric.

pub mod compare;
pub mod drive;
pub mod env;
pub mod json;
pub mod ladder;
pub mod metrics;
pub mod stats;
pub mod trace;
pub mod workload;

use crate::drive::{closed_loop, PhaseSpec, Server};
use crate::env::Env;
use crate::json::{number, object, quote, Json};
use crate::metrics::{Values, END_TO_END, PER_LAYER};
use crate::stats::{beyond, median, nearest_rank};
use crate::trace::Trace;
use crate::workload::Workload;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Errors are reported as text; the benchmark has nothing to recover.
pub type Result<T> = std::result::Result<T, String>;

/// Schema tag of a result record.
pub const RECORD_SCHEMA: &str = "perfbench-record-v1";

/// Rounds of an untraced run: each starts a fresh server, warms it up
/// and measures its share of the timed phase; metrics are medians over
/// rounds.
const ROUNDS: usize = 10;
/// Server set-ups per untraced run: at least this many...
const MIN_SETUPS: usize = 5;
/// ...and more for cheap set-ups, up to this many...
const MAX_SETUPS: usize = 25;
/// ...until this much set-up time has been sampled.
const SETUP_BUDGET_S: f64 = 1.0;
/// Warm-up before each round's timing: this share of the round...
const WARMUP_SHARE: f64 = 0.2;
/// ...capped at this long.
const WARMUP_MAX_S: f64 = 2.0;

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name (`step`, `bulk` or `fleet`).
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Smoke-test sizes: small pools, one set-up, one pass per rung.
    pub quick: bool,
    /// Directory for store directories and span files (the traced run
    /// writes `spans-<workload>.jsonl` there).
    pub work_dir: PathBuf,
}

/// What a run measured.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Workload name.
    pub workload: String,
    /// Whether this was the traced run.
    pub trace: bool,
    /// Timed-phase length.
    pub seconds: f64,
    /// Requests sent, warm-up included.
    pub attempted: u64,
    /// Requests that failed or were refused.
    pub failed: u64,
    /// Outputs that differed from the dense reference, at any rung.
    pub mismatches: u64,
    /// Every metric measured.
    pub values: Values,
    /// Machine, build and settings.
    pub env: Env,
    /// Supporting figures (sample counts, per-kind breakdowns).
    pub detail: Vec<(String, f64)>,
    /// The first request failure, if any.
    pub first_error: Option<String>,
}

impl Outcome {
    /// Every reply and rung output matched the reference.
    pub fn correct(&self) -> bool {
        self.mismatches == 0 && self.attempted > 0
    }

    /// The metrics this kind of run reports, in table order.
    pub fn reported(&self) -> Result<Values> {
        self.values
            .select(if self.trace { PER_LAYER } else { END_TO_END })
    }

    /// The one-line result: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> Result<String> {
        Ok(object([
            ("correct", self.correct().to_string()),
            ("attempted", self.attempted.to_string()),
            ("failed", self.failed.to_string()),
            ("metrics", self.reported()?.to_json()),
        ]))
    }

    /// The full record: the result plus environment, every measured
    /// metric and the supporting detail.
    pub fn record_line(&self) -> String {
        object([
            ("schema", quote(RECORD_SCHEMA)),
            ("workload", quote(&self.workload)),
            ("seed", self.env.seed.to_string()),
            ("trace", u8::from(self.trace).to_string()),
            ("seconds", number(self.seconds)),
            ("correct", self.correct().to_string()),
            ("attempted", self.attempted.to_string()),
            ("failed", self.failed.to_string()),
            ("mismatches", self.mismatches.to_string()),
            ("env", self.env.to_json()),
            ("metrics", self.values.to_json()),
            (
                "detail",
                object(self.detail.iter().map(|(k, v)| (k.as_str(), number(*v)))),
            ),
            (
                "first_error",
                self.first_error.as_deref().map_or("null".into(), quote),
            ),
        ])
    }
}

/// A result record read back from a file.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Whether it came from a traced run.
    pub trace: bool,
    /// Whether every output matched.
    pub correct: bool,
    /// Requests sent.
    pub attempted: u64,
    /// Requests failed.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// The environment block, as parsed.
    pub env: Json,
}

impl Record {
    /// Parses one record line; `Ok(None)` for a JSON object that is not a
    /// record (such as a result line), `Err` for anything malformed.
    pub fn parse(line: &str) -> Result<Option<Record>> {
        let v = Json::parse(line)?;
        if v.get("schema").and_then(Json::str) != Some(RECORD_SCHEMA) {
            return Ok(None);
        }
        let field = |k: &str| v.get(k).ok_or_else(|| format!("record lacks '{k}'"));
        let count = |k: &str| {
            field(k)?
                .num()
                .map(|n| n as u64)
                .ok_or_else(|| format!("'{k}' is not a number"))
        };
        let flag = |k: &str| match field(k)? {
            Json::Bool(b) => Ok(*b),
            _ => Err(format!("'{k}' is not a boolean")),
        };
        let mut metrics = BTreeMap::new();
        if let Json::Obj(map) = field("metrics")? {
            for (name, m) in map {
                let value = m
                    .get("value")
                    .and_then(Json::num)
                    .ok_or_else(|| format!("metric {name} has no value"))?;
                metrics.insert(name.clone(), value);
            }
        }
        Ok(Some(Record {
            workload: field("workload")?
                .str()
                .ok_or("'workload' is not a string")?
                .to_string(),
            seed: count("seed")?,
            trace: count("trace")? == 1,
            correct: flag("correct")?,
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
            env: field("env")?.clone(),
        }))
    }
}

/// Generates the workload named in `opts` and runs it.
pub fn run(opts: &Options) -> Result<Outcome> {
    let w = Workload::generate(&opts.workload, opts.seed, opts.quick)?;
    run_workload(&w, opts)
}

/// Runs an already generated workload (whose expected outputs are
/// trusted as given).
pub fn run_workload(w: &Workload, opts: &Options) -> Result<Outcome> {
    // Unique per run, so runs sharing a process and a work dir never
    // share store directories.
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let scratch = opts.work_dir.join(format!(
        "run-{}-{}",
        std::process::id(),
        RUNS.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&scratch)
        .map_err(|e| format!("creating {}: {e}", scratch.display()))?;
    let outcome = measure(w, opts, &scratch);
    let cleaned = std::fs::remove_dir_all(&scratch)
        .map_err(|e| format!("removing {}: {e}", scratch.display()));
    let outcome = outcome?;
    cleaned?;
    Ok(outcome)
}

fn measure(w: &Workload, opts: &Options, scratch: &std::path::Path) -> Result<Outcome> {
    let env = Env::probe(w.seed, Server::config(None).threads, w.clients());
    let mut values = Values::default();
    let mut detail: Vec<(String, f64)> = Vec::new();
    let single = opts.trace || opts.quick;
    let rounds = if single { 1 } else { ROUNDS };
    let round_s = opts.seconds / rounds as f64;
    let warmup = PhaseSpec {
        duration: Duration::from_secs_f64((round_s * WARMUP_SHARE).min(WARMUP_MAX_S)),
        trace: None,
    };
    let mut trace = Trace::new();
    // The traced run traces every other request of its timed phase: the
    // gap between the two halves' p50s is what tracing costs.
    let timed = PhaseSpec {
        duration: Duration::from_secs_f64(round_s),
        trace: opts.trace.then(|| trace.epoch()),
    };
    let store_dir = |n: usize| w.store.then(|| scratch.join(format!("store-{n}")));

    let mut setups: Vec<f64> = Vec::new();
    let mut engines = Vec::new();
    let (mut attempted, mut failed, mut mismatches) = (0, 0, 0);
    let (mut timed_requests, mut timed_failed) = (0, 0);
    let (mut promotions, mut demotions) = (0, 0);
    let (mut cache_hits, mut cache_misses, mut busy, mut errors) = (0, 0, 0, 0);
    let (mut throughputs, mut p50s, mut p90s) = (Vec::new(), Vec::new(), Vec::new());
    let mut all_rtts: Vec<u64> = Vec::new();
    let mut first_error = None;
    let mut traced_p50 = None;
    let mut cursors = vec![0; w.clients()];
    // The peak resident set is that of the first round, from its set-up
    // on. Memory the allocator keeps after a server stops stays resident,
    // so later rounds start from a higher floor that no single server
    // would have.
    reset_peak_rss()?;
    for round in 0..rounds {
        let mut server = Server::start(w, store_dir(setups.len()))?;
        setups.push(server.setup.as_secs_f64());
        if round == 0 {
            values.set("process.threads", os_threads()?);
            engines = server.engines.clone();
        }
        let before = server.stats()?;
        let phases = closed_loop(
            server.addr(),
            w,
            &server.digests,
            &mut cursors,
            &[warmup, timed],
        )?;
        let after = server.stats()?;
        server.stop()?;
        if round == 0 {
            values.set("peak_rss_mb", peak_rss_mb()?);
        }

        promotions += after.store_promotions - before.store_promotions;
        demotions += after.store_demotions - before.store_demotions;
        cache_hits += after.cache_hits;
        cache_misses += after.cache_misses;
        busy += after.rejected;
        errors += after.errors;
        for p in &phases {
            attempted += p.attempted;
            failed += p.failed;
            mismatches += p.mismatches;
            if first_error.is_none() {
                first_error.clone_from(&p.first_error);
            }
        }
        let measured = &phases[1];
        timed_requests += measured.attempted;
        timed_failed += measured.failed;
        let mut rtts = measured.rtts_ns.clone();
        throughputs.push(measured.throughput());
        p50s.push(micros(nearest_rank(&mut rtts, 0.50)));
        p90s.push(micros(nearest_rank(&mut rtts, 0.90)));
        all_rtts.extend(rtts);
        if opts.trace {
            let mut traced = measured.traced_rtts_ns.clone();
            traced_p50 = Some(micros(nearest_rank(&mut traced, 0.50)));
            trace.extend(measured.spans.iter().copied());
        }
        if round == 0 && !single {
            // Cheap set-ups are sampled more often than there are rounds.
            let wanted =
                ((SETUP_BUDGET_S / setups[0]).ceil() as usize).clamp(MIN_SETUPS, MAX_SETUPS);
            while setups.len() + rounds - 1 < wanted {
                let extra = Server::start(w, store_dir(setups.len()))?;
                setups.push(extra.setup.as_secs_f64());
                extra.stop()?;
            }
        }
    }

    values.set("setup_s", median(&setups));
    values.set("throughput_vps", median(&throughputs));
    values.set("latency_p50_us", median(&p50s));
    values.set("latency_p90_us", median(&p90s));
    values.set(
        "client.rtt_p99_us",
        micros(nearest_rank(&mut all_rtts, 0.99)),
    );
    values.set("fleet.promotions", promotions as f64);
    values.set("fleet.demotions", demotions as f64);
    values.set(
        "fleet.hot_hit_share",
        1.0 - promotions as f64 / attempted.max(1) as f64,
    );
    values.set("cache.hits", cache_hits as f64);
    values.set("cache.misses", cache_misses as f64);
    values.set("admission.busy", busy as f64);
    values.set("server.errors", errors as f64);
    values.set(
        "client.failed_share",
        timed_failed as f64 / timed_requests.max(1) as f64,
    );
    detail.push(("rounds".into(), rounds as f64));
    detail.push(("setup.samples".into(), setups.len() as f64));
    for (name, per_round) in [("throughput_vps", &throughputs), ("latency_p50_us", &p50s)] {
        let (lo, hi) = per_round
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        detail.push((format!("{name}.round_min"), lo));
        detail.push((format!("{name}.round_max"), hi));
    }
    detail.push(("latency.samples".into(), all_rtts.len() as f64));
    detail.push((
        "latency.beyond_p90".into(),
        beyond(&mut all_rtts, 0.90) as f64,
    ));
    detail.push((
        "latency.beyond_p99".into(),
        beyond(&mut all_rtts, 0.99) as f64,
    ));
    for kind in ["dense", "csr", "sigma", "bitserial"] {
        let n = engines.iter().filter(|e| *e == kind).count();
        detail.push((format!("tenants.{kind}"), n as f64));
    }

    if let Some(traced_p50) = traced_p50 {
        values.set("trace.overhead_us", traced_p50 - median(&p50s));
        detail.push(("trace.latency_p50_us".into(), traced_p50));
        let effort = if opts.quick {
            ladder::Effort::QUICK
        } else {
            ladder::Effort::FULL
        };
        mismatches += ladder::run(
            w,
            &engines,
            effort,
            scratch,
            &mut trace,
            &mut values,
            &mut detail,
        )?;
        let path = opts.work_dir.join(format!("spans-{}.jsonl", w.name));
        trace
            .write(&path)
            .map_err(|e| format!("writing spans to {}: {e}", path.display()))?;
        detail.push(("trace.spans".into(), trace.spans().len() as f64));
    }

    Ok(Outcome {
        workload: w.name.to_string(),
        trace: opts.trace,
        seconds: opts.seconds,
        attempted,
        failed,
        mismatches,
        values,
        env,
        detail,
        first_error,
    })
}

/// Nanoseconds to microseconds; an empty sample reads as unbounded.
fn micros(ns: Option<u64>) -> f64 {
    ns.unwrap_or(u64::MAX) as f64 / 1e3
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Resets the process's `VmHWM` to its current resident set (Linux 4.0
/// and later), so the next [`peak_rss_mb`] reads the peak from here on.
fn reset_peak_rss() -> Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("resetting the peak resident set: {e}"))
}

/// OS threads of this process right now.
fn os_threads() -> Result<f64> {
    std::fs::read_dir("/proc/self/task")
        .map(|d| d.count() as f64)
        .map_err(|e| format!("reading /proc/self/task: {e}"))
}

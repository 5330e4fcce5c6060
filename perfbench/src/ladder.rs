//! The traced run's per-layer ladder: the workload's own matrices and
//! pooled requests pushed through each layer's public functions, one
//! rung at a time, every output checked against the dense reference.
//!
//! Rungs, bottom to top: `kernel` (the serving engine's kernel called
//! directly), `engine` (`GemvBackend::run_block` / `gemv`), `session`
//! (`Session::run_block` / `run`, which adds the dispatcher), `codec`
//! (request and reply encode + decode) and `tcp` (the client round trip,
//! recorded by the closed-loop phase). A layer's cost is the gap between
//! its rung and the one below.

use crate::drive::{verify, Server};
use crate::metrics::Values;
use crate::stats::median;
use crate::trace::Trace;
use crate::workload::{Request as Pooled, Workload};
use crate::Result;
use smm_bitserial::multiplier::FixedMatrixMultiplier;
use smm_core::block::RowBlock;
use smm_core::gemv::vecmat_into;
use smm_core::matrix::IntMatrix;
use smm_runtime::{
    AutoOptions, EngineRegistry, EngineSpec, MultiplierCache, PlanPolicy, Planner, Session,
    TieredConfig, TieredRegistry,
};
use smm_server::protocol::{HEADER_LEN, VERSION};
use smm_server::{BackendKind, Opcode, Reply, Request, ServerConfig};
use smm_sigma::{accumulate_tile, map_tiles, SigmaConfig, Tile};
use smm_sparse::Csr;
use smm_store::{Artifact, ArtifactKind, Store, Tier};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long each ladder rung runs, in passes over the request pool.
#[derive(Debug, Clone, Copy)]
pub struct Effort {
    /// Minimum passes per rung.
    pub min_passes: usize,
    /// Maximum passes per rung.
    pub max_passes: usize,
    /// Passes stop once a rung has run this long (and `min_passes` ran).
    pub budget: Duration,
    /// Samples of each set-up operation (plan, compile, registry, store).
    pub samples: usize,
}

impl Effort {
    /// Smoke-test effort: one pass, one sample.
    pub const QUICK: Effort = Effort {
        min_passes: 1,
        max_passes: 1,
        budget: Duration::ZERO,
        samples: 1,
    };
    /// Measurement effort: 3 to 25 passes of about half a second per rung.
    pub const FULL: Effort = Effort {
        min_passes: 3,
        max_passes: 25,
        budget: Duration::from_millis(500),
        samples: 5,
    };
}

/// The kernel the serving engine calls, held directly.
enum Kernel {
    Dense(IntMatrix),
    Csr(Csr),
    Sigma { tiles: Vec<Tile>, cols: usize },
    BitSerial(Arc<FixedMatrixMultiplier>),
}

impl Kernel {
    fn new(kind: &str, matrix: &IntMatrix, cache: &MultiplierCache) -> Result<Kernel> {
        Ok(match kind {
            "dense" => Kernel::Dense(matrix.clone()),
            "csr" => Kernel::Csr(Csr::from_dense(matrix)),
            "sigma" => Kernel::Sigma {
                tiles: map_tiles(matrix, &SigmaConfig::default()),
                cols: matrix.cols(),
            },
            "bitserial" => Kernel::BitSerial(
                cache
                    .get_or_compile(matrix, server().input_bits, server().encoding)
                    .map_err(|e| e.to_string())?,
            ),
            other => return Err(format!("no kernel rung for engine '{other}'")),
        })
    }

    /// Computes every frame of `request` into `out` (frames × cols).
    fn run(&self, request: &Pooled, out: &mut [i64]) -> Result<()> {
        let frames = &request.frames;
        let cols = request.expected.width();
        match self {
            Kernel::Dense(m) => {
                for (f, row) in out.chunks_exact_mut(cols).enumerate() {
                    vecmat_into(frames.frame(f), m, row).map_err(|e| e.to_string())?;
                }
            }
            Kernel::Csr(csr) => {
                for (f, row) in out.chunks_exact_mut(cols).enumerate() {
                    csr.vecmat_into(frames.frame(f), row)
                        .map_err(|e| e.to_string())?;
                }
            }
            // Weight-stationary, like the engine: tiles outer, frames inner.
            Kernel::Sigma { tiles, cols } => {
                out.fill(0);
                for tile in tiles {
                    for (f, row) in out.chunks_exact_mut(*cols).enumerate() {
                        accumulate_tile(tile, frames.frame(f), row);
                    }
                }
            }
            Kernel::BitSerial(mul) => mul
                .run_frames_block(frames, 0, frames.frames(), out)
                .map_err(|e| e.to_string())?,
        }
        Ok(())
    }

    /// Multiply-accumulates per vector, computed from the representation.
    fn macs(&self, matrix: &IntMatrix) -> f64 {
        match self {
            Kernel::Dense(m) => (m.rows() * m.cols()) as f64,
            _ => matrix.nnz() as f64,
        }
    }

    /// Bytes the kernel reads and writes per vector, computed from
    /// representation sizes: the input and output vectors plus the
    /// weights as stored (dense `i32`; CSR values, column indices and
    /// row pointers; one placed weight per SIGMA PE). The bit-serial
    /// circuit hardwires its weights; its bytes are the simulator's
    /// three 64-lane state words per node per cycle, shared by 64 frames.
    fn bytes(&self, matrix: &IntMatrix) -> f64 {
        let io = matrix.rows() * 4 + matrix.cols() * 8;
        let nnz = matrix.nnz();
        let weights = match self {
            Kernel::Dense(m) => m.rows() * m.cols() * 4,
            Kernel::Csr(_) => {
                nnz * (4 + std::mem::size_of::<usize>())
                    + (matrix.rows() + 1) * std::mem::size_of::<usize>()
            }
            Kernel::Sigma { .. } => {
                nnz * std::mem::size_of::<smm_sigma::functional::PlacedWeight>()
            }
            Kernel::BitSerial(mul) => {
                let s = mul.stats();
                let nodes = s.adders + s.subtractors + s.dffs + matrix.rows();
                nodes * 3 * 8 * mul.exact_latency_cycles() as usize / 64
            }
        };
        (io + weights) as f64
    }
}

/// The server's defaults, which every engine and plan here mirrors.
fn server() -> ServerConfig {
    Server::config(None)
}

/// The plan policy the server applies to a tenant's `LoadMatrix`.
fn load_policy(backend: BackendKind) -> PlanPolicy {
    let cfg = server();
    match backend {
        BackendKind::Auto => PlanPolicy::Auto(AutoOptions {
            input_bits: cfg.input_bits,
            encoding: cfg.encoding,
            threads: cfg.threads,
        }),
        other => PlanPolicy::Explicit(
            EngineSpec::new(other.name())
                .input_bits(cfg.input_bits)
                .encoding(cfg.encoding)
                .threads(cfg.threads),
        ),
    }
}

/// Runs `call` on every pooled request, pass after pass, recording one
/// span per call under `rung`. `call` times its own layer call with
/// [`timed`] and returns that timing with whether the output was right,
/// so the check against the reference stays outside the span. Returns
/// the number of wrong outputs.
fn rung(
    trace: &mut Trace,
    name: &'static str,
    pool: &[Pooled],
    effort: Effort,
    mut call: impl FnMut(usize, &Pooled) -> Result<(Timing, bool)>,
) -> Result<u64> {
    let started = Instant::now();
    let mut wrong = 0;
    let mut passes = 0;
    while passes < effort.min_passes
        || (passes < effort.max_passes && started.elapsed() < effort.budget)
    {
        for (id, request) in pool.iter().enumerate() {
            let ((start, dur), correct) = call(id, request)?;
            trace.push(id, name, 0, start, dur);
            if !correct {
                wrong += 1;
            }
        }
        passes += 1;
    }
    Ok(wrong)
}

/// When a timed call started, and how long it took.
type Timing = (Instant, Duration);

/// Times one layer call.
fn timed<T>(op: impl FnOnce() -> T) -> (Timing, T) {
    let start = Instant::now();
    let out = std::hint::black_box(op());
    ((start, start.elapsed()), out)
}

/// Median of `samples` timings of `op`, in the unit `scale` converts to.
fn sample<T>(samples: usize, scale: f64, mut op: impl FnMut(usize) -> Result<T>) -> Result<f64> {
    let mut times = Vec::with_capacity(samples);
    for i in 0..samples {
        let t = Instant::now();
        std::hint::black_box(op(i)?);
        times.push(t.elapsed().as_secs_f64() * scale);
    }
    Ok(median(&times))
}

const MS: f64 = 1e3;
const US: f64 = 1e6;

/// Runs the ladder for `w`, whose tenants the server planned as
/// `engines`. Records spans in `trace`, per-layer values in `values`
/// and per-kind set-up detail in `detail`. Returns how many outputs
/// differed from the reference.
pub fn run(
    w: &Workload,
    engines: &[String],
    effort: Effort,
    scratch: &Path,
    trace: &mut Trace,
    values: &mut Values,
    detail: &mut Vec<(String, f64)>,
) -> Result<u64> {
    let registry = Arc::new(EngineRegistry::builtin());
    let cache = Arc::new(MultiplierCache::new());

    // Session builds, per engine kind, through one shared cache as the
    // server does (the explicit bit-serial tenants compile here).
    let mut sessions = Vec::with_capacity(w.tenants.len());
    let mut builds: Vec<(String, f64)> = Vec::new();
    for (t, engine) in w.tenants.iter().zip(engines) {
        let started = Instant::now();
        let session = Session::builder(t.matrix.clone())
            .policy(load_policy(t.backend))
            .registry(Arc::clone(&registry))
            .cache(Arc::clone(&cache))
            .build()
            .map_err(|e| e.to_string())?;
        builds.push((engine.clone(), started.elapsed().as_secs_f64() * MS));
        if session.engine().name() != engine {
            return Err(format!(
                "ladder planned {} where the server serves {engine}",
                session.engine().name()
            ));
        }
        sessions.push(session);
    }
    let all_builds: Vec<f64> = builds.iter().map(|b| b.1).collect();
    values.set("session.build_ms", median(&all_builds));
    for kind in ["dense", "csr", "sigma", "bitserial"] {
        let of_kind: Vec<f64> = builds.iter().filter(|b| b.0 == kind).map(|b| b.1).collect();
        if !of_kind.is_empty() {
            detail.push((format!("session.build_ms.{kind}"), median(&of_kind)));
        }
    }

    let kernels = w
        .tenants
        .iter()
        .zip(engines)
        .map(|(t, e)| Kernel::new(e, &t.matrix, &cache))
        .collect::<Result<Vec<_>>>()?;
    let frames_per_request =
        w.pool.iter().map(|r| r.frames.frames()).sum::<usize>() as f64 / w.pool.len() as f64;
    let mean_over_pool =
        |f: &dyn Fn(&Pooled) -> f64| w.pool.iter().map(f).sum::<f64>() / w.pool.len() as f64;
    values.set(
        "kernel.macs_per_vec",
        mean_over_pool(&|r| kernels[r.tenant].macs(&w.tenants[r.tenant].matrix)),
    );
    values.set(
        "kernel.bytes_per_vec",
        mean_over_pool(&|r| kernels[r.tenant].bytes(&w.tenants[r.tenant].matrix)),
    );

    let mut wrong = 0;
    let mut rows = Vec::new();
    wrong += rung(trace, "kernel", &w.pool, effort, |_, r| {
        rows.resize(r.expected.as_slice().len(), 0);
        let (t, done) = timed(|| kernels[r.tenant].run(r, &mut rows));
        done?;
        Ok((t, verify(&rows, r)))
    })?;
    let mut out = RowBlock::new();
    let fail = |e: smm_core::error::Error| e.to_string();
    wrong += rung(trace, "engine", &w.pool, effort, |_, r| {
        let engine = sessions[r.tenant].engine();
        if r.single {
            let (t, row) = timed(|| engine.gemv(r.frames.frame(0)));
            Ok((t, verify(&row.map_err(fail)?, r)))
        } else {
            let (t, done) = timed(|| engine.run_block(&r.frames, &mut out));
            done.map_err(fail)?;
            Ok((t, verify(out.as_slice(), r)))
        }
    })?;
    wrong += rung(trace, "session", &w.pool, effort, |_, r| {
        let session = &sessions[r.tenant];
        if r.single {
            let (t, row) = timed(|| session.run(r.frames.frame(0)));
            Ok((t, verify(&row.map_err(fail)?, r)))
        } else {
            let (t, done) = timed(|| session.run_block(Arc::clone(&r.frames), &mut out));
            done.map_err(fail)?;
            Ok((t, verify(out.as_slice(), r)))
        }
    })?;
    let digests: Vec<u64> = w.tenants.iter().map(|t| t.matrix.digest()).collect();
    // The server moves its output block into the reply; build the
    // replies up front so the rung times only encoding and decoding.
    let replies: Vec<Reply> = w.pool.iter().map(reply_for).collect();
    wrong += rung(trace, "codec", &w.pool, effort, |id, r| {
        let (t, decoded) = timed(|| codec_round(r, digests[r.tenant], &replies[id]));
        let (request, reply) = decoded?;
        Ok((t, request_intact(&request, r) && reply_matches(&reply, r)))
    })?;
    drop(sessions);

    let per_request = |rung: &str| trace.per_request_ns(rung).unwrap_or(f64::NAN);
    values.set(
        "kernel.ns_per_vec",
        per_request("kernel") / frames_per_request,
    );
    values.set(
        "engine.ns_per_vec",
        per_request("engine") / frames_per_request,
    );
    values.set(
        "dispatch.ns_per_request",
        per_request("session") - per_request("engine"),
    );
    values.set("codec.ns_per_request", per_request("codec"));
    values.set(
        "transport.ns_per_request",
        per_request("tcp") - per_request("codec") - per_request("session"),
    );
    values.set(
        "wire.bytes_per_request",
        mean_over_pool(&|r| {
            let request = encode_request(r, digests[r.tenant]);
            (2 * HEADER_LEN + request.len() + reply_for(r).encode(VERSION).len()) as f64
        }),
    );

    // Planning and compiling, each sample against a cold cache.
    let samples = effort.samples;
    values.set(
        "plan.us",
        sample(samples * w.tenants.len().min(8), US, |i| {
            let t = &w.tenants[i % w.tenants.len()];
            Planner::new(&registry)
                .plan(&t.matrix, &load_policy(t.backend), &MultiplierCache::new())
                .map_err(|e| e.to_string())
        })?,
    );
    // A cold build of the serving kernel: the circuit compile
    // (`MultiplierCache::get_or_compile`) of the bit-serial tenants. A
    // workload without any reports the conversion its planned engine
    // makes at load instead (`Csr::from_dense` on `step` and `bulk`).
    let mut compiled: Vec<(&IntMatrix, &str)> = w
        .tenants
        .iter()
        .zip(engines)
        .filter(|(_, e)| *e == "bitserial")
        .map(|(t, e)| (&t.matrix, e.as_str()))
        .collect();
    if compiled.is_empty() {
        compiled.push((&w.tenants[0].matrix, engines[0].as_str()));
    }
    values.set(
        "compile_ms",
        sample(samples.min(3) * compiled.len(), MS, |i| {
            let (matrix, kind) = compiled[i % compiled.len()];
            Kernel::new(kind, matrix, &MultiplierCache::new())
        })?,
    );

    registry_rungs(w, &registry, &cache, samples, values)?;
    store_rungs(w, scratch, samples, values)?;
    Ok(wrong)
}

/// `TieredRegistry::acquire` on hot digests, and on warm digests (a
/// promotion, which rebuilds the session and demotes the coldest).
fn registry_rungs(
    w: &Workload,
    engines: &Arc<EngineRegistry>,
    cache: &Arc<MultiplierCache>,
    samples: usize,
    values: &mut Values,
) -> Result<()> {
    let cfg = server();
    let build = |m: IntMatrix, backend: BackendKind| {
        Session::builder(m)
            .policy(load_policy(backend))
            .registry(Arc::clone(engines))
            .cache(Arc::clone(cache))
            .build()
    };
    let registry = TieredRegistry::new(TieredConfig {
        max_hot: cfg.max_matrices,
        max_warm: cfg.max_warm,
    });
    for t in &w.tenants {
        let session = build(t.matrix.clone(), t.backend).map_err(|e| e.to_string())?;
        registry.insert(t.matrix.clone(), session, None);
    }
    let digests: Vec<u64> = w.tenants.iter().map(|t| t.matrix.digest()).collect();
    let in_tier = |tier| -> Vec<u64> {
        digests
            .iter()
            .copied()
            .filter(|d| registry.tier_of(*d) == Some(tier))
            .collect()
    };
    // A promotion rebuilds through the server's promotion policy (auto).
    let promote_build = |m: IntMatrix| build(m, BackendKind::Auto);
    let hot = in_tier(Tier::Hot);
    values.set(
        "registry.hit_us",
        sample(samples * 100, US, |i| {
            registry
                .acquire(hot[i % hot.len()], promote_build)
                .map_err(|e| e.to_string())
        })?,
    );
    // Each sample picks a warm digest, then times its promotion alone.
    let mut promotions = Vec::with_capacity(samples * 2);
    for i in 0..samples * 2 {
        if in_tier(Tier::Warm).is_empty() {
            // A single-tenant workload: demote its matrix first.
            registry.demote(digests[0]);
        }
        let warm = in_tier(Tier::Warm);
        let digest = *warm
            .get(i % warm.len().max(1))
            .ok_or("no warm digest to promote")?;
        let started = Instant::now();
        let promoted = registry.acquire(digest, promote_build);
        promotions.push(started.elapsed().as_secs_f64() * US);
        if promoted.map_err(|e| e.to_string())?.is_none() {
            return Err("promotion found no entry".into());
        }
    }
    values.set("registry.promote_us", median(&promotions));
    Ok(())
}

/// `Store::put` and `Store::get` of tenants' matrix artifacts.
fn store_rungs(w: &Workload, scratch: &Path, samples: usize, values: &mut Values) -> Result<()> {
    let dir = scratch.join("ladder-store");
    let store = Store::open(&dir).map_err(|e| e.to_string())?;
    let artifacts: Vec<(u64, Artifact)> = w
        .tenants
        .iter()
        .map(|t| (t.matrix.digest(), Artifact::Matrix(t.matrix.clone())))
        .collect();
    let artifact = |i: usize| &artifacts[i % artifacts.len()];
    let n = samples * 2;
    let put = sample(n, MS, |i| {
        let (digest, a) = artifact(i);
        store.put(*digest, a).map_err(|e| e.to_string())
    })?;
    let get = sample(n, MS, |i| {
        store
            .get(artifact(i).0, ArtifactKind::Matrix)
            .map_err(|e| e.to_string())
    })?;
    let (digest, first) = artifact(0);
    if store
        .get(*digest, ArtifactKind::Matrix)
        .map_err(|e| e.to_string())?
        .as_ref()
        != Some(first)
    {
        return Err("the store returned a different matrix".into());
    }
    std::fs::remove_dir_all(&dir).map_err(|e| format!("removing {}: {e}", dir.display()))?;
    values.set("store.put_ms", put);
    values.set("store.get_ms", get);
    Ok(())
}

/// The reply the server sends for one pooled request.
fn reply_for(r: &Pooled) -> Reply {
    if r.single {
        Reply::Output(r.expected.row(0).to_vec())
    } else {
        Reply::Outputs(r.expected.clone())
    }
}

/// The request payload the client sends for one pooled request.
fn encode_request(r: &Pooled, digest: u64) -> Vec<u8> {
    if r.single {
        // `Client::gemv` copies the vector into an owned request too.
        Request::Gemv {
            digest,
            vector: r.frames.frame(0).to_vec(),
        }
        .encode(VERSION)
    } else {
        Request::encode_gemv_batch(digest, &r.frames)
    }
}

/// Encodes and decodes one request and its reply, as client and server
/// do.
fn codec_round(r: &Pooled, digest: u64, reply: &Reply) -> Result<(Request, Reply)> {
    let opcode = if r.single {
        Opcode::Gemv
    } else {
        Opcode::GemvBatch
    };
    let request =
        Request::decode(VERSION, opcode, &encode_request(r, digest)).map_err(|e| e.to_string())?;
    let reply =
        Reply::decode(VERSION, opcode, &reply.encode(VERSION)).map_err(|e| e.to_string())?;
    Ok((request, reply))
}

/// Whether a decoded request carries the pooled request's inputs.
fn request_intact(request: &Request, r: &Pooled) -> bool {
    match request {
        Request::Gemv { vector, .. } => vector == r.frames.frame(0),
        Request::GemvBatch { frames, .. } => frames == &*r.frames,
        _ => false,
    }
}

/// Whether a decoded reply carries the reference output.
fn reply_matches(reply: &Reply, r: &Pooled) -> bool {
    match reply {
        Reply::Output(out) => verify(out, r),
        Reply::Outputs(rows) => verify(rows.as_slice(), r),
        _ => false,
    }
}

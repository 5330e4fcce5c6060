//! The batch dispatcher: shards request batches over the process's one
//! worker pool.
//!
//! A [`Dispatcher`] pairs one [`GemvBackend`] with a per-batch shard cap
//! ([`DispatcherConfig::threads`]) and owns no threads.
//! [`Dispatcher::dispatch_block`] splits a flat [`FrameBlock`] into
//! `min(threads, frames)` contiguous shards. The caller computes the
//! first shard itself, straight into the caller-owned [`RowBlock`]; the
//! other shards go to a process-wide pool of parked workers and their
//! rows are copied back **in submission order**. A batch of one shard
//! (one frame, `threads = 1`, or one allowed CPU) runs inline: no
//! channel, no shard buffer, no copy. [`Dispatcher::dispatch`] keeps the
//! nested `Vec<Vec<_>>` surface as a thin bridge over the block path.
//!
//! The pool starts on the first batch that splits, with
//! `available_parallelism() - 1` workers (at least one), and lives for
//! the rest of the process. A panicking engine, on the caller's shard or
//! a pool shard, fails its own batch with [`Error::Runtime`]; the pool
//! and sibling batches keep going.
//!
//! Plain `std` threads and channels, no unsafe.

use crate::backend::GemvBackend;
use smm_core::block::{FrameBlock, RowBlock};
use smm_core::error::{Error, Result};
use smm_telemetry::{lock_or_recover, SpanRecorder, Stage};
use std::fmt::Display;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// A pool shard's reply.
struct ShardReply {
    /// The shard's half-open row range.
    start: usize,
    end: usize,
    /// Worker-side completion timestamp, measured against the batch's
    /// dispatch start *before* the reply enters the channel — so a shard
    /// that finishes early reports its true latency even when the caller
    /// is still busy with its own shard.
    completed: Duration,
    /// The shard's rows, flat row-major (`(end - start) * cols`
    /// elements) — one buffer per shard, not one per row.
    rows: Result<Vec<i64>>,
}

/// One shard of a dispatched batch, handed to the pool.
struct Job {
    backend: Arc<dyn GemvBackend>,
    /// The whole batch (shared, immutable, flat).
    frames: Arc<FrameBlock>,
    /// This shard's half-open range of batch indices.
    start: usize,
    end: usize,
    /// When the batch was dispatched — the clock base for
    /// [`ShardReply::completed`].
    submitted: Instant,
    /// Where to deliver the reply.
    reply: Sender<ShardReply>,
}

/// Sharding configuration. Construct via [`DispatcherConfig::new`] or
/// [`Default`]; the struct is `#[non_exhaustive]` so future knobs can
/// land without breaking callers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub struct DispatcherConfig {
    /// Most shards one batch splits into. `0` (the default) selects the
    /// machine's available parallelism.
    pub threads: usize,
}

impl DispatcherConfig {
    /// At most `threads` shards per batch (0 = the machine's available
    /// parallelism).
    pub fn new(threads: usize) -> Self {
        Self { threads }
    }

    /// The resolved shard cap (>= 1).
    pub fn resolved_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            available_parallelism()
        }
    }
}

fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Timing of one dispatched batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchStats {
    /// Vectors in the batch.
    pub batch: usize,
    /// Shards the batch was split into (the caller's included).
    pub shards: usize,
    /// Wall-clock time from submission to full reassembly.
    pub elapsed: Duration,
}

/// Cumulative counters of a [`Dispatcher`], for server-level stats
/// reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DispatcherStats {
    /// Batches fully served (failed dispatches are not counted).
    pub batches: u64,
    /// Vectors fully served across all batches.
    pub vectors: u64,
    /// The configured shard cap ([`DispatcherConfig::resolved_threads`]).
    pub threads: usize,
}

/// A completed batch: outputs in submission order plus timing.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchResult {
    /// One output vector per input vector, in input order.
    pub outputs: Vec<Vec<i64>>,
    /// Timing of this batch.
    pub stats: BatchStats,
}

/// An order-preserving batch executor over one backend, sharding across
/// the process-wide worker pool.
///
/// ```
/// use smm_core::matrix::IntMatrix;
/// use smm_runtime::{DenseRef, Dispatcher, DispatcherConfig};
/// use std::sync::Arc;
///
/// let v = IntMatrix::identity(3).unwrap();
/// let d = Dispatcher::new(Arc::new(DenseRef::new(&v)), DispatcherConfig::new(2)).unwrap();
/// let out = d.dispatch(&[vec![1, 2, 3], vec![4, 5, 6]]).unwrap();
/// assert_eq!(out.outputs, vec![vec![1, 2, 3], vec![4, 5, 6]]);
/// ```
pub struct Dispatcher {
    backend: Arc<dyn GemvBackend>,
    threads: usize,
    batches: AtomicU64,
    vectors: AtomicU64,
    /// Optional per-stage telemetry sink: when present, every served
    /// batch records its per-shard completion latencies
    /// ([`Stage::Shard`]), the straggler-to-whole-batch tail
    /// ([`Stage::Reassemble`]), and the whole compute wall time
    /// ([`Stage::Compute`]).
    recorder: Option<SpanRecorder>,
}

impl Dispatcher {
    /// A dispatcher over `backend`. Starts no thread; the `Result` is
    /// kept for API stability and is always `Ok`.
    pub fn new(backend: Arc<dyn GemvBackend>, config: DispatcherConfig) -> Result<Self> {
        Ok(Self::build(backend, config, None))
    }

    /// [`Dispatcher::new`] with a telemetry sink: served batches record
    /// shard / reassembly / compute stage latencies into `recorder`.
    pub fn with_recorder(
        backend: Arc<dyn GemvBackend>,
        config: DispatcherConfig,
        recorder: SpanRecorder,
    ) -> Result<Self> {
        Ok(Self::build(backend, config, Some(recorder)))
    }

    fn build(
        backend: Arc<dyn GemvBackend>,
        config: DispatcherConfig,
        recorder: Option<SpanRecorder>,
    ) -> Self {
        Self {
            backend,
            threads: config.resolved_threads(),
            batches: AtomicU64::new(0),
            vectors: AtomicU64::new(0),
            recorder,
        }
    }

    /// The backend this dispatcher serves.
    pub fn backend(&self) -> &Arc<dyn GemvBackend> {
        &self.backend
    }

    /// The configured shard cap.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Cumulative served-work counters since construction.
    pub fn snapshot(&self) -> DispatcherStats {
        DispatcherStats {
            batches: self.batches.load(Ordering::Relaxed),
            vectors: self.vectors.load(Ordering::Relaxed),
            threads: self.threads,
        }
    }

    /// Executes one batch through the flat block path, returning nested
    /// outputs in submission order.
    ///
    /// A thin bridge: the batch is copied once into a [`FrameBlock`]
    /// (rejecting ragged batches), dispatched via
    /// [`Dispatcher::dispatch_block`], and the output block is split back
    /// into per-row `Vec`s. Callers on the hot path should hold blocks
    /// themselves and call `dispatch_block` directly — it performs no
    /// per-row allocation at all.
    pub fn dispatch(&self, batch: &[Vec<i32>]) -> Result<BatchResult> {
        let frames = FrameBlock::try_from(batch)?;
        let mut out = RowBlock::new();
        let stats = self.dispatch_block(frames, &mut out)?;
        Ok(BatchResult {
            outputs: out.into(),
            stats,
        })
    }

    /// Executes one flat batch, sharded by contiguous row ranges, writing
    /// the outputs in submission order into the caller-owned `out` block
    /// (reshaped to `frames x cols`, reusing its allocation).
    ///
    /// Accepts a [`FrameBlock`] or an `Arc<FrameBlock>` — callers that
    /// re-dispatch the same batch should pass `Arc::clone(&frames)` so no
    /// request data is copied per call. A one-shard batch allocates
    /// nothing; a split batch allocates one channel and one flat row
    /// buffer per pool shard, independent of batch size.
    ///
    /// The batch is split into `min(threads, frames)` balanced shards.
    /// The first shard error, if any, is returned after all shards
    /// settle; `out` holds unspecified contents on error. An empty batch
    /// is valid and produces an empty block.
    pub fn dispatch_block(
        &self,
        frames: impl Into<Arc<FrameBlock>>,
        out: &mut RowBlock,
    ) -> Result<BatchStats> {
        let started = Instant::now();
        let frames: Arc<FrameBlock> = frames.into();
        let n = frames.frames();
        out.reset(n, self.backend.cols())?;
        if n == 0 {
            return Ok(BatchStats {
                batch: 0,
                shards: 0,
                elapsed: started.elapsed(),
            });
        }
        // One uniform width makes the whole-batch shape check O(1); the
        // engines still validate value ranges shard-side.
        if frames.width() != self.backend.rows() {
            return Err(Error::DimensionMismatch {
                context: format!(
                    "frame width {} vs matrix rows {}",
                    frames.width(),
                    self.backend.rows()
                ),
            });
        }
        let wanted = self.threads.min(n);
        let pool = if wanted > 1 { pool() } else { None };
        let shards = if pool.is_some() { wanted } else { 1 };
        // Balanced contiguous shards: the first `n % shards` get one
        // extra vector. Shard `s` starts at `bound(s)`.
        let bound = |s: usize| s * (n / shards) + s.min(n % shards);

        // Pool shards go out first so they run while the caller computes
        // its own; a one-shard batch opens no channel.
        let replies = pool
            .map(|pool| -> Result<Receiver<ShardReply>> {
                let (reply, replies) = channel();
                for s in 1..shards {
                    let job = Job {
                        backend: Arc::clone(&self.backend),
                        frames: Arc::clone(&frames),
                        start: bound(s),
                        end: bound(s + 1),
                        submitted: started,
                        reply: reply.clone(),
                    };
                    pool.send(job).map_err(|_| pool_gone())?;
                }
                Ok(replies)
            })
            .transpose()?;
        let own_end = bound(1);
        let mut result = run_shard(
            self.backend.as_ref(),
            &frames,
            0,
            own_end,
            out.rows_mut(0, own_end),
        );
        let own_done = started.elapsed();
        let mut pool_done = Vec::new();
        if let Some(replies) = replies {
            pool_done.reserve_exact(shards - 1);
            for _ in 1..shards {
                let reply = replies.recv().map_err(|_| pool_gone())?;
                pool_done.push(reply.completed);
                match reply.rows {
                    Ok(rows) => out.rows_mut(reply.start, reply.end).copy_from_slice(&rows),
                    Err(e) => result = result.and(Err(e)),
                }
            }
        }
        result?;
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.vectors.fetch_add(n as u64, Ordering::Relaxed);
        let elapsed = started.elapsed();
        if let Some(rec) = &self.recorder {
            // Per-shard completion, the straggler-to-batch tail, and the
            // whole compute wall time — the interior of the pipeline's
            // compute stage, recorded here because only the dispatcher
            // sees the shard boundaries.
            let mut slowest = own_done;
            rec.record(Stage::Shard, own_done);
            for &completed in &pool_done {
                rec.record(Stage::Shard, completed);
                slowest = slowest.max(completed);
            }
            rec.record(Stage::Reassemble, elapsed.saturating_sub(slowest));
            rec.record(Stage::Compute, elapsed);
        }
        Ok(BatchStats {
            batch: n,
            shards,
            elapsed,
        })
    }
}

/// The process's one worker pool, started on first use: the job queue
/// its parked workers share. `None` when no worker thread could be
/// started; batches then run inline as one shard.
fn pool() -> Option<&'static Sender<Job>> {
    static POOL: OnceLock<Option<Sender<Job>>> = OnceLock::new();
    POOL.get_or_init(|| {
        // The caller computes one shard itself, so one worker fewer than
        // the CPUs keeps every CPU busy; at least one, so a `threads > 1`
        // batch on a one-CPU process still has somewhere to go.
        let workers = available_parallelism().saturating_sub(1).max(1);
        let (tx, rx) = channel::<Job>();
        // std's Receiver is single-consumer; share it behind a mutex so
        // idle workers race for the next shard.
        let rx = Arc::new(Mutex::new(rx));
        let started = (0..workers)
            .filter(|i| {
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("smm-runtime-worker-{i}"))
                    .spawn(move || worker_loop(&rx))
                    .is_ok()
            })
            .count();
        (started > 0).then_some(tx)
    })
    .as_ref()
}

fn worker_loop(rx: &Mutex<Receiver<Job>>) {
    loop {
        // Hold the lock only while *receiving*; compute unlocked.
        let job = lock_or_recover(rx).recv();
        let Ok(Job {
            backend,
            frames,
            start,
            end,
            submitted,
            reply,
        }) = job
        else {
            return;
        };
        let mut rows = vec![0i64; (end - start) * backend.cols()];
        let rows = run_shard(backend.as_ref(), &frames, start, end, &mut rows).map(|()| rows);
        // Release the engine and the batch before replying: once the
        // caller holds every reply, no worker holds its dispatcher's
        // engine. The completion stamp is taken before the send so the
        // caller's copy work cannot inflate it.
        drop((backend, frames));
        let completed = submitted.elapsed();
        // A send failure means the caller gave up on this batch; keep
        // serving later batches.
        let _ = reply.send(ShardReply {
            start,
            end,
            completed,
            rows,
        });
    }
}

/// Computes one shard, containing a panicking engine as an ordinary
/// shard error: the batch fails, the thread that ran it keeps going.
fn run_shard(
    backend: &dyn GemvBackend,
    frames: &FrameBlock,
    start: usize,
    end: usize,
    out: &mut [i64],
) -> Result<()> {
    contain_panic(backend, format_args!("shard {start}..{end}"), || {
        backend.run_rows(frames, start, end, out)
    })
}

/// Runs `op` on `backend`, turning a panic into [`Error::Runtime`] that
/// names the backend and the `task` it was serving.
pub(crate) fn contain_panic<T>(
    backend: &dyn GemvBackend,
    task: impl Display,
    op: impl FnOnce() -> Result<T>,
) -> Result<T> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(op)).unwrap_or_else(|panic| {
        Err(Error::Runtime {
            context: format!(
                "backend '{}' panicked serving {task}: {}",
                backend.name(),
                panic_message(&*panic)
            ),
        })
    })
}

/// Best-effort extraction of a panic payload's message (`panic!` with a
/// string literal or a formatted `String` covers every panic the engines
/// can raise).
fn panic_message(panic: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = panic.downcast_ref::<&str>() {
        s
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

fn pool_gone() -> Error {
    Error::Runtime {
        context: "dispatcher worker pool shut down".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{BitSerial, DenseRef, SparseCsr};
    use smm_bitserial::multiplier::{FixedMatrixMultiplier, WeightEncoding};
    use smm_core::generate::{element_sparse_matrix, random_vector};
    use smm_core::gemv::vecmat;
    use smm_core::matrix::IntMatrix;
    use smm_core::rng::seeded;

    fn random_batch(n: usize, dim: usize, seed: u64) -> Vec<Vec<i32>> {
        let mut rng = seeded(seed);
        (0..n)
            .map(|_| random_vector(dim, 8, true, &mut rng).unwrap())
            .collect()
    }

    #[test]
    fn preserves_submission_order_across_threads() {
        // An identity matrix echoes inputs, making order mistakes visible.
        let v = IntMatrix::identity(8).unwrap();
        let d = Dispatcher::new(
            Arc::new(DenseRef::new(&v)),
            DispatcherConfig::new(4),
        )
        .unwrap();
        let batch: Vec<Vec<i32>> = (0..97i32)
            .map(|i| (0..8).map(|j| (i * 8 + j) % 128).collect())
            .collect();
        let expect: Vec<Vec<i64>> = batch
            .iter()
            .map(|a| a.iter().map(|&x| i64::from(x)).collect())
            .collect();
        let got = d.dispatch(&batch).unwrap();
        assert_eq!(got.outputs, expect);
        assert_eq!(got.stats.batch, 97);
        assert_eq!(got.stats.shards, 4);
    }

    #[test]
    fn all_backends_and_thread_counts_agree() {
        let mut rng = seeded(2300);
        let v = element_sparse_matrix(16, 12, 8, 0.6, true, &mut rng).unwrap();
        let mul = Arc::new(FixedMatrixMultiplier::compile(&v, 8, WeightEncoding::Pn).unwrap());
        let batch = random_batch(13, 16, 2301);
        let expect: Vec<Vec<i64>> = batch.iter().map(|a| vecmat(a, &v).unwrap()).collect();
        let backends: Vec<Arc<dyn GemvBackend>> = vec![
            Arc::new(DenseRef::new(&v)),
            Arc::new(SparseCsr::new(&v)),
            Arc::new(BitSerial::new(mul)),
        ];
        for backend in backends {
            for threads in [1usize, 2, 5] {
                let d = Dispatcher::new(Arc::clone(&backend), DispatcherConfig::new(threads)).unwrap();
                let got = d.dispatch(&batch).unwrap();
                assert_eq!(
                    got.outputs,
                    expect,
                    "{} @ {threads} threads",
                    backend.name()
                );
            }
        }
    }

    #[test]
    fn empty_and_singleton_batches() {
        let v = IntMatrix::identity(4).unwrap();
        let d = Dispatcher::new(
            Arc::new(DenseRef::new(&v)),
            DispatcherConfig::new(3),
        )
        .unwrap();
        let empty = d.dispatch(&[]).unwrap();
        assert!(empty.outputs.is_empty());
        assert_eq!(empty.stats.batch, 0);
        let one = d.dispatch(&[vec![9, 8, 7, 6]]).unwrap();
        assert_eq!(one.outputs, vec![vec![9, 8, 7, 6]]);
        assert_eq!(one.stats.shards, 1);
    }

    #[test]
    fn errors_surface_and_pool_survives() {
        let mut rng = seeded(2302);
        let v = element_sparse_matrix(8, 8, 8, 0.5, true, &mut rng).unwrap();
        let d = Dispatcher::new(
            Arc::new(DenseRef::new(&v)),
            DispatcherConfig::new(2),
        )
        .unwrap();
        // One malformed vector anywhere in the batch fails the batch...
        let mut bad = random_batch(6, 8, 2303);
        bad[4] = vec![1, 2, 3];
        assert!(d.dispatch(&bad).is_err());
        // ...but the pool keeps serving afterwards.
        let good = random_batch(6, 8, 2304);
        let expect: Vec<Vec<i64>> = good.iter().map(|a| vecmat(a, &v).unwrap()).collect();
        assert_eq!(d.dispatch(&good).unwrap().outputs, expect);
    }

    #[test]
    fn dispatch_block_reuses_the_output_block_across_batches() {
        let mut rng = seeded(2305);
        let v = element_sparse_matrix(12, 7, 8, 0.5, true, &mut rng).unwrap();
        let d = Dispatcher::new(
            Arc::new(SparseCsr::new(&v)),
            DispatcherConfig::new(3),
        )
        .unwrap();
        let mut out = RowBlock::new();
        for batch_size in [11usize, 4, 0, 9] {
            let batch = random_batch(batch_size, 12, 2306 + batch_size as u64);
            let frames = Arc::new(FrameBlock::try_from(batch.as_slice()).unwrap());
            let stats = d.dispatch_block(Arc::clone(&frames), &mut out).unwrap();
            assert_eq!(stats.batch, batch_size);
            assert_eq!((out.rows(), out.width()), (batch_size, 7));
            for (i, a) in batch.iter().enumerate() {
                assert_eq!(out.row(i), vecmat(a, &v).unwrap(), "row {i} of {batch_size}");
            }
        }
        // A width mismatch is refused before any shard is dispatched.
        let wrong = FrameBlock::from_rows(&[vec![1; 5]]).unwrap();
        assert!(d.dispatch_block(wrong, &mut out).is_err());
        let s = d.snapshot();
        // The empty batch is not served work, matching `dispatch`.
        assert_eq!((s.batches, s.vectors), (3, 24));
    }

    #[test]
    fn shard_latency_is_stamped_at_worker_completion() {
        /// Sleeps only for the shard holding row 0, so the first
        /// submitted shard is deliberately slow while the rest finish
        /// immediately.
        struct SlowFirstShard;
        impl GemvBackend for SlowFirstShard {
            fn name(&self) -> &'static str {
                "slow-first-shard"
            }
            fn rows(&self) -> usize {
                2
            }
            fn cols(&self) -> usize {
                2
            }
            fn run_rows(
                &self,
                frames: &FrameBlock,
                start: usize,
                end: usize,
                out: &mut [i64],
            ) -> Result<()> {
                crate::backend::check_shard(frames, start, end, 2, out.len())?;
                if start == 0 {
                    std::thread::sleep(Duration::from_millis(40));
                }
                Ok(())
            }
        }
        let rec = SpanRecorder::new();
        let d = Dispatcher::with_recorder(
            Arc::new(SlowFirstShard),
            DispatcherConfig::new(2),
            rec.clone(),
        )
        .unwrap();
        let frames = Arc::new(FrameBlock::from_rows(&vec![vec![0, 0]; 10]).unwrap());
        let mut out = RowBlock::new();
        let stats = d.dispatch_block(frames, &mut out).unwrap();
        assert_eq!(stats.shards, 2);
        assert!(stats.elapsed >= Duration::from_millis(40), "{stats:?}");
        // The caller's shard is the slow one. The pool shard's latency
        // is its own completion time, not the time the caller got to
        // its reply: the faster of the two stamps stays far below the
        // sleep even though the whole batch took at least that long.
        let shard = rec.stage_stats()[Stage::Shard.idx()];
        assert_eq!(shard.count, 2);
        assert!(shard.p50_ns < 20_000_000, "{shard:?}");
        assert!(shard.p99_ns >= 40_000_000, "{shard:?}");
    }

    #[test]
    fn recorder_sees_shard_reassembly_and_compute_stages() {
        // (The nearest-rank percentile math itself is pinned by
        // smm-telemetry's own tests; this covers the dispatcher's use.)
        let rec = SpanRecorder::new();
        let v = IntMatrix::identity(6).unwrap();
        let d = Dispatcher::with_recorder(
            Arc::new(DenseRef::new(&v)),
            DispatcherConfig::new(3),
            rec.clone(),
        )
        .unwrap();
        d.dispatch(&vec![vec![1, 2, 3, 4, 5, 6]; 12]).unwrap();
        d.dispatch(&vec![vec![1, 2, 3, 4, 5, 6]; 2]).unwrap();
        let stats = rec.stage_stats();
        // 3 shards + 2 shards; one reassembly and one compute per batch.
        assert_eq!(stats[Stage::Shard.idx()].count, 5);
        assert_eq!(stats[Stage::Reassemble.idx()].count, 2);
        assert_eq!(stats[Stage::Compute.idx()].count, 2);
        assert!(stats[Stage::Compute.idx()].p99_ns > 0);
        // Failed batches record nothing.
        assert!(d.dispatch(&[vec![1]]).is_err());
        assert_eq!(rec.stage_stats()[Stage::Compute.idx()].count, 2);
        // A recorder-less dispatcher still serves (the default path).
        let plain = Dispatcher::new(
            Arc::new(DenseRef::new(&v)),
            DispatcherConfig::new(2),
        )
        .unwrap();
        plain.dispatch(&vec![vec![0; 6]; 4]).unwrap();
    }

    #[test]
    fn snapshot_counts_served_work() {
        let v = IntMatrix::identity(4).unwrap();
        let d = Dispatcher::new(
            Arc::new(DenseRef::new(&v)),
            DispatcherConfig::new(2),
        )
        .unwrap();
        assert_eq!(d.snapshot(), DispatcherStats { batches: 0, vectors: 0, threads: 2 });
        d.dispatch(&vec![vec![1, 2, 3, 4]; 7]).unwrap();
        d.dispatch(&vec![vec![1, 2, 3, 4]; 3]).unwrap();
        // Failed dispatches are not served work.
        assert!(d.dispatch(&[vec![1]]).is_err());
        let s = d.snapshot();
        assert_eq!((s.batches, s.vectors), (2, 10));
    }

    #[test]
    fn dropped_dispatcher_leaves_no_thread_holding_the_engine() {
        // `Weak` on the backend proves the release: a pool worker drops
        // its job's engine handle before replying, so once every
        // dispatch has returned and the dispatcher is gone, nothing
        // keeps the engine alive.
        let v = IntMatrix::identity(8).unwrap();
        let backend = Arc::new(DenseRef::new(&v));
        let weak = Arc::downgrade(&backend);
        let d = Arc::new(
            Dispatcher::new(backend, DispatcherConfig::new(4)).unwrap(),
        );
        // Concurrent submitters: every dispatch issued before teardown
        // must come back complete and in order.
        let submitters: Vec<_> = (0..4)
            .map(|t| {
                let d = Arc::clone(&d);
                std::thread::spawn(move || {
                    let batch: Vec<Vec<i32>> = (0..25i32)
                        .map(|i| (0..8).map(|j| t * 1000 + i * 8 + j).collect())
                        .collect();
                    let expect: Vec<Vec<i64>> = batch
                        .iter()
                        .map(|a| a.iter().map(|&x| i64::from(x)).collect())
                        .collect();
                    for _ in 0..10 {
                        let got = d.dispatch(&batch).unwrap();
                        assert_eq!(got.outputs, expect);
                    }
                })
            })
            .collect();
        for s in submitters {
            s.join().unwrap();
        }
        let served = d.snapshot();
        assert_eq!((served.batches, served.vectors), (40, 1000));
        drop(Arc::into_inner(d).expect("all submitters joined"));
        assert!(
            weak.upgrade().is_none(),
            "a pool worker still holds the engine"
        );
    }

    #[test]
    fn zero_threads_resolves_to_available_parallelism() {
        let cfg = DispatcherConfig::default();
        assert!(cfg.resolved_threads() >= 1);
        let v = IntMatrix::identity(2).unwrap();
        let d = Dispatcher::new(Arc::new(DenseRef::new(&v)), cfg).unwrap();
        assert!(d.threads() >= 1);
        assert_eq!(
            d.dispatch(&[vec![1, 2]]).unwrap().outputs,
            vec![vec![1, 2]]
        );
    }
}

//! The pluggable compute engines behind the serving runtime.
//!
//! A [`GemvBackend`] computes the paper's `o = aᵀV` product for one fixed
//! matrix `V`, through one primitive: [`GemvBackend::run_rows`] fills a
//! range of output rows from a flat [`FrameBlock`] in place. Four
//! implementations cover the repo's functional layers:
//!
//! * [`DenseRef`] — the dense reference kernel ([`smm_core::gemv::vecmat`]);
//! * [`SparseCsr`] — the executed CSR SpMV kernel ([`smm_sparse::Csr`]);
//! * [`BitSerial`] — the compiled spatial circuit, simulated gate by gate
//!   with up to 64 frames bit-sliced into machine words;
//! * [`SigmaEngine`] — the SIGMA accelerator baseline executed through
//!   its PE-grid tile mapping ([`smm_sigma::map_tiles`]), weight-stationary
//!   across a batch.
//!
//! All four are bit-identical on every valid input; which one to serve
//! with is purely a throughput/fidelity trade (the bit-serial engine is a
//! *simulation* of the hardware and therefore the slowest and the most
//! faithful; the sigma engine executes the exact dataflow the SIGMA
//! timing model prices).

use smm_bitserial::multiplier::FixedMatrixMultiplier;
use smm_core::block::{FrameBlock, RowBlock};
use smm_core::error::{Error, Result};
use smm_core::gemv::vecmat_into;
use smm_core::matrix::IntMatrix;
use smm_sigma::{accumulate_tile, map_tiles, SigmaConfig, Tile};
use smm_sparse::Csr;
use std::sync::Arc;

/// Validates a shard call: `start..end` must lie inside `frames` and
/// `out_len` must be exactly `(end - start) * cols`. Shared by every
/// [`GemvBackend::run_rows`] implementation.
pub(crate) fn check_shard(
    frames: &FrameBlock,
    start: usize,
    end: usize,
    cols: usize,
    out_len: usize,
) -> Result<()> {
    if start > end || end > frames.frames() {
        return Err(Error::DimensionMismatch {
            context: format!(
                "shard {start}..{end} outside block of {} frames",
                frames.frames()
            ),
        });
    }
    let expected = (end - start) * cols;
    if out_len != expected {
        return Err(Error::DimensionMismatch {
            context: format!("output length {out_len} vs {expected} shard elements"),
        });
    }
    Ok(())
}

/// A fixed-matrix `o = aᵀV` compute engine, shareable across worker
/// threads.
pub trait GemvBackend: Send + Sync {
    /// Short stable name for reports (`"dense"`, `"csr"`, `"bitserial"`,
    /// `"sigma"`).
    fn name(&self) -> &'static str;

    /// Matrix rows — the required input-vector length.
    fn rows(&self) -> usize;

    /// Matrix columns — the produced output-vector length.
    fn cols(&self) -> usize;

    /// Computes frames `start..end` of a flat [`FrameBlock`] into a
    /// row-major output slice of `(end - start) * cols()` elements — the
    /// engine's one compute primitive. The [`crate::Dispatcher`] drives
    /// it per shard, and [`GemvBackend::gemv`] and
    /// [`GemvBackend::run_block`] are derived from it.
    ///
    /// Implementations write rows in place and must validate the shard
    /// range, `out`'s length and the frame width rather than panic on a
    /// mis-sized call.
    fn run_rows(
        &self,
        frames: &FrameBlock,
        start: usize,
        end: usize,
        out: &mut [i64],
    ) -> Result<()>;

    /// Computes one product `o = aᵀV`: `a` as a one-frame block through
    /// [`GemvBackend::run_rows`].
    fn gemv(&self, a: &[i32]) -> Result<Vec<i64>> {
        let frames = FrameBlock::from_vec(1, a.len(), a.to_vec())?;
        let mut out = vec![0; self.cols()];
        self.run_rows(&frames, 0, 1, &mut out)?;
        Ok(out)
    }

    /// Computes a whole [`FrameBlock`] into a caller-owned [`RowBlock`],
    /// which is reshaped to `frames.frames() x cols()` (reusing its
    /// allocation) and filled in place. Bit-identical to mapping
    /// [`GemvBackend::gemv`] over the frames.
    fn run_block(&self, frames: &FrameBlock, out: &mut RowBlock) -> Result<()> {
        out.reset(frames.frames(), self.cols())?;
        self.run_rows(frames, 0, frames.frames(), out.as_mut_slice())
    }
}

/// The dense reference kernel.
#[derive(Debug, Clone)]
pub struct DenseRef {
    matrix: IntMatrix,
}

impl DenseRef {
    /// Wraps a copy of a dense matrix. (Callers that already own the
    /// matrix move it in via `From<IntMatrix>` instead.)
    pub fn new(matrix: &IntMatrix) -> Self {
        Self {
            matrix: matrix.clone(),
        }
    }

    /// The wrapped matrix.
    pub fn matrix(&self) -> &IntMatrix {
        &self.matrix
    }
}

impl From<IntMatrix> for DenseRef {
    /// Moves an owned matrix in without copying.
    fn from(matrix: IntMatrix) -> Self {
        Self { matrix }
    }
}

impl From<&IntMatrix> for DenseRef {
    fn from(matrix: &IntMatrix) -> Self {
        Self::new(matrix)
    }
}

impl GemvBackend for DenseRef {
    fn name(&self) -> &'static str {
        "dense"
    }

    fn rows(&self) -> usize {
        self.matrix.rows()
    }

    fn cols(&self) -> usize {
        self.matrix.cols()
    }

    /// Writes each product row in place via [`vecmat_into`] — no
    /// allocation per row or per shard.
    fn run_rows(
        &self,
        frames: &FrameBlock,
        start: usize,
        end: usize,
        out: &mut [i64],
    ) -> Result<()> {
        let cols = self.matrix.cols();
        check_shard(frames, start, end, cols, out.len())?;
        for (i, frame) in (start..end).enumerate() {
            vecmat_into(
                frames.frame(frame),
                &self.matrix,
                &mut out[i * cols..(i + 1) * cols],
            )?;
        }
        Ok(())
    }
}

/// The executed CSR SpMV kernel.
#[derive(Debug, Clone)]
pub struct SparseCsr {
    csr: Csr,
}

impl SparseCsr {
    /// Converts a dense matrix to CSR once, up front.
    pub fn new(matrix: &IntMatrix) -> Self {
        Self {
            csr: Csr::from_dense(matrix),
        }
    }

    /// Wraps an existing CSR matrix.
    pub fn from_csr(csr: Csr) -> Self {
        Self { csr }
    }
}

impl From<&IntMatrix> for SparseCsr {
    fn from(matrix: &IntMatrix) -> Self {
        Self::new(matrix)
    }
}

impl From<Csr> for SparseCsr {
    fn from(csr: Csr) -> Self {
        Self::from_csr(csr)
    }
}

impl GemvBackend for SparseCsr {
    fn name(&self) -> &'static str {
        "csr"
    }

    fn rows(&self) -> usize {
        self.csr.rows()
    }

    fn cols(&self) -> usize {
        self.csr.cols()
    }

    /// Writes each product row in place via [`Csr::vecmat_into`] — no
    /// allocation per row or per shard.
    fn run_rows(
        &self,
        frames: &FrameBlock,
        start: usize,
        end: usize,
        out: &mut [i64],
    ) -> Result<()> {
        let cols = self.csr.cols();
        check_shard(frames, start, end, cols, out.len())?;
        for (i, frame) in (start..end).enumerate() {
            self.csr
                .vecmat_into(frames.frame(frame), &mut out[i * cols..(i + 1) * cols])?;
        }
        Ok(())
    }
}

/// The compiled bit-serial spatial circuit, simulated gate by gate.
///
/// Shards run through the word-level bit-sliced simulator
/// ([`FixedMatrixMultiplier::run_frames_block`]). The hardware's framed
/// back-to-back batching mode ([`FixedMatrixMultiplier::run_frames`])
/// computes the same bits and stays in `smm-bitserial` as its reference.
#[derive(Debug, Clone)]
pub struct BitSerial {
    mul: Arc<FixedMatrixMultiplier>,
}

impl BitSerial {
    /// Wraps a compiled multiplier (typically obtained from the
    /// [`crate::MultiplierCache`]).
    pub fn new(mul: Arc<FixedMatrixMultiplier>) -> Self {
        Self { mul }
    }

    /// The compiled multiplier.
    pub fn multiplier(&self) -> &Arc<FixedMatrixMultiplier> {
        &self.mul
    }
}

impl From<Arc<FixedMatrixMultiplier>> for BitSerial {
    fn from(mul: Arc<FixedMatrixMultiplier>) -> Self {
        Self::new(mul)
    }
}

impl TryFrom<&IntMatrix> for BitSerial {
    type Error = smm_core::error::Error;

    /// Compiles the matrix with default parameters (8-bit operands,
    /// plain `Pn` weights) — uncached; serving paths compile through the
    /// [`crate::MultiplierCache`] instead.
    fn try_from(matrix: &IntMatrix) -> Result<Self> {
        use smm_bitserial::multiplier::WeightEncoding;
        Ok(Self::new(Arc::new(FixedMatrixMultiplier::compile(
            matrix,
            8,
            WeightEncoding::Pn,
        )?)))
    }
}

impl GemvBackend for BitSerial {
    fn name(&self) -> &'static str {
        "bitserial"
    }

    fn rows(&self) -> usize {
        self.mul.rows()
    }

    fn cols(&self) -> usize {
        self.mul.cols()
    }

    /// The whole shard runs through the word-level bit-sliced engine
    /// ([`FixedMatrixMultiplier::run_frames_block`]): up to 64 frames
    /// packed one-per-bit into machine words, one gate evaluation
    /// serving every lane, decoded straight into the flat output slice
    /// — no per-frame or per-row allocation.
    fn run_rows(
        &self,
        frames: &FrameBlock,
        start: usize,
        end: usize,
        out: &mut [i64],
    ) -> Result<()> {
        self.mul.run_frames_block(frames, start, end, out)
    }
}

/// The SIGMA accelerator baseline (Qin et al., HPCA 2020) as a live
/// serving engine: the matrix's non-zeros are packed onto the modelled
/// PE grid **once** at construction ([`map_tiles`]), and every product
/// executes through that resident tile map — weight-stationary, exactly
/// the dataflow [`smm_sigma::Sigma`] prices. Bit-identical to the dense
/// reference (pure integer math through the reduction network).
///
/// [`GemvBackend::run_rows`] iterates tiles in the outer loop so each
/// tile's weights stay stationary while the whole shard streams by —
/// the accelerator's SpMM mode, and one tile-map traversal per shard
/// instead of one per vector.
#[derive(Debug, Clone)]
pub struct SigmaEngine {
    tiles: Vec<Tile>,
    config: SigmaConfig,
    rows: usize,
    cols: usize,
}

impl SigmaEngine {
    /// Maps the matrix onto the paper's default 128×128 PE grid.
    pub fn new(matrix: &IntMatrix) -> Self {
        Self::with_config(matrix, SigmaConfig::default())
    }

    /// Maps the matrix onto a custom grid. The tile map is computed here,
    /// once, and reused by every product the engine ever serves.
    pub fn with_config(matrix: &IntMatrix, config: SigmaConfig) -> Self {
        Self {
            tiles: map_tiles(matrix, &config),
            config,
            rows: matrix.rows(),
            cols: matrix.cols(),
        }
    }

    /// PE-grid tiles the matrix's non-zeros occupy.
    pub fn tiles(&self) -> usize {
        self.tiles.len()
    }

    /// The modelled hardware configuration.
    pub fn config(&self) -> &SigmaConfig {
        &self.config
    }

    fn check_width(&self, got: usize) -> Result<()> {
        if got != self.rows {
            return Err(Error::DimensionMismatch {
                context: format!("vector length {got} vs matrix rows {}", self.rows),
            });
        }
        Ok(())
    }
}

impl From<&IntMatrix> for SigmaEngine {
    fn from(matrix: &IntMatrix) -> Self {
        Self::new(matrix)
    }
}

impl GemvBackend for SigmaEngine {
    fn name(&self) -> &'static str {
        "sigma"
    }

    fn rows(&self) -> usize {
        self.rows
    }

    fn cols(&self) -> usize {
        self.cols
    }

    /// Weight-stationary over the shard: tiles outer, frames inner, rows
    /// accumulated in place — one tile-map traversal for the whole shard
    /// and no per-row allocation.
    fn run_rows(
        &self,
        frames: &FrameBlock,
        start: usize,
        end: usize,
        out: &mut [i64],
    ) -> Result<()> {
        check_shard(frames, start, end, self.cols, out.len())?;
        if end > start {
            self.check_width(frames.width())?;
        }
        out.fill(0);
        for tile in &self.tiles {
            for (i, frame) in (start..end).enumerate() {
                accumulate_tile(
                    tile,
                    frames.frame(frame),
                    &mut out[i * self.cols..(i + 1) * self.cols],
                );
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smm_bitserial::multiplier::WeightEncoding;
    use smm_core::gemv::vecmat;
    use smm_core::generate::{element_sparse_matrix, random_vector};
    use smm_core::rng::seeded;

    fn backends(v: &IntMatrix) -> Vec<Box<dyn GemvBackend>> {
        let mul = FixedMatrixMultiplier::compile(v, 8, WeightEncoding::Pn).unwrap();
        vec![
            Box::new(DenseRef::new(v)),
            Box::new(SparseCsr::new(v)),
            Box::new(BitSerial::new(Arc::new(mul))),
            Box::new(SigmaEngine::new(v)),
        ]
    }

    #[test]
    fn all_backends_agree_with_reference() {
        let mut rng = seeded(2100);
        let v = element_sparse_matrix(20, 14, 8, 0.6, true, &mut rng).unwrap();
        let a = random_vector(20, 8, true, &mut rng).unwrap();
        let expect = vecmat(&a, &v).unwrap();
        for b in backends(&v) {
            assert_eq!(b.gemv(&a).unwrap(), expect, "{}", b.name());
            assert_eq!(b.rows(), 20);
            assert_eq!(b.cols(), 14);
        }
    }

    #[test]
    fn batched_paths_agree_including_empty() {
        let mut rng = seeded(2101);
        let v = element_sparse_matrix(12, 12, 8, 0.5, true, &mut rng).unwrap();
        let batch: Vec<Vec<i32>> = (0..5)
            .map(|_| random_vector(12, 8, true, &mut rng).unwrap())
            .collect();
        let expect: Vec<Vec<i64>> = batch.iter().map(|a| vecmat(a, &v).unwrap()).collect();
        let frames = FrameBlock::try_from(batch.as_slice()).unwrap();
        let mut out = RowBlock::new();
        for b in backends(&v) {
            b.run_block(&frames, &mut out).unwrap();
            assert_eq!(Vec::<Vec<i64>>::from(&out), expect, "{}", b.name());
            b.run_block(&FrameBlock::default(), &mut out).unwrap();
            assert!(out.is_empty(), "{}", b.name());
        }
    }

    #[test]
    fn dimension_errors_propagate() {
        let mut rng = seeded(2102);
        let v = element_sparse_matrix(6, 6, 8, 0.5, true, &mut rng).unwrap();
        for b in backends(&v) {
            assert!(b.gemv(&[1, 2, 3]).is_err(), "{}", b.name());
            assert!(b.gemv(&[0; 7]).is_err(), "{}", b.name());
        }
    }

    #[test]
    fn block_paths_agree_with_gemv_including_shards() {
        let mut rng = seeded(2103);
        let v = element_sparse_matrix(10, 8, 8, 0.5, true, &mut rng).unwrap();
        let batch: Vec<Vec<i32>> = (0..7)
            .map(|_| random_vector(10, 8, true, &mut rng).unwrap())
            .collect();
        let frames = FrameBlock::try_from(batch.as_slice()).unwrap();
        let expect: Vec<Vec<i64>> = batch.iter().map(|a| vecmat(a, &v).unwrap()).collect();
        for b in backends(&v) {
            // Whole block, into a stale reused buffer.
            let mut out = RowBlock::zeros(1, 1).unwrap();
            b.run_block(&frames, &mut out).unwrap();
            assert_eq!(Vec::<Vec<i64>>::from(&out), expect, "{}", b.name());
            // An interior shard lands rows 2..5 exactly.
            let mut shard = vec![-9i64; 3 * 8];
            b.run_rows(&frames, 2, 5, &mut shard).unwrap();
            for (i, frame) in (2..5).enumerate() {
                assert_eq!(&shard[i * 8..(i + 1) * 8], expect[frame].as_slice(), "{}", b.name());
            }
            // Empty blocks are valid.
            b.run_block(&FrameBlock::default(), &mut out).unwrap();
            assert!(out.is_empty(), "{}", b.name());
        }
    }

    #[test]
    fn block_paths_reject_bad_shards_and_widths() {
        let mut rng = seeded(2104);
        let v = element_sparse_matrix(5, 4, 8, 0.5, true, &mut rng).unwrap();
        let frames = FrameBlock::from_rows(&[vec![1; 5], vec![2; 5]]).unwrap();
        let thin = FrameBlock::from_rows(&[vec![1; 3]]).unwrap();
        for b in backends(&v) {
            let name = b.name();
            assert!(b.run_rows(&frames, 0, 3, &mut [0; 12]).is_err(), "{name}");
            assert!(b.run_rows(&frames, 0, 2, &mut [0; 7]).is_err(), "{name}");
            let mut out = RowBlock::new();
            assert!(b.run_block(&thin, &mut out).is_err(), "{name}");
        }
    }
}

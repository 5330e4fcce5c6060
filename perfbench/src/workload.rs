//! The seeded workloads: tenant matrices, a pool of requests with their
//! dense-reference outputs, and each client's request order.
//!
//! Everything here is a pure function of `(workload, seed, quick)`; the
//! server only ever receives what this module generates.

use crate::Result;
use rand::Rng;
use smm_core::block::{FrameBlock, RowBlock};
use smm_core::gemv::vecmat;
use smm_core::generate::{element_sparse_matrix, random_vector};
use smm_core::matrix::IntMatrix;
use smm_core::rng::derived;
use smm_server::BackendKind;
use std::sync::Arc;

/// Weight and input width of every workload (signed).
pub const BITS: u32 = 8;

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["step", "bulk", "fleet"];

/// One matrix the server is asked to serve.
#[derive(Debug, Clone)]
pub struct Tenant {
    /// The weights.
    pub matrix: IntMatrix,
    /// The backend choice sent with `LoadMatrix`.
    pub backend: BackendKind,
}

/// One pooled request and the output it must produce.
#[derive(Debug, Clone)]
pub struct Request {
    /// Index into [`Workload::tenants`].
    pub tenant: usize,
    /// The input vectors.
    pub frames: Arc<FrameBlock>,
    /// The dense reference `o = aᵀV` for every frame.
    pub expected: RowBlock,
    /// Sent as a single-vector `Gemv` (else as `GemvBatch`).
    pub single: bool,
}

/// A generated workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Workload name.
    pub name: &'static str,
    /// The seed everything was drawn from.
    pub seed: u64,
    /// Matrices to load, in load order.
    pub tenants: Vec<Tenant>,
    /// Distinct requests; clients cycle through them.
    pub pool: Vec<Request>,
    /// Per closed-loop client: the pool indices it sends, in order.
    pub orders: Vec<Vec<usize>>,
    /// Whether the server gets a store directory.
    pub store: bool,
}

impl Workload {
    /// Generates workload `name` from `seed`. `quick` shrinks pools and
    /// batches for smoke tests; matrices and server setup stay the same.
    pub fn generate(name: &str, seed: u64, quick: bool) -> Result<Workload> {
        match name {
            // The paper's recurrent-latency case: one reservoir matrix,
            // one caller stepping one state vector at a time.
            "step" => {
                Workload::single_tenant("step", seed, 256, 0.95, if quick { 32 } else { 1024 }, 1)
            }
            // Throughput: one large matrix, big batches.
            "bulk" => Workload::single_tenant(
                "bulk",
                seed,
                1024,
                0.90,
                if quick { 2 } else { 8 },
                if quick { 16 } else { 256 },
            ),
            // Many small tenants, more than the hot tier holds.
            "fleet" => Workload::fleet(seed, quick),
            other => Err(format!(
                "unknown workload '{other}' (have: {})",
                NAMES.join(", ")
            )),
        }
    }

    fn single_tenant(
        name: &'static str,
        seed: u64,
        dim: usize,
        sparsity: f64,
        requests: usize,
        batch: usize,
    ) -> Result<Workload> {
        let mut rng = derived(seed, 0);
        let matrix =
            element_sparse_matrix(dim, dim, BITS, sparsity, true, &mut rng).map_err(err)?;
        let tenants = vec![Tenant {
            matrix,
            backend: BackendKind::Auto,
        }];
        let mut inputs = derived(seed, 1);
        let pool = (0..requests)
            .map(|_| request(&tenants, 0, batch, batch == 1, &mut inputs))
            .collect::<Result<Vec<_>>>()?;
        Ok(Workload {
            name,
            seed,
            orders: vec![(0..pool.len()).collect()],
            tenants,
            pool,
            store: false,
        })
    }

    fn fleet(seed: u64, quick: bool) -> Result<Workload> {
        const TENANTS: usize = 96;
        const DIM: usize = 128;
        const BATCH: usize = 8;
        const SPARSITY: [f64; 4] = [0.30, 0.60, 0.90, 0.97];
        // One closed-loop client: with two on a 2-vCPU machine the median
        // request waits behind the other client's promotions, and the
        // median moved by a quarter between runs.
        const CLIENTS: usize = 1;
        let per_tenant = if quick { 1 } else { 4 };
        let picks = if quick { 256 } else { 8192 };
        let mut rng = derived(seed, 0);
        let tenants = (0..TENANTS)
            .map(|i| {
                Ok(Tenant {
                    matrix: element_sparse_matrix(DIM, DIM, BITS, SPARSITY[i % 4], true, &mut rng)
                        .map_err(err)?,
                    // Every eighth tenant (all at 97% sparsity) asks for
                    // the compiled spatial circuit explicitly.
                    backend: if i % 8 == 7 {
                        BackendKind::BitSerial
                    } else {
                        BackendKind::Auto
                    },
                })
            })
            .collect::<Result<Vec<_>>>()?;
        let mut inputs = derived(seed, 1);
        let mut pool = Vec::with_capacity(TENANTS * per_tenant);
        for t in 0..TENANTS {
            for _ in 0..per_tenant {
                pool.push(request(&tenants, t, BATCH, false, &mut inputs)?);
            }
        }
        // Each request goes to a seeded-uniform tenant.
        let orders = (0..CLIENTS)
            .map(|c| {
                let mut rng = derived(seed, 2 + c as u64);
                (0..picks)
                    .map(|_| rng.gen_range(0..TENANTS) * per_tenant + rng.gen_range(0..per_tenant))
                    .collect()
            })
            .collect();
        Ok(Workload {
            name: "fleet",
            seed,
            tenants,
            pool,
            orders,
            store: true,
        })
    }

    /// Closed-loop clients.
    pub fn clients(&self) -> usize {
        self.orders.len()
    }
}

/// Draws `batch` input vectors for `tenant` and computes their dense
/// reference outputs.
fn request(
    tenants: &[Tenant],
    tenant: usize,
    batch: usize,
    single: bool,
    rng: &mut impl Rng,
) -> Result<Request> {
    let matrix = &tenants[tenant].matrix;
    let mut frames = FrameBlock::with_capacity(matrix.rows(), batch);
    let mut expected = Vec::with_capacity(batch * matrix.cols());
    for _ in 0..batch {
        let a = random_vector(matrix.rows(), BITS, true, rng).map_err(err)?;
        expected.extend(vecmat(&a, matrix).map_err(err)?);
        frames.push_frame(&a).map_err(err)?;
    }
    Ok(Request {
        tenant,
        frames: Arc::new(frames),
        expected: RowBlock::from_vec(batch, matrix.cols(), expected).map_err(err)?,
        single,
    })
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = Workload::generate("fleet", 7, true).unwrap();
        let b = Workload::generate("fleet", 7, true).unwrap();
        assert_eq!(a.orders, b.orders);
        assert_eq!(a.pool[5].frames, b.pool[5].frames);
        assert_eq!(a.tenants[3].matrix, b.tenants[3].matrix);
        let c = Workload::generate("fleet", 8, true).unwrap();
        assert_ne!(a.tenants[3].matrix, c.tenants[3].matrix);
    }

    #[test]
    fn fleet_shape() {
        let w = Workload::generate("fleet", 1, true).unwrap();
        assert_eq!(w.tenants.len(), 96);
        assert_eq!(w.clients(), 1);
        let explicit = w
            .tenants
            .iter()
            .filter(|t| t.backend == BackendKind::BitSerial)
            .count();
        assert_eq!(explicit, 12);
        assert!(Workload::generate("nope", 1, true).is_err());
    }
}

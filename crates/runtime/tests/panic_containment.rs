//! A panicking engine reached through a `Session` fails the one call
//! with `Error::Runtime` on every submission surface: the single-vector
//! `run` (a wire `Gemv` request) and the inline one-shard `run_block`
//! both contain it on the calling thread, which keeps serving. The
//! engine is plugged in the way a third-party engine would be, through
//! `EngineRegistry::register`.

use smm_core::block::{FrameBlock, RowBlock};
use smm_core::error::{Error, Result};
use smm_core::matrix::IntMatrix;
use smm_runtime::{EngineRegistry, EngineSpec, GemvBackend, Session};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Echoes its input like an identity matrix, but panics on every call
/// while the shared `armed` flag is set.
struct Panicky {
    dim: usize,
    armed: Arc<AtomicBool>,
}

impl GemvBackend for Panicky {
    fn name(&self) -> &'static str {
        "panicky"
    }

    fn rows(&self) -> usize {
        self.dim
    }

    fn cols(&self) -> usize {
        self.dim
    }

    fn run_rows(
        &self,
        frames: &FrameBlock,
        start: usize,
        end: usize,
        out: &mut [i64],
    ) -> Result<()> {
        if self.armed.load(Ordering::SeqCst) {
            panic!("injected engine fault");
        }
        for (o, &x) in out
            .iter_mut()
            .zip(&frames.as_slice()[start * self.dim..end * self.dim])
        {
            *o = i64::from(x);
        }
        Ok(())
    }
}

/// A session over the panicking engine, registered by kind, with its
/// switch.
fn panicky_session(threads: usize) -> (Session, Arc<AtomicBool>) {
    let armed = Arc::new(AtomicBool::new(true));
    let mut registry = EngineRegistry::builtin();
    let flag = Arc::clone(&armed);
    registry.register("panicky", move |ctx| {
        Ok(Arc::new(Panicky {
            dim: ctx.matrix.rows(),
            armed: Arc::clone(&flag),
        }) as Arc<dyn GemvBackend>)
    });
    let session = Session::builder(IntMatrix::identity(3).unwrap())
        .registry(Arc::new(registry))
        .spec(EngineSpec::new("panicky").threads(threads))
        .build()
        .unwrap();
    (session, armed)
}

/// Keeps the injected panics out of the test output.
fn quiet_panics() {
    if std::env::var_os("SMM_LOUD_PANICS").is_none() {
        std::panic::set_hook(Box::new(|_| {}));
    }
}

#[test]
fn a_panicking_single_product_is_a_runtime_error() {
    quiet_panics();
    let (session, armed) = panicky_session(1);
    let err = session.run(&[1, 2, 3]).unwrap_err();
    assert!(matches!(err, Error::Runtime { .. }), "{err:?}");
    assert!(err.to_string().contains("panicked"), "{err}");
    assert!(err.to_string().contains("injected engine fault"), "{err}");
    // A failed single is not served work.
    assert_eq!(session.singles(), 0);
    // The calling thread survived and the session still serves.
    armed.store(false, Ordering::SeqCst);
    assert_eq!(session.run(&[1, 2, 3]).unwrap(), vec![1, 2, 3]);
    assert_eq!(session.singles(), 1);
}

#[test]
fn a_panicking_inline_batch_is_a_runtime_error() {
    quiet_panics();
    // One shard: the whole batch runs on the calling thread.
    let (session, armed) = panicky_session(1);
    let frames = Arc::new(FrameBlock::from_rows(&[vec![1, 2, 3], vec![4, 5, 6]]).unwrap());
    let mut out = RowBlock::new();
    let err = session
        .run_block(Arc::clone(&frames), &mut out)
        .unwrap_err();
    assert!(matches!(err, Error::Runtime { .. }), "{err:?}");
    assert!(err.to_string().contains("injected engine fault"), "{err}");
    assert_eq!(session.stats().dispatcher.batches, 0);
    armed.store(false, Ordering::SeqCst);
    let stats = session.run_block(frames, &mut out).unwrap();
    assert_eq!(stats.shards, 1);
    assert_eq!(out.row(1), &[4, 5, 6]);
}

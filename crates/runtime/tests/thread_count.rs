//! Sessions own no threads: however many are built, a process serving
//! multi-frame batches through all of them grows by at most the one
//! shared worker pool. Its own test binary, so no other test's threads
//! move the count.

/// OS threads of this process, from `Threads:` in `/proc/self/status`.
#[cfg(target_os = "linux")]
fn os_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("a Threads: line in /proc/self/status")
}

#[cfg(target_os = "linux")]
#[test]
fn thread_count_does_not_grow_with_sessions() {
    use smm_core::block::{FrameBlock, RowBlock};
    use smm_core::matrix::IntMatrix;
    use smm_runtime::{EngineSpec, Session};
    use std::sync::Arc;

    let before = os_threads();
    let sessions: Vec<Session> = (0..32)
        .map(|i| {
            let v = IntMatrix::from_vec(2, 2, vec![i, 1, -1, i + 1]).unwrap();
            Session::with_spec(v, EngineSpec::csr().threads(0)).unwrap()
        })
        .collect();
    assert_eq!(os_threads(), before, "building sessions started threads");

    let frames = Arc::new(FrameBlock::from_rows(&vec![vec![1, 2]; 8]).unwrap());
    let mut out = RowBlock::new();
    for session in &sessions {
        session.run_block(Arc::clone(&frames), &mut out).unwrap();
        assert_eq!(out.rows(), 8);
    }
    // The process's one pool: one worker fewer than the CPUs, at least
    // one.
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pool = cpus.saturating_sub(1).max(1);
    let grown = os_threads() - before;
    assert!(
        grown <= pool,
        "{grown} threads for 32 sessions, pool is {pool}"
    );
}

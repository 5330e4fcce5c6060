//! Per-request spans of the traced run, kept in memory and written out
//! as JSON lines when the run ends.
//!
//! A span's `id` is the index of the pooled request it served, so one
//! request can be followed across every rung of the ladder: kernel,
//! engine, session, codec and the TCP round trip.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One timed call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Pooled request index; shared by every rung that served it.
    pub id: usize,
    /// Which rung the call went through.
    pub rung: &'static str,
    /// Closed-loop client (0 for ladder rungs, which run on one thread).
    pub client: usize,
    /// Start, relative to the run's trace epoch.
    pub start_ns: u64,
    /// Duration of the call.
    pub dur_ns: u64,
}

/// The in-memory span log of one run.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Trace {
    fn default() -> Self {
        Self::new()
    }
}

impl Trace {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// The clock every span is relative to.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Records one call that started at `start` and took `dur`.
    pub fn push(
        &mut self,
        id: usize,
        rung: &'static str,
        client: usize,
        start: Instant,
        dur: Duration,
    ) {
        self.spans.push(Span {
            id,
            rung,
            client,
            start_ns: nanos(start.saturating_duration_since(self.epoch)),
            dur_ns: nanos(dur),
        });
    }

    /// Appends spans recorded elsewhere against the same epoch.
    pub fn extend(&mut self, spans: impl IntoIterator<Item = Span>) {
        self.spans.extend(spans);
    }

    /// Every span recorded.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A rung's cost per request: the median duration of each request id,
    /// averaged over ids (every pooled request weighs the same, as in the
    /// workload's request mix). `None` when the rung recorded nothing.
    pub fn per_request_ns(&self, rung: &str) -> Option<f64> {
        let mut by_id: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.rung == rung) {
            by_id.entry(s.id).or_default().push(s.dur_ns as f64);
        }
        if by_id.is_empty() {
            return None;
        }
        let total: f64 = by_id.values().map(|d| crate::stats::median(d)).sum();
        Some(total / by_id.len() as f64)
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\": {}, \"rung\": \"{}\", \"client\": {}, \"start_ns\": {}, \"dur_ns\": {}}}",
                s.id, s.rung, s.client, s.start_ns, s.dur_ns
            )?;
        }
        out.flush()
    }
}

/// A duration in whole nanoseconds (saturating).
pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

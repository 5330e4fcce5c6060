//! The end-to-end rung: an in-process `smm-server` driven over loopback
//! TCP by closed-loop `smm_server::Client`s, every reply checked against
//! the dense reference.

use crate::trace::{nanos, Span};
use crate::workload::{Request, Workload};
use crate::Result;
use smm_server::{BackendKind, Client, ServeError, ServerConfig, ServerHandle, StatsSnapshot};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// A started server with the workload's matrices loaded.
pub struct Server {
    handle: ServerHandle,
    /// The connection that loaded the matrices; kept open for `Stats`.
    client: Client,
    /// Digest of each tenant, in tenant order.
    pub digests: Vec<u64>,
    /// The engine the server planned for each tenant.
    pub engines: Vec<String>,
    /// Server start until the last `LoadMatrix` reply.
    pub setup: Duration,
    store_dir: Option<PathBuf>,
}

impl Server {
    /// The server configuration every workload runs against: defaults,
    /// except auto planning and, when given, a store directory.
    pub fn config(store_dir: Option<&PathBuf>) -> ServerConfig {
        ServerConfig {
            backend: BackendKind::Auto,
            store_dir: store_dir.map(|d| d.display().to_string()),
            ..ServerConfig::default()
        }
    }

    /// Starts a server and loads every tenant. `store_dir` must not exist
    /// yet; it is removed again by [`Server::stop`].
    pub fn start(w: &Workload, store_dir: Option<PathBuf>) -> Result<Server> {
        if let Some(dir) = &store_dir {
            std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        }
        let started = Instant::now();
        let handle =
            smm_server::start(Self::config(store_dir.as_ref())).map_err(|e| e.to_string())?;
        let mut client = Client::connect(handle.local_addr()).map_err(|e| e.to_string())?;
        let mut digests = Vec::with_capacity(w.tenants.len());
        let mut engines = Vec::with_capacity(w.tenants.len());
        for t in &w.tenants {
            let info = client
                .load_matrix_with(&t.matrix, Some(t.backend))
                .map_err(|e| format!("loading a {} tenant: {e}", w.name))?;
            digests.push(info.digest);
            engines.push(info.engine);
        }
        Ok(Server {
            setup: started.elapsed(),
            handle,
            client,
            digests,
            engines,
            store_dir,
        })
    }

    /// Where clients connect.
    pub fn addr(&self) -> SocketAddr {
        self.handle.local_addr()
    }

    /// A `Stats` snapshot over the wire.
    pub fn stats(&mut self) -> Result<StatsSnapshot> {
        self.client.stats().map_err(|e| e.to_string())
    }

    /// Disconnects, shuts the server down (joining every thread it
    /// started) and removes its store directory.
    pub fn stop(self) -> Result<()> {
        drop(self.client);
        self.handle.shutdown();
        if let Some(dir) = self.store_dir {
            std::fs::remove_dir_all(&dir)
                .map_err(|e| format!("removing {}: {e}", dir.display()))?;
        }
        Ok(())
    }
}

/// What one closed-loop phase observed.
#[derive(Debug, Default)]
pub struct Phase {
    /// Round trip of every untraced request sent, in nanoseconds. A
    /// failed request misses every latency limit, so it enters as
    /// `u64::MAX`.
    pub rtts_ns: Vec<u64>,
    /// The same for traced requests, span recording included.
    pub traced_rtts_ns: Vec<u64>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests answered with an error, refused (`Busy`, capacity) or
    /// lost to the transport.
    pub failed: u64,
    /// Replies that differ from the dense reference.
    pub mismatches: u64,
    /// Vectors in replies equal to the reference.
    pub verified_vectors: u64,
    /// Phase start until the last client stopped.
    pub elapsed: Duration,
    /// One span per traced request.
    pub spans: Vec<Span>,
    /// The first failure seen, for the report.
    pub first_error: Option<String>,
}

impl Phase {
    /// Verified vectors per second.
    pub fn throughput(&self) -> f64 {
        self.verified_vectors as f64 / self.elapsed.as_secs_f64()
    }

    fn merge(&mut self, other: Phase) {
        self.rtts_ns.extend(other.rtts_ns);
        self.traced_rtts_ns.extend(other.traced_rtts_ns);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatches += other.mismatches;
        self.verified_vectors += other.verified_vectors;
        self.spans.extend(other.spans);
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
    }
}

/// One closed-loop phase to run.
#[derive(Debug, Clone, Copy)]
pub struct PhaseSpec {
    /// How long the phase lasts.
    pub duration: Duration,
    /// Record a `tcp` span against this epoch for every other request,
    /// so traced and untraced round trips interleave in one phase.
    pub trace: Option<Instant>,
}

/// Runs every client of `w` closed-loop through `phases` in turn: each
/// client sends its next request only after the previous reply arrived
/// and was checked. A client keeps one connection (and so the server
/// one connection thread) for all phases, and all clients start each
/// phase together. `cursors` holds each client's position in its
/// request order and carries over between calls.
pub fn closed_loop(
    addr: SocketAddr,
    w: &Workload,
    digests: &[u64],
    cursors: &mut [usize],
    phases: &[PhaseSpec],
) -> Result<Vec<Phase>> {
    let start_line = Barrier::new(cursors.len());
    // Per client: each phase's (start, end, observations).
    type Timed = Vec<(Instant, Instant, Phase)>;
    let per_client: Vec<Result<Timed>> = std::thread::scope(|scope| {
        let workers: Vec<_> = cursors
            .iter_mut()
            .enumerate()
            .map(|(c, cursor)| {
                let order = &w.orders[c];
                let start_line = &start_line;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).map_err(|e| e.to_string());
                    let mut out = Vec::with_capacity(phases.len());
                    let mut error = None;
                    for spec in phases {
                        // Every client reaches every start line, even after
                        // an error, so the others are never left waiting.
                        start_line.wait();
                        let started = Instant::now();
                        let phase = match (&mut client, &error) {
                            (Ok(client), None) => {
                                let deadline = started + spec.duration;
                                client_loop(
                                    client, addr, w, digests, order, cursor, c, deadline,
                                    spec.trace,
                                )
                                .unwrap_or_else(|e| {
                                    error = Some(e);
                                    Phase::default()
                                })
                            }
                            _ => Phase::default(),
                        };
                        out.push((started, Instant::now(), phase));
                    }
                    match (client, error) {
                        (Err(e), _) | (_, Some(e)) => Err(e),
                        _ => Ok(out),
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("a client thread panicked".into()))
            })
            .collect()
    });
    let mut merged: Vec<(Option<Instant>, Option<Instant>, Phase)> = phases
        .iter()
        .map(|_| (None, None, Phase::default()))
        .collect();
    for client in per_client {
        for ((start, end, phase), (started, ended, observed)) in merged.iter_mut().zip(client?) {
            *start = Some(start.map_or(started, |s| s.min(started)));
            *end = Some(end.map_or(ended, |e| e.max(ended)));
            phase.merge(observed);
        }
    }
    Ok(merged
        .into_iter()
        .map(|(start, end, mut phase)| {
            if let (Some(start), Some(end)) = (start, end) {
                phase.elapsed = end - start;
            }
            phase
        })
        .collect())
}

#[allow(clippy::too_many_arguments)]
fn client_loop(
    client: &mut Client,
    addr: SocketAddr,
    w: &Workload,
    digests: &[u64],
    order: &[usize],
    cursor: &mut usize,
    client_id: usize,
    deadline: Instant,
    trace: Option<Instant>,
) -> Result<Phase> {
    let mut phase = Phase::default();
    while Instant::now() < deadline {
        let (pass, at) = (*cursor / order.len(), *cursor % order.len());
        let id = order[at];
        *cursor += 1;
        // Every other request is traced, and each pooled request is
        // traced on every other pass over the order, whatever its length.
        let traced = trace.filter(|_| (pass + at) % 2 == 1);
        let request = &w.pool[id];
        let digest = digests[request.tenant];
        let sent = Instant::now();
        let reply = if request.single {
            client
                .gemv(digest, request.frames.frame(0))
                .map(|out| verify(&out, request))
        } else {
            client
                .gemv_block(digest, &request.frames)
                .map(|out| out.rows() == request.frames.frames() && verify(out.as_slice(), request))
        };
        let mut rtt = sent.elapsed();
        if let Some(epoch) = traced {
            phase.spans.push(Span {
                id,
                rung: "tcp",
                client: client_id,
                start_ns: nanos(sent.saturating_duration_since(epoch)),
                dur_ns: nanos(rtt),
            });
            // The traced round trip includes recording its span.
            rtt = sent.elapsed();
        }
        let rtts = match traced {
            Some(_) => &mut phase.traced_rtts_ns,
            None => &mut phase.rtts_ns,
        };
        phase.attempted += 1;
        match reply {
            Ok(correct) => {
                rtts.push(nanos(rtt));
                if correct {
                    phase.verified_vectors += request.frames.frames() as u64;
                } else {
                    phase.mismatches += 1;
                }
            }
            Err(e) => {
                rtts.push(u64::MAX);
                phase.failed += 1;
                phase.first_error.get_or_insert_with(|| e.to_string());
                // A dead connection is replaced once; refusals are not
                // retried, the loop simply moves on to the next request.
                if matches!(e, ServeError::Transport(_)) {
                    *client = Client::connect(addr).map_err(|e| e.to_string())?;
                }
            }
        }
    }
    Ok(phase)
}

/// Whether `out` equals the request's dense-reference output exactly.
pub fn verify(out: &[i64], request: &Request) -> bool {
    out == request.expected.as_slice()
}

//! The environment block every result carries: the machine, the build,
//! and the run's own settings.

use crate::json::{number, object, quote};
use std::process::Command;

/// Where and how a result was produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Env {
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Cores the process may run on.
    pub nproc: usize,
    /// Which ones: `Cpus_allowed_list` from `/proc/self/status`.
    pub cpus: String,
    /// The compiler that built the benchmark.
    pub rustc: String,
    /// Cargo profile of the build.
    pub profile: String,
    /// Effective `RUSTFLAGS` of the build.
    pub rustflags: String,
    /// The `-C target-cpu` in those flags, else `default`.
    pub target_cpu: String,
    /// `git rev-parse HEAD` of the working directory, else `unknown`.
    pub git_rev: String,
    /// The workload seed.
    pub seed: u64,
    /// The server's `threads` setting (0 = one per core).
    pub server_threads: usize,
    /// Closed-loop clients.
    pub clients: usize,
}

impl Env {
    /// Probes the machine and build for a run with these settings.
    pub fn probe(seed: u64, server_threads: usize, clients: usize) -> Env {
        let rustflags = env!("PERFBENCH_RUSTFLAGS").trim().to_string();
        Env {
            cpu_model: cpu_model().unwrap_or_else(|| "unknown".into()),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpus: cpus_allowed_list().unwrap_or_else(|| "unknown".into()),
            rustc: env!("PERFBENCH_RUSTC_VERSION").to_string(),
            profile: env!("PERFBENCH_PROFILE").to_string(),
            target_cpu: target_cpu(&rustflags).unwrap_or_else(|| "default".into()),
            rustflags,
            git_rev: git_rev().unwrap_or_else(|| "unknown".into()),
            seed,
            server_threads,
            clients,
        }
    }

    /// The block as a JSON object.
    pub fn to_json(&self) -> String {
        object([
            ("cpu_model", quote(&self.cpu_model)),
            ("nproc", number(self.nproc as f64)),
            ("cpus", quote(&self.cpus)),
            ("rustc", quote(&self.rustc)),
            ("profile", quote(&self.profile)),
            ("rustflags", quote(&self.rustflags)),
            ("target_cpu", quote(&self.target_cpu)),
            ("git_rev", quote(&self.git_rev)),
            ("seed", number(self.seed as f64)),
            ("server_threads", number(self.server_threads as f64)),
            ("clients", number(self.clients as f64)),
        ])
    }
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

fn cpus_allowed_list() -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .map(|v| v.trim().to_string())
}

/// The CPUs this process may run on, in ascending order.
pub fn allowed_cpus() -> Option<Vec<usize>> {
    parse_cpu_list(&cpus_allowed_list()?)
}

/// Parses a kernel CPU list such as `0-3,6,8-9`.
fn parse_cpu_list(list: &str) -> Option<Vec<usize>> {
    let mut cpus = Vec::new();
    for part in list.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        let (lo, hi) = (lo.parse::<usize>().ok()?, hi.parse::<usize>().ok()?);
        cpus.extend(lo..=hi);
    }
    cpus.sort_unstable();
    cpus.dedup();
    Some(cpus)
}

fn target_cpu(rustflags: &str) -> Option<String> {
    let flags: Vec<&str> = rustflags.split_whitespace().collect();
    flags.iter().enumerate().find_map(|(i, f)| {
        let f = match *f {
            "-C" => *flags.get(i + 1)?,
            f => f.strip_prefix("-C")?,
        };
        f.strip_prefix("target-cpu=").map(str::to_string)
    })
}

fn git_rev() -> Option<String> {
    let out = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_target_cpu_in_either_spelling() {
        assert_eq!(
            target_cpu("-C target-cpu=native").as_deref(),
            Some("native")
        );
        assert_eq!(
            target_cpu("-Ctarget-cpu=skylake -Copt-level=3").as_deref(),
            Some("skylake")
        );
        assert_eq!(target_cpu("-C opt-level=3"), None);
    }

    #[test]
    fn parses_kernel_cpu_lists() {
        assert_eq!(parse_cpu_list("0"), Some(vec![0]));
        assert_eq!(parse_cpu_list("0-1"), Some(vec![0, 1]));
        assert_eq!(parse_cpu_list("0-2,5,7-8\n"), Some(vec![0, 1, 2, 5, 7, 8]));
        assert_eq!(parse_cpu_list("x"), None);
    }
}

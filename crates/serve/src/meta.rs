//! Shared provenance metadata for BENCH_* artifacts.
//!
//! `bench-parallel` and `loadgen` each grew their own ad-hoc header
//! fields, which made the nightly artifacts undiffable across PRs. A
//! [`BenchMeta`] block is the common schema both emit: where the run
//! happened (host, hardware threads), what ran (tool, worker threads,
//! seed) and which code produced it (commit, read straight from
//! `.git/HEAD` — no subprocess, so it works in sandboxed CI and is a
//! clean "unknown" outside a checkout).

use serde::{Deserialize, Serialize};
use std::path::Path;

/// Version of the `bench_meta` block itself, bumped on field changes.
pub const BENCH_META_VERSION: u64 = 1;

/// Provenance of one benchmark artifact.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BenchMeta {
    /// [`BENCH_META_VERSION`].
    pub meta_version: u64,
    /// Emitting tool (`np-bench`, `loadgen`).
    pub tool: String,
    /// Host name: the kernel's, else env `HOSTNAME`/`HOST`, else
    /// `unknown`.
    pub host: String,
    /// Hardware threads available on the host.
    pub host_threads: u64,
    /// Worker threads the benchmark ran with.
    pub threads: u64,
    /// Seed of the benchmark workload.
    pub seed: u64,
    /// Short commit hash of the producing tree, `unknown` outside git.
    pub commit: String,
}

impl BenchMeta {
    /// Collects metadata for a run of `tool` with `threads` workers.
    pub fn collect(tool: &str, threads: usize, seed: u64) -> BenchMeta {
        BenchMeta {
            meta_version: BENCH_META_VERSION,
            tool: tool.to_string(),
            host: host_name(Path::new(KERNEL_HOSTNAME), |key| std::env::var(key).ok()),
            host_threads: std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
            threads: threads as u64,
            seed,
            commit: read_commit(Path::new(".git")),
        }
    }
}

/// Where Linux publishes the host name.
const KERNEL_HOSTNAME: &str = "/proc/sys/kernel/hostname";

/// The host name: the first non-empty of the kernel's (read from
/// `kernel`), `$HOSTNAME` and `$HOST`, else `unknown`. Shells set
/// `HOSTNAME` without exporting it, so the environment alone usually
/// misses it.
fn host_name(kernel: &Path, env: impl Fn(&str) -> Option<String>) -> String {
    std::fs::read_to_string(kernel)
        .ok()
        .into_iter()
        .chain(["HOSTNAME", "HOST"].into_iter().filter_map(env))
        .map(|name| name.trim().to_string())
        .find(|name| !name.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Resolves the checked-out commit from a `.git` directory without
/// spawning a process: `HEAD` either holds the hash directly (detached)
/// or a `ref: <path>` pointer to a file holding it. Anything unreadable
/// degrades to `unknown`.
fn read_commit(git_dir: &Path) -> String {
    let head = match std::fs::read_to_string(git_dir.join("HEAD")) {
        Ok(head) => head,
        Err(_) => return "unknown".to_string(),
    };
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        Some(reference) => match std::fs::read_to_string(git_dir.join(reference.trim())) {
            Ok(hash) => hash.trim().to_string(),
            // Packed refs: a ref file may not exist; fall back to
            // scanning .git/packed-refs for the line ending in the ref.
            Err(_) => match std::fs::read_to_string(git_dir.join("packed-refs")) {
                Ok(packed) => packed
                    .lines()
                    .find(|l| l.ends_with(reference.trim()))
                    .and_then(|l| l.split_whitespace().next())
                    .unwrap_or("unknown")
                    .to_string(),
                Err(_) => return "unknown".to_string(),
            },
        },
        None => head.to_string(),
    };
    if hash.len() >= 12 && hash.bytes().all(|b| b.is_ascii_hexdigit()) {
        hash[..12].to_string()
    } else {
        "unknown".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collect_fills_every_field() {
        let meta = BenchMeta::collect("loadgen", 8, 0x10ad);
        assert_eq!(meta.meta_version, BENCH_META_VERSION);
        assert_eq!(meta.tool, "loadgen");
        assert_eq!(meta.threads, 8);
        assert_eq!(meta.seed, 0x10ad);
        assert!(!meta.host.is_empty());
        assert!(!meta.commit.is_empty());
        let json = serde_json::to_string(&meta).unwrap();
        let back: BenchMeta = serde_json::from_str(&json).unwrap();
        assert_eq!(meta, back);
    }

    #[test]
    fn commit_resolution_handles_all_head_shapes() {
        let dir = std::env::temp_dir().join(format!("np-meta-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("refs/heads")).unwrap();
        // Missing HEAD.
        assert_eq!(read_commit(&dir), "unknown");
        // Detached head: the hash sits in HEAD directly.
        std::fs::write(
            dir.join("HEAD"),
            "0123456789abcdef0123456789abcdef01234567\n",
        )
        .unwrap();
        assert_eq!(read_commit(&dir), "0123456789ab");
        // Symbolic ref to a loose ref file.
        std::fs::write(dir.join("HEAD"), "ref: refs/heads/main\n").unwrap();
        std::fs::write(
            dir.join("refs/heads/main"),
            "fedcba9876543210fedcba9876543210fedcba98\n",
        )
        .unwrap();
        assert_eq!(read_commit(&dir), "fedcba987654");
        // Symbolic ref resolved through packed-refs.
        std::fs::remove_file(dir.join("refs/heads/main")).unwrap();
        std::fs::write(
            dir.join("packed-refs"),
            "# pack-refs with: peeled\nabcdefabcdefabcdefabcdefabcdefabcdefabcd refs/heads/main\n",
        )
        .unwrap();
        assert_eq!(read_commit(&dir), "abcdefabcdef");
        // Garbage hash degrades instead of leaking.
        std::fs::write(dir.join("HEAD"), "not a hash\n").unwrap();
        assert_eq!(read_commit(&dir), "unknown");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn host_name_prefers_the_kernel_then_the_environment() {
        let dir = std::env::temp_dir().join(format!("np-meta-host-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let kernel = dir.join("hostname");
        let env = |key: &str| (key == "HOST").then(|| "from-env".to_string());
        let no_env = |_: &str| None;
        // The kernel's name wins, trimmed of its newline.
        std::fs::write(&kernel, "vm\n").unwrap();
        assert_eq!(host_name(&kernel, env), "vm");
        // An empty or missing kernel file falls through to the environment.
        std::fs::write(&kernel, "\n").unwrap();
        assert_eq!(host_name(&kernel, env), "from-env");
        std::fs::remove_file(&kernel).unwrap();
        assert_eq!(host_name(&kernel, env), "from-env");
        assert_eq!(host_name(&kernel, no_env), "unknown");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

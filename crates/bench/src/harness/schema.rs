//! The versioned `np-bench/1` report schema.
//!
//! One schema for every benchmark artifact the suite emits: the matrix
//! harness and `loadgen` both write this shape, and `np bench diff` /
//! `trend` read it back. Fields split
//! into three trust classes:
//!
//! * **provenance** — `bench_meta` (host, threads, seed, commit) plus the
//!   matrix parameters; informational.
//! * **deterministic** — `digest`, `audit_ok`, cell identity: a pure
//!   function of (config, seed, machine); the diff gate hard-fails on
//!   any change.
//! * **measured** — `samples_ns` and the derived mean/stddev: wall time,
//!   judged only statistically (Welch + noise band), never bit-compared.

use np_serve::BenchMeta;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Schema tag of [`BenchReport`]; bumped on breaking shape changes.
pub const BENCH_SCHEMA: &str = "np-bench/1";

/// One benchmark run: a matrix of cells plus provenance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchReport {
    /// [`BENCH_SCHEMA`].
    pub schema: String,
    /// Shared provenance block (host, threads, seed, commit).
    pub bench_meta: BenchMeta,
    /// Machine preset the cells ran on.
    pub machine: String,
    /// Unrecorded warmup runs per cell.
    pub warmup: u64,
    /// Recorded samples per cell.
    pub repeats: u64,
    /// The measured cells, in matrix order.
    pub cells: Vec<BenchCell>,
}

/// One cell of the matrix: a (workload, threads, params) point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchCell {
    /// Stable identity, `<workload>/t<threads>[/s<size>]` — the diff key.
    pub id: String,
    /// Driver name (`campaign`, `memhist-ladder`, ... `loadgen`).
    pub workload: String,
    /// Worker threads this cell ran with.
    pub threads: u64,
    /// Size parameter (0 = driver default).
    pub size: u64,
    /// Wall time of each recorded sample, warmup excluded.
    pub samples_ns: Vec<u64>,
    /// Mean of `samples_ns`.
    pub mean_ns: f64,
    /// Bessel-corrected standard deviation of `samples_ns`.
    pub stddev_ns: f64,
    /// FNV-1a digest of the cell's deterministic result value.
    pub digest: String,
    /// The cell's own invariant audit (bit-equality vs sequential,
    /// loadgen smoke invariants) held for every sample.
    pub audit_ok: bool,
    /// Named scalar metrics (modeled speedup, frames/s, ...). Keys
    /// prefixed `det_` are deterministic and diff-compared exactly.
    pub metrics: BTreeMap<String, f64>,
}

impl BenchCell {
    /// Fills `mean_ns` / `stddev_ns` from `samples_ns`.
    pub fn finalize(&mut self) {
        let xs: Vec<f64> = self.samples_ns.iter().map(|&n| n as f64).collect();
        self.mean_ns = if xs.is_empty() {
            0.0
        } else {
            np_stats::mean(&xs)
        };
        self.stddev_ns = if xs.len() < 2 {
            0.0
        } else {
            np_stats::sample_std(&xs)
        };
    }

    /// The samples as `f64`, the shape the t-test wants.
    pub fn samples_f64(&self) -> Vec<f64> {
        self.samples_ns.iter().map(|&n| n as f64).collect()
    }
}

impl BenchReport {
    /// Serializes to pretty JSON (trailing newline included).
    pub fn to_json_pretty(&self) -> Result<String, String> {
        serde_json::to_string_pretty(self)
            .map(|j| j + "\n")
            .map_err(|e| format!("np-bench: serialize report: {e}"))
    }

    /// Serializes to one compact line (the trend-history format).
    pub fn to_json_line(&self) -> Result<String, String> {
        serde_json::to_string(self).map_err(|e| format!("np-bench: serialize report: {e}"))
    }

    /// Parses a report, enforcing the schema tag.
    pub fn from_json(json: &str) -> Result<BenchReport, String> {
        let report: BenchReport =
            serde_json::from_str(json).map_err(|e| format!("np-bench: parse report: {e}"))?;
        if report.schema != BENCH_SCHEMA {
            return Err(format!(
                "np-bench: schema '{}' (this build reads '{BENCH_SCHEMA}')",
                report.schema
            ));
        }
        Ok(report)
    }

    /// A digest of everything that must be identical across runs of the
    /// same config: cell identity, sample counts, deterministic digests,
    /// audits and `det_` metrics — never wall times or provenance.
    pub fn structure_digest(&self) -> String {
        let mut s = format!(
            "{}|{}|w{}|r{}",
            self.schema, self.machine, self.warmup, self.repeats
        );
        for c in &self.cells {
            s.push_str(&format!(
                ";{}|{}|t{}|s{}|n{}|{}|{}",
                c.id,
                c.workload,
                c.threads,
                c.size,
                c.samples_ns.len(),
                c.digest,
                c.audit_ok
            ));
            for (k, v) in &c.metrics {
                if k.starts_with("det_") {
                    s.push_str(&format!("|{k}={v}"));
                } else {
                    s.push_str(&format!("|{k}"));
                }
            }
        }
        digest_str(&s)
    }

    /// True when every cell's audit held.
    pub fn audit_ok(&self) -> bool {
        self.cells.iter().all(|c| c.audit_ok)
    }
}

/// Hex FNV-1a digest of a deterministic result string.
pub fn digest_str(s: &str) -> String {
    format!("{:016x}", np_serve::proto::fnv1a64(s.as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> BenchReport {
        let mut cell = BenchCell {
            id: "phasen-scan/t2".to_string(),
            workload: "phasen-scan".to_string(),
            threads: 2,
            size: 0,
            samples_ns: vec![1_000_000, 1_100_000, 900_000],
            mean_ns: 0.0,
            stddev_ns: 0.0,
            digest: digest_str("result"),
            audit_ok: true,
            metrics: BTreeMap::from([
                ("det_items".to_string(), 160.0),
                ("modeled_speedup".to_string(), 1.9),
            ]),
        };
        cell.finalize();
        BenchReport {
            schema: BENCH_SCHEMA.to_string(),
            bench_meta: BenchMeta::collect("np-bench", 2, 1),
            machine: "two-socket".to_string(),
            warmup: 1,
            repeats: 3,
            cells: vec![cell],
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = sample_report();
        let json = report.to_json_pretty().unwrap();
        let back = BenchReport::from_json(&json).unwrap();
        assert_eq!(report, back);
        // The compact line round-trips too.
        let line = report.to_json_line().unwrap();
        assert!(!line.contains('\n'));
        assert_eq!(BenchReport::from_json(&line).unwrap(), report);
    }

    #[test]
    fn wrong_schema_is_rejected_naming_both_schemas() {
        let mut report = sample_report();
        report.schema = "bench-parallel/2".to_string();
        let json = report.to_json_pretty().unwrap();
        let err = BenchReport::from_json(&json).unwrap_err();
        assert!(err.contains("bench-parallel/2"), "{err}");
        assert!(err.contains(BENCH_SCHEMA), "{err}");
    }

    #[test]
    fn structure_digest_ignores_wall_time_but_not_results() {
        let a = sample_report();
        let mut b = a.clone();
        b.samples_ns_mut(0, vec![5_000_000, 9_000_000, 7_000_000]);
        assert_eq!(
            a.structure_digest(),
            b.structure_digest(),
            "wall times must not affect structure"
        );
        let mut c = a.clone();
        c.cells[0].digest = digest_str("different result");
        assert_ne!(a.structure_digest(), c.structure_digest());
        let mut d = a.clone();
        d.cells[0].metrics.insert("det_items".to_string(), 161.0);
        assert_ne!(a.structure_digest(), d.structure_digest());
        let mut e = a.clone();
        e.cells[0]
            .metrics
            .insert("modeled_speedup".to_string(), 4.0);
        assert_eq!(
            a.structure_digest(),
            e.structure_digest(),
            "non-det metrics compare by key only"
        );
    }

    #[test]
    fn finalize_computes_mean_and_stddev() {
        let mut cell = sample_report().cells.remove(0);
        cell.samples_ns = vec![100, 200];
        cell.finalize();
        assert_eq!(cell.mean_ns, 150.0);
        assert!((cell.stddev_ns - (5000.0f64).sqrt()).abs() < 1e-9);
        cell.samples_ns = vec![100];
        cell.finalize();
        assert_eq!(cell.stddev_ns, 0.0);
    }

    #[test]
    fn fnv_digest_is_stable() {
        assert_eq!(digest_str(""), format!("{:016x}", 0xcbf29ce484222325u64));
        assert_eq!(digest_str("a"), digest_str("a"));
        assert_ne!(digest_str("a"), digest_str("b"));
    }

    impl BenchReport {
        fn samples_ns_mut(&mut self, i: usize, samples: Vec<u64>) {
            self.cells[i].samples_ns = samples;
            self.cells[i].finalize();
        }
    }
}

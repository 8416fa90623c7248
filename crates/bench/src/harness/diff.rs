//! The regression gate: judge a current `np-bench/1` run against a
//! committed baseline, cell by cell.
//!
//! Two classes of failure, matching the schema's trust classes:
//!
//! * **deterministic** — a cell vanished, its result digest changed, or
//!   its audit failed: hard failure regardless of timing, because these
//!   fields are pure functions of (config, seed, machine).
//! * **measured** — wall time moved. A cell regresses only when the mean
//!   moved outside the noise band AND Welch's t-test calls the shift
//!   significant at `alpha` ([`np_stats::RegressionGate`]). Baselines
//!   with fewer than two samples (one-shot `np loadgen` artifacts) fall
//!   back to the band alone.

use super::schema::BenchReport;
use np_stats::RegressionGate;

/// Per-cell judgement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Inside the noise band (or not statistically significant).
    Ok,
    /// Significantly faster than baseline.
    Improved,
    /// Significantly slower than baseline.
    Regressed,
    /// Deterministic result digest differs — results changed, not speed.
    DigestChanged,
    /// The cell's own invariant audit failed in the current run.
    AuditFailed,
    /// Cell present in the baseline but missing from the current run.
    Missing,
    /// Cell only in the current run (new coverage, never a failure).
    New,
}

impl Verdict {
    /// True for the verdicts the gate fails on.
    pub fn is_failure(self) -> bool {
        matches!(
            self,
            Verdict::Regressed | Verdict::DigestChanged | Verdict::AuditFailed | Verdict::Missing
        )
    }

    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Improved => "improved",
            Verdict::Regressed => "REGRESSED",
            Verdict::DigestChanged => "DIGEST-CHANGED",
            Verdict::AuditFailed => "AUDIT-FAILED",
            Verdict::Missing => "MISSING",
            Verdict::New => "new",
        }
    }
}

/// One cell's comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct CellDiff {
    pub id: String,
    pub base_mean_ns: f64,
    pub cur_mean_ns: f64,
    /// `(cur - base) / base`; 0 when undefined.
    pub relative_change: f64,
    /// Welch two-sided p-value, when both sides have >= 2 samples.
    pub p_two_sided: Option<f64>,
    pub verdict: Verdict,
    /// Extra context for non-timing verdicts (digests, audit note).
    pub detail: String,
}

/// The full comparison of two runs.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    pub baseline_commit: String,
    pub current_commit: String,
    pub noise_pct: f64,
    pub alpha: f64,
    pub cells: Vec<CellDiff>,
}

impl DiffReport {
    /// The failing cells, in baseline order.
    pub fn failures(&self) -> Vec<&CellDiff> {
        self.cells
            .iter()
            .filter(|c| c.verdict.is_failure())
            .collect()
    }
}

/// Compares `current` against `baseline`. `noise_pct` is the band in
/// percent (15.0 means ±15 %); `alpha` the Welch significance level.
pub fn diff_reports(
    baseline: &BenchReport,
    current: &BenchReport,
    noise_pct: f64,
    alpha: f64,
) -> DiffReport {
    let gate = RegressionGate {
        noise_frac: noise_pct / 100.0,
        alpha,
    };
    let mut cells = Vec::new();
    for base in &baseline.cells {
        let Some(cur) = current.cells.iter().find(|c| c.id == base.id) else {
            cells.push(CellDiff {
                id: base.id.clone(),
                base_mean_ns: base.mean_ns,
                cur_mean_ns: 0.0,
                relative_change: 0.0,
                p_two_sided: None,
                verdict: Verdict::Missing,
                detail: "cell absent from current run".to_string(),
            });
            continue;
        };
        let outcome = gate.judge(&base.samples_f64(), &cur.samples_f64());
        let (verdict, detail) = if !cur.audit_ok {
            (
                Verdict::AuditFailed,
                "invariant audit failed in current run".to_string(),
            )
        } else if cur.digest != base.digest {
            (
                Verdict::DigestChanged,
                format!("digest {} -> {}", base.digest, cur.digest),
            )
        } else if let Some(metric) = det_metric_drift(base, cur) {
            (Verdict::DigestChanged, metric)
        } else if outcome.regressed {
            (Verdict::Regressed, String::new())
        } else if outcome.improved {
            (Verdict::Improved, String::new())
        } else {
            (Verdict::Ok, String::new())
        };
        cells.push(CellDiff {
            id: base.id.clone(),
            base_mean_ns: base.mean_ns,
            cur_mean_ns: cur.mean_ns,
            relative_change: outcome.relative_change,
            p_two_sided: outcome.p_two_sided,
            verdict,
            detail,
        });
    }
    for cur in &current.cells {
        if !baseline.cells.iter().any(|b| b.id == cur.id) {
            cells.push(CellDiff {
                id: cur.id.clone(),
                base_mean_ns: 0.0,
                cur_mean_ns: cur.mean_ns,
                relative_change: 0.0,
                p_two_sided: None,
                verdict: Verdict::New,
                detail: "not in baseline".to_string(),
            });
        }
    }
    DiffReport {
        baseline_commit: baseline.bench_meta.commit.clone(),
        current_commit: current.bench_meta.commit.clone(),
        noise_pct,
        alpha,
        cells,
    }
}

/// First `det_`-prefixed metric whose value drifted, rendered for the
/// detail column. Deterministic metrics compare exactly, like digests.
fn det_metric_drift(
    base: &super::schema::BenchCell,
    cur: &super::schema::BenchCell,
) -> Option<String> {
    for (k, bv) in &base.metrics {
        if !k.starts_with("det_") {
            continue;
        }
        match cur.metrics.get(k) {
            Some(cv) if cv == bv => {}
            Some(cv) => return Some(format!("{k} {bv} -> {cv}")),
            None => return Some(format!("{k} missing from current run")),
        }
    }
    None
}

/// Turns a diff into the CLI exit contract: `Err` listing every failing
/// cell (the caller maps `Err` to exit code 2), `Ok` otherwise.
pub fn gate(diff: &DiffReport) -> Result<(), String> {
    let failures = diff.failures();
    if failures.is_empty() {
        return Ok(());
    }
    let mut msg = format!("np bench diff: {} cell(s) failed the gate:", failures.len());
    for f in failures {
        msg.push_str(&format!(
            "\n  {} [{}] base {:.3} ms -> current {:.3} ms ({:+.1} %{}){}",
            f.id,
            f.verdict.label(),
            f.base_mean_ns / 1e6,
            f.cur_mean_ns / 1e6,
            100.0 * f.relative_change,
            match f.p_two_sided {
                Some(p) => format!(", p={p:.4}"),
                None => String::new(),
            },
            if f.detail.is_empty() {
                String::new()
            } else {
                format!(" — {}", f.detail)
            }
        ));
    }
    Err(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::schema::{digest_str, BenchCell, BENCH_SCHEMA};
    use std::collections::BTreeMap;

    fn report(samples: &[u64]) -> BenchReport {
        let mut cell = BenchCell {
            id: "campaign/t2".to_string(),
            workload: "campaign".to_string(),
            threads: 2,
            size: 48,
            samples_ns: samples.to_vec(),
            mean_ns: 0.0,
            stddev_ns: 0.0,
            digest: digest_str("result"),
            audit_ok: true,
            metrics: BTreeMap::from([("det_items".to_string(), 48.0)]),
        };
        cell.finalize();
        BenchReport {
            schema: BENCH_SCHEMA.to_string(),
            bench_meta: np_serve::BenchMeta::collect("np-bench", 2, 1),
            machine: "two-socket".to_string(),
            warmup: 1,
            repeats: samples.len() as u64,
            cells: vec![cell],
        }
    }

    #[test]
    fn identical_reruns_pass_the_gate() {
        let base = report(&[1_000_000, 1_050_000, 980_000]);
        let diff = diff_reports(&base, &base.clone(), 15.0, 0.01);
        assert_eq!(diff.cells.len(), 1);
        assert_eq!(diff.cells[0].verdict, Verdict::Ok);
        assert!(gate(&diff).is_ok());
    }

    #[test]
    fn a_large_repeatable_slowdown_regresses() {
        let base = report(&[1_000_000, 1_050_000, 980_000]);
        let cur = report(&[4_000_000, 4_050_000, 3_980_000]);
        let diff = diff_reports(&base, &cur, 15.0, 0.01);
        assert_eq!(diff.cells[0].verdict, Verdict::Regressed);
        assert!(diff.cells[0].relative_change > 2.0);
        let err = gate(&diff).unwrap_err();
        assert!(err.contains("campaign/t2"), "{err}");
        assert!(err.contains("REGRESSED"), "{err}");
    }

    #[test]
    fn a_large_speedup_reports_improved_and_passes() {
        let base = report(&[4_000_000, 4_050_000, 3_980_000]);
        let cur = report(&[1_000_000, 1_050_000, 980_000]);
        let diff = diff_reports(&base, &cur, 15.0, 0.01);
        assert_eq!(diff.cells[0].verdict, Verdict::Improved);
        assert!(gate(&diff).is_ok());
    }

    #[test]
    fn digest_and_audit_changes_hard_fail_inside_the_band() {
        let base = report(&[1_000_000, 1_050_000, 980_000]);
        let mut cur = base.clone();
        cur.cells[0].digest = digest_str("other");
        let diff = diff_reports(&base, &cur, 15.0, 0.01);
        assert_eq!(diff.cells[0].verdict, Verdict::DigestChanged);
        assert!(gate(&diff).is_err());

        let mut cur = base.clone();
        cur.cells[0].audit_ok = false;
        let diff = diff_reports(&base, &cur, 15.0, 0.01);
        assert_eq!(diff.cells[0].verdict, Verdict::AuditFailed);
        assert!(gate(&diff).is_err());
    }

    #[test]
    fn det_metric_drift_hard_fails() {
        let base = report(&[1_000_000, 1_050_000, 980_000]);
        let mut cur = base.clone();
        cur.cells[0].metrics.insert("det_items".to_string(), 47.0);
        let diff = diff_reports(&base, &cur, 15.0, 0.01);
        assert_eq!(diff.cells[0].verdict, Verdict::DigestChanged);
        assert!(diff.cells[0].detail.contains("det_items"));
    }

    #[test]
    fn missing_cells_fail_and_new_cells_pass() {
        let base = report(&[1_000_000, 1_050_000, 980_000]);
        let mut cur = base.clone();
        cur.cells[0].id = "campaign/t4".to_string();
        let diff = diff_reports(&base, &cur, 15.0, 0.01);
        let verdicts: Vec<Verdict> = diff.cells.iter().map(|c| c.verdict).collect();
        assert!(verdicts.contains(&Verdict::Missing));
        assert!(verdicts.contains(&Verdict::New));
        let err = gate(&diff).unwrap_err();
        assert!(err.contains("MISSING"), "{err}");
        assert!(!err.contains("campaign/t4 [new]"));
    }

    #[test]
    fn single_sample_baselines_gate_on_the_band_alone() {
        let base = report(&[1_000_000]);
        let fast = report(&[1_050_000]);
        let diff = diff_reports(&base, &fast, 15.0, 0.01);
        assert_eq!(diff.cells[0].verdict, Verdict::Ok);
        let slow = report(&[2_000_000]);
        let diff = diff_reports(&base, &slow, 15.0, 0.01);
        assert_eq!(diff.cells[0].verdict, Verdict::Regressed);
        assert!(diff.cells[0].p_two_sided.is_none());
    }
}

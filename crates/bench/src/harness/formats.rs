//! The single rendering layer for `np-bench/1` artifacts: live table,
//! markdown and CSV come from the same report, so every surface agrees
//! on columns and rounding. Tools read the np-bench/1 JSON back
//! (`bench diff`, `bench trend`); the CSV is for spreadsheets.

use super::diff::{DiffReport, Verdict};
use super::schema::BenchReport;

/// The CSV column contract, also the header line.
pub const CSV_HEADER: &str = "id,workload,threads,size,samples,mean_ns,stddev_ns,digest,audit_ok";

/// The live table `np bench` prints after a run.
pub fn live_table(report: &BenchReport) -> String {
    let mut out = format!(
        "== np bench: {} on {} ({} warmup + {} samples/cell, seed {}, commit {}) ==\n",
        report.bench_meta.tool,
        report.machine,
        report.warmup,
        report.repeats,
        report.bench_meta.seed,
        report.bench_meta.commit
    );
    out.push_str(&format!(
        "{:<24} {:>7} {:>10} {:>10} {:>6}  {:<16} {}\n",
        "cell", "threads", "mean ms", "stddev", "cv%", "digest", "audit"
    ));
    for c in &report.cells {
        let cv = if c.mean_ns > 0.0 {
            100.0 * c.stddev_ns / c.mean_ns
        } else {
            0.0
        };
        out.push_str(&format!(
            "{:<24} {:>7} {:>10.3} {:>10.3} {:>6.1}  {:<16} {}\n",
            c.id,
            c.threads,
            c.mean_ns / 1e6,
            c.stddev_ns / 1e6,
            cv,
            c.digest,
            if c.audit_ok { "ok" } else { "FAILED" }
        ));
    }
    out
}

/// The markdown rendering (CI artifacts, PR comments).
pub fn markdown(report: &BenchReport) -> String {
    let mut out = format!(
        "### np bench — {} ({} warmup + {} samples/cell, seed {}, commit {})\n\n",
        report.machine,
        report.warmup,
        report.repeats,
        report.bench_meta.seed,
        report.bench_meta.commit
    );
    out.push_str("| cell | threads | mean (ms) | stddev (ms) | digest | audit |\n");
    out.push_str("|------|--------:|----------:|------------:|--------|-------|\n");
    for c in &report.cells {
        out.push_str(&format!(
            "| {} | {} | {:.3} | {:.3} | `{}` | {} |\n",
            c.id,
            c.threads,
            c.mean_ns / 1e6,
            c.stddev_ns / 1e6,
            c.digest,
            if c.audit_ok { "ok" } else { "**FAILED**" }
        ));
    }
    out
}

/// The CSV rendering, one row per cell in [`CSV_HEADER`]'s column order.
/// Floats print in Rust's shortest round-trip form.
pub fn csv(report: &BenchReport) -> String {
    let mut out = String::from(CSV_HEADER);
    out.push('\n');
    for c in &report.cells {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{}\n",
            c.id,
            c.workload,
            c.threads,
            c.size,
            c.samples_ns.len(),
            c.mean_ns,
            c.stddev_ns,
            c.digest,
            c.audit_ok
        ));
    }
    out
}

/// The diff table `np bench diff` prints.
pub fn diff_table(diff: &DiffReport) -> String {
    let mut out = format!(
        "== np bench diff: {} -> {} (noise band ±{:.0} %, alpha {}) ==\n",
        diff.baseline_commit, diff.current_commit, diff.noise_pct, diff.alpha
    );
    out.push_str(&format!(
        "{:<24} {:>12} {:>12} {:>8} {:>10}  {}\n",
        "cell", "base ms", "cur ms", "delta%", "p", "verdict"
    ));
    for c in &diff.cells {
        out.push_str(&format!(
            "{:<24} {:>12.3} {:>12.3} {:>+8.1} {:>10}  {}{}\n",
            c.id,
            c.base_mean_ns / 1e6,
            c.cur_mean_ns / 1e6,
            100.0 * c.relative_change,
            render_p(c.p_two_sided),
            c.verdict.label(),
            if c.detail.is_empty() {
                String::new()
            } else {
                format!(" ({})", c.detail)
            }
        ));
    }
    out
}

/// The markdown rendering of a diff (the CI artifact).
pub fn diff_markdown(diff: &DiffReport) -> String {
    let mut out = format!(
        "### np bench diff — {} -> {} (noise band ±{:.0} %, alpha {})\n\n",
        diff.baseline_commit, diff.current_commit, diff.noise_pct, diff.alpha
    );
    out.push_str("| cell | base (ms) | current (ms) | delta | p | verdict |\n");
    out.push_str("|------|----------:|-------------:|------:|--:|---------|\n");
    for c in &diff.cells {
        out.push_str(&format!(
            "| {} | {:.3} | {:.3} | {:+.1} % | {} | {} |\n",
            c.id,
            c.base_mean_ns / 1e6,
            c.cur_mean_ns / 1e6,
            100.0 * c.relative_change,
            render_p(c.p_two_sided),
            match c.verdict {
                Verdict::Regressed
                | Verdict::DigestChanged
                | Verdict::AuditFailed
                | Verdict::Missing => format!("**{}**", c.verdict.label()),
                _ => c.verdict.label().to_string(),
            }
        ));
    }
    out
}

fn render_p(p: Option<f64>) -> String {
    match p {
        Some(p) => format!("p={p:.4}"),
        None => "-".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::schema::{digest_str, BenchCell, BENCH_SCHEMA};
    use std::collections::BTreeMap;

    fn report() -> BenchReport {
        let mut cells = Vec::new();
        for (i, t) in [1u64, 2].iter().enumerate() {
            let mut c = BenchCell {
                id: format!("phasen-scan/t{t}"),
                workload: "phasen-scan".to_string(),
                threads: *t,
                size: 0,
                samples_ns: vec![1_000_000 + i as u64, 1_200_000, 900_000],
                mean_ns: 0.0,
                stddev_ns: 0.0,
                digest: digest_str("r"),
                audit_ok: true,
                metrics: BTreeMap::new(),
            };
            c.finalize();
            cells.push(c);
        }
        BenchReport {
            schema: BENCH_SCHEMA.to_string(),
            bench_meta: np_serve::BenchMeta::collect("np-bench", 2, 1),
            machine: "two-socket".to_string(),
            warmup: 1,
            repeats: 3,
            cells,
        }
    }

    #[test]
    fn csv_text_is_pinned() {
        assert_eq!(
            csv(&report()),
            "id,workload,threads,size,samples,mean_ns,stddev_ns,digest,audit_ok\n\
             phasen-scan/t1,phasen-scan,1,0,3,1033333.3333333334,152752.52316519467,af63ef4c86020cd5,true\n\
             phasen-scan/t2,phasen-scan,2,0,3,1033333.6666666666,152752.41405730168,af63ef4c86020cd5,true\n"
        );
    }

    #[test]
    fn table_and_markdown_render_every_cell() {
        let r = report();
        let table = live_table(&r);
        let md = markdown(&r);
        for c in &r.cells {
            assert!(table.contains(&c.id), "table misses {}", c.id);
            assert!(md.contains(&c.id), "markdown misses {}", c.id);
        }
        assert!(md.starts_with("### np bench"));
        assert!(table.contains("audit"));
        assert!(md.contains("| cell |"));
    }
}

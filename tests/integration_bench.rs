//! End-to-end contract of the `np bench` matrix harness: the
//! deterministic half of a report (cell identity, digests, audits,
//! `det_` metrics) must be byte-stable across harness thread counts and
//! across re-runs, the smoke cells' digests and audits must match the
//! committed `baselines/ci.json`, the diff gate must pass an identical
//! re-run and fail an injected regression, and every rendering of a
//! report must survive a round trip. Everything here drives the public `np_bench::harness`
//! API plus the real CLI entry point (`numa_perf_tools::cli::run`), the
//! same paths CI exercises.

use np_bench::harness::{
    diff_reports, formats, gate, run_matrix, BenchReport, MatrixConfig, Verdict, BENCH_SCHEMA,
};

/// Digest of the compact text of the 48-set `Sets` reply at seed 1: the
/// wire format the `json-roundtrip` cell pins, and the bytes the
/// `serve-frame` cell's server writes from its stored sets.
const JSON_ROUNDTRIP_DIGEST: &str = "54533be7308170df";

/// The committed baseline CI's `bench-regression` job diffs the smoke
/// matrix against.
const CI_BASELINE: &str = include_str!("../baselines/ci.json");

fn smoke_report(harness_threads: usize) -> BenchReport {
    run_matrix(&MatrixConfig::smoke(), harness_threads).expect("smoke matrix must run")
}

#[test]
fn structure_is_deterministic_across_harness_threads() {
    // The harness thread count is an execution detail: it schedules the
    // matrix cells, it must never leak into what the cells compute.
    let reference = smoke_report(1);
    assert_eq!(reference.schema, BENCH_SCHEMA);
    assert!(reference.audit_ok(), "smoke cells must audit clean");
    assert!(
        reference.cells.len() >= 6,
        "smoke matrix covers all drivers"
    );
    // The simulator load-path cell counts its work exactly: two
    // programs of `size` loads each.
    let sim_digest = |report: &BenchReport| {
        let cell = report
            .cells
            .iter()
            .find(|c| c.workload == "sim-throughput")
            .expect("smoke matrix has a sim-throughput cell");
        assert_eq!(cell.id, format!("sim-throughput/t1/s{}", cell.size));
        assert!(cell.audit_ok, "{} must audit clean", cell.id);
        assert_eq!(cell.metrics["det_accesses"], (2 * cell.size) as f64);
        cell.digest.clone()
    };
    let sim_reference = sim_digest(&reference);
    // The JSON cell encodes and decodes one frame, and the serve cell's
    // server writes that frame from its store; both digests are the
    // frame's text, the same at every harness width.
    let frame_digest = |report: &BenchReport, workload: &str| {
        let cell = report
            .cells
            .iter()
            .find(|c| c.workload == workload)
            .unwrap_or_else(|| panic!("smoke matrix has a {workload} cell"));
        assert_eq!(cell.id, format!("{workload}/t1"));
        assert!(cell.audit_ok, "{} must audit clean", cell.id);
        assert_eq!(cell.metrics["det_bytes"], 24_634.0);
        cell.digest.clone()
    };
    const FRAME_CELLS: [&str; 2] = ["json-roundtrip", "serve-frame"];
    for workload in FRAME_CELLS {
        assert_eq!(frame_digest(&reference, workload), JSON_ROUNDTRIP_DIGEST);
    }
    // Every baseline cell must reproduce its digest and audit here, so a
    // digest drift fails tier-1 instead of hiding behind the CI diff
    // job's timing noise.
    let baseline = BenchReport::from_json(CI_BASELINE).expect("baselines/ci.json parses");
    for base in &baseline.cells {
        let cell = reference
            .cells
            .iter()
            .find(|c| c.id == base.id)
            .unwrap_or_else(|| panic!("smoke matrix lacks baseline cell {}", base.id));
        assert_eq!(cell.digest, base.digest, "{} digest", base.id);
        assert_eq!(cell.audit_ok, base.audit_ok, "{} audit", base.id);
    }
    for threads in [2, 8] {
        let got = smoke_report(threads);
        assert_eq!(
            got.structure_digest(),
            reference.structure_digest(),
            "structure diverged at {threads} harness threads"
        );
        assert_eq!(sim_digest(&got), sim_reference);
        for workload in FRAME_CELLS {
            assert_eq!(frame_digest(&got, workload), JSON_ROUNDTRIP_DIGEST);
        }
        // Cell order is matrix order, not completion order.
        let ids: Vec<&str> = got.cells.iter().map(|c| c.id.as_str()).collect();
        let ref_ids: Vec<&str> = reference.cells.iter().map(|c| c.id.as_str()).collect();
        assert_eq!(ids, ref_ids);
    }
}

#[test]
fn diff_gate_passes_identical_reruns_and_fails_injected_regressions() {
    let base = smoke_report(2);
    // Self-diff: every cell ok, gate passes.
    let clean = diff_reports(&base, &base.clone(), 15.0, 0.01);
    assert!(clean.cells.iter().all(|c| c.verdict == Verdict::Ok));
    assert!(gate(&clean).is_ok());

    // Inject a tight, repeatable 5x slowdown into one cell. Timing is
    // the one measured (non-deterministic) field, so the test pins the
    // samples itself rather than trusting container wall clocks.
    let mut tight_base = base.clone();
    let mut tight_cur = base;
    for (b, c) in tight_base.cells.iter_mut().zip(tight_cur.cells.iter_mut()) {
        b.samples_ns = vec![5_000_000, 5_010_000, 4_990_000];
        b.finalize();
        c.samples_ns = b.samples_ns.clone();
        c.finalize();
    }
    let victim = tight_cur.cells[0].id.clone();
    tight_cur.cells[0].samples_ns = vec![25_000_000, 25_050_000, 24_950_000];
    tight_cur.cells[0].finalize();
    let diff = diff_reports(&tight_base, &tight_cur, 15.0, 0.01);
    let bad: Vec<_> = diff.failures().iter().map(|c| c.id.clone()).collect();
    assert_eq!(bad, vec![victim.clone()]);
    let err = gate(&diff).expect_err("a 5x repeatable slowdown must fail the gate");
    assert!(err.contains(&victim), "{err}");
    assert!(err.contains("REGRESSED"), "{err}");

    // A digest flip is a hard failure even with identical timing.
    let mut forged = tight_base.clone();
    forged.cells[0].digest = "0000000000000000".to_string();
    let diff = diff_reports(&tight_base, &forged, 15.0, 0.01);
    assert_eq!(diff.failures().len(), 1);
    assert_eq!(diff.failures()[0].verdict, Verdict::DigestChanged);
}

#[test]
fn formats_round_trip_and_render_every_cell() {
    let report = smoke_report(2);
    // JSON: parse(to_json) reproduces the report exactly.
    let parsed = BenchReport::from_json(&report.to_json_pretty().unwrap()).unwrap();
    assert_eq!(parsed, report);
    // CSV: the header line, then one row per cell.
    let csv = formats::csv(&report);
    let mut lines = csv.lines();
    assert_eq!(lines.next(), Some(formats::CSV_HEADER));
    assert_eq!(lines.count(), report.cells.len());
    // Table and markdown name every cell.
    let table = formats::live_table(&report);
    let md = formats::markdown(&report);
    for cell in &report.cells {
        assert!(table.contains(&cell.id), "table missing {}", cell.id);
        assert!(md.contains(&cell.id), "markdown missing {}", cell.id);
    }
}

#[test]
fn cli_run_and_diff_share_one_schema() {
    let cli = |args: &[&str]| {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        numa_perf_tools::cli::run(&owned)
    };
    let dir = std::env::temp_dir().join(format!("np-bench-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("run.json");
    let out_s = out.to_str().unwrap();

    // `np bench` (smoke) writes a gate-ready np-bench/1 artifact...
    let text = cli(&["bench", "--smoke", "--out", out_s]).unwrap();
    assert!(text.contains("smoke: OK"), "{text}");
    let report = BenchReport::from_json(&std::fs::read_to_string(&out).unwrap()).unwrap();
    assert_eq!(report.schema, BENCH_SCHEMA);

    // ...which `np bench diff` accepts as both baseline and current.
    let text = cli(&["bench", "diff", out_s, "--current", out_s]).unwrap();
    assert!(text.contains("gate: OK"), "{text}");
    std::fs::remove_dir_all(&dir).unwrap();
}

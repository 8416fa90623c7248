//! Differential proof that one simulation per `(program, seed)` is enough.
//!
//! A real PMU has four programmable registers, so EvSel re-runs the
//! program once per register batch (§IV-A-1); PEBS watches one
//! load-latency threshold at a time, so the Memhist ladder takes one run
//! per threshold (§IV-B). The simulator is pure in `(config, program,
//! seed)` and counts every event in every run, so the tools read all
//! batches and all thresholds off a single run. This file keeps the
//! re-run path as test-local reference code and checks that both tools
//! still produce exactly what it produces, on noisy and quiet presets.

use np_core::memhist::{Memhist, MemhistConfig};
use np_counters::acquisition::measure_batched;
use np_counters::measurement::Measurement;
use np_counters::pebs::PebsCollector;
use np_counters::pmu::PmuModel;
use np_simulator::{HwEvent, MachineConfig, MachineSim, Program, RunResult};
use np_stats::histogram::LatencyHistogram;
use np_workloads::registry;

fn quiet(mut cfg: MachineConfig) -> MachineConfig {
    cfg.noise.timer_interval = 0;
    cfg.noise.dram_jitter = 0.0;
    cfg
}

/// The sizes of `differential_engine.rs`: small enough to run each
/// program many times, large enough to overflow every cache level.
fn size_for(name: &str) -> Option<usize> {
    match name {
        "row-major" | "column-major" => Some(256),
        "sort" => Some(8 * 1024),
        "sift" | "sift-naive" => Some(512),
        "mlc-local" | "mlc-remote" => Some(1 << 20),
        "stream-local" | "stream-bound" | "stream-interleaved" => Some(16 * 1024),
        "matmul" => Some(48),
        "bfs" | "bfs-bound" | "bfs-interleaved" => Some(4 * 1024),
        "hashjoin-small" => Some(2 * 1024),
        "hashjoin-large" => Some(8 * 1024),
        "chase-small" => Some(1 << 20),
        "chase-large" => Some(2 << 20),
        "stencil-small" => Some(96),
        "stencil-large" => Some(128),
        "walk-small" => Some(4 * 1024),
        "walk-large" => Some(16 * 1024),
        _ => None,
    }
}

/// Reference batched acquisition: one identically-seeded run per register
/// batch, fixed counters and cycles off the first (or a dedicated run when
/// every requested event is fixed).
fn rerun_batched(
    sim: &MachineSim,
    program: &Program,
    events: &[HwEvent],
    repetitions: usize,
    base_seed: u64,
    pmu: &PmuModel,
) -> Vec<Measurement> {
    let batches = pmu.batches(events);
    let record_fixed = |m: &mut Measurement, result: &RunResult| {
        for &f in &pmu.fixed {
            if events.contains(&f) {
                m.values.insert(f, result.total(f) as f64);
            }
        }
        m.cycles = result.cycles;
    };
    let mut runs = Vec::new();
    for rep in 0..repetitions {
        let seed = base_seed + rep as u64;
        let mut m = Measurement::new(seed);
        if batches.is_empty() {
            record_fixed(&mut m, &sim.run(program, seed).expect("valid program"));
        }
        for (bi, batch) in batches.iter().enumerate() {
            let result = sim.run(program, seed).expect("valid program");
            if bi == 0 {
                record_fixed(&mut m, &result);
            }
            for &e in batch {
                m.values.insert(e, result.total(e) as f64);
            }
        }
        runs.push(m);
    }
    runs
}

/// Reference ladder: one dedicated PEBS run per threshold, counting every
/// exceedance and recording (almost) no samples.
fn rerun_ladder(
    sim: &MachineSim,
    program: &Program,
    seed: u64,
    thresholds: &[u64],
) -> LatencyHistogram {
    let counts: Vec<i64> = thresholds
        .iter()
        .map(|&t| {
            let mut pebs = PebsCollector::new(t, u32::MAX);
            let _ = sim.run_observed(program, seed, &mut pebs);
            pebs.exceed_count as i64
        })
        .collect();
    LatencyHistogram::from_threshold_counts(thresholds, &counts).expect("ascending thresholds")
}

fn differential(cfg: &MachineConfig, names: &[&str]) {
    let sim = MachineSim::new(cfg.clone());
    let pmu = PmuModel::default();
    let all = HwEvent::ALL.to_vec();
    let fixed_only = [HwEvent::Cycles, HwEvent::Instructions];
    let tool = Memhist::with_defaults();
    let thresholds = MemhistConfig::default().thresholds;
    for (i, name) in names.iter().enumerate() {
        let workload = registry::build(name, size_for(name), 2, cfg).expect("registry build");
        let program = workload.build(cfg);
        let seed = 0x5EED ^ (i as u64) << 8;

        for events in [&all[..], &fixed_only[..]] {
            let got = measure_batched(&sim, &program, events, 2, seed, &pmu).expect("batched");
            let want = rerun_batched(&sim, &program, events, 2, seed, &pmu);
            assert_eq!(got.len(), 2, "{name}: repetitions");
            assert_eq!(
                got.runs,
                want,
                "{name}: {} events diverged from the re-run path",
                events.len()
            );
        }

        let got = tool.measure_ladder(&sim, &program, seed);
        let want = rerun_ladder(&sim, &program, seed, &thresholds);
        assert_eq!(
            format!("{:?}", got.histogram),
            format!("{want:?}"),
            "{name}: ladder diverged from the per-threshold runs"
        );
        assert!(got.coverage.is_empty(), "{name}: ladder coverage");
        assert_eq!(got.total_slices, 0, "{name}: ladder slices");
        assert!(!got.degraded, "{name}: ladder degraded");
    }
}

#[test]
fn one_run_matches_rerun_path_on_noisy_two_socket() {
    differential(
        &MachineConfig::two_socket_small(),
        &[
            "stream-local",
            "mlc-remote",
            "chase-large",
            "hashjoin-small",
            "stencil-small",
            "walk-small",
            "matmul",
        ],
    );
}

/// The whole registry on three presets — about a minute of release-mode
/// simulation on a two-core host, so it is opt-in here (`-- --ignored`);
/// CI runs it in release on every push.
#[test]
#[ignore = "full registry sweep; run in release by CI"]
fn one_run_matches_rerun_path_across_the_registry() {
    for cfg in [
        MachineConfig::two_socket_small(),
        quiet(MachineConfig::eight_socket_ring()),
        MachineConfig::dl580_gen9(),
    ] {
        differential(&cfg, &registry::NAMES);
    }
}

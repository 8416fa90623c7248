//! The determinism matrix: every pooled path in the suite — campaign,
//! Phasenprüfer pivot scan, all-counters correlation sweep, analysis
//! sweep — must be bit-identical across threads ∈ {1, 2, 8} and to its
//! sequential implementation. This is the np-parallel contract exercised
//! end-to-end through the real tools, not through synthetic pool tasks.
//! The Memhist threshold ladder reads every threshold off one run and
//! ignores its pool; its entry point is still checked at every width.

use np_core::evsel::{EvSel, ParameterSweep};
use np_core::memhist::Memhist;
use np_core::phasen::Phasenpruefer;
use np_core::runner::{MeasurementPlan, Runner};
use np_counters::measurement::{Measurement, RunSet};
use np_parallel::Pool;
use np_simulator::{HwEvent, MachineConfig, MachineSim, Program};
use np_workloads::cache_miss::CacheMissKernel;
use np_workloads::mlc::LatencyChecker;
use np_workloads::Workload;

const THREADS: [usize; 3] = [1, 2, 8];

fn machine() -> MachineConfig {
    let mut cfg = MachineConfig::two_socket_small();
    cfg.noise.timer_interval = 5_000;
    cfg.noise.dram_jitter = 0.05;
    cfg
}

#[test]
fn campaign_matrix_is_bit_identical() {
    let cfg = machine();
    let w = CacheMissKernel::column_major(48);
    let program = w.build(&cfg);
    let plan = MeasurementPlan::events(
        vec![HwEvent::Cycles, HwEvent::L1dMiss, HwEvent::RemoteDramAccess],
        6,
        31,
    );
    // The sequential reference: the acquisition loop, one rep at a time.
    let sim = MachineSim::new(cfg.clone());
    let serial =
        np_counters::acquisition::measure_batched(&sim, &program, &plan.events, 6, 31, &plan.pmu)
            .expect("valid program");
    for threads in THREADS {
        let rs = Runner::new(cfg.clone())
            .with_threads(threads)
            .measure_program(&program, &plan)
            .unwrap();
        assert_eq!(rs.len(), serial.len(), "{threads} threads");
        for (a, b) in rs.runs.iter().zip(&serial.runs) {
            assert_eq!(a.values, b.values, "{threads} threads");
            assert_eq!(a.cycles, b.cycles, "{threads} threads");
        }
    }
}

#[test]
fn memhist_ladder_matrix_is_bit_identical() {
    let cfg = machine();
    let sim = MachineSim::new(cfg.clone());
    let program = LatencyChecker::new(0, 0, 1 << 18, 400).build(&cfg);
    let tool = Memhist::with_defaults();
    let serial = tool.measure_ladder(&sim, &program, 11);
    for threads in THREADS {
        let pool = Pool::new(threads);
        let pooled = tool.measure_ladder_pool(&sim, &program, 11, &pool);
        assert_eq!(
            format!("{:?}", pooled.histogram),
            format!("{:?}", serial.histogram),
            "{threads} threads"
        );
        assert_eq!(
            pooled.total_slices, serial.total_slices,
            "{threads} threads"
        );
    }
}

#[test]
fn phasen_scan_matrix_is_bit_identical() {
    // A ramp-then-flat footprint with deterministic jitter: the pivot
    // scan has many near-tied candidates, which is exactly where a
    // merge-order bug would surface as a different chosen pivot.
    let footprint: Vec<(u64, u64)> = (0..240u64)
        .map(|i| {
            let mib = if i < 80 { i * 3 } else { 240 + (i % 5) };
            (i * 50_000, mib << 20)
        })
        .collect();
    let pp = Phasenpruefer::default();
    let serial = pp.detect(&footprint).expect("two clear phases");
    for threads in THREADS {
        let pool = Pool::new(threads);
        let pooled = pp.detect_pool(&footprint, &pool).expect("two clear phases");
        assert_eq!(pooled.pivot_index, serial.pivot_index, "{threads} threads");
        assert_eq!(pooled.pivot_time, serial.pivot_time, "{threads} threads");
        assert_eq!(
            pooled.fit.combined_rss.to_bits(),
            serial.fit.combined_rss.to_bits(),
            "{threads} threads"
        );
    }
}

#[test]
fn correlation_sweep_matrix_is_bit_identical() {
    // Synthetic sweep over every catalog event, mixing the three
    // regression families so the strength sort has real work to do.
    let ids = np_counters::catalog::EventCatalog::builtin().ids();
    let mut sweep = ParameterSweep::new("threads");
    for &p in &[1.0f64, 2.0, 4.0, 8.0, 16.0] {
        let mut rs = RunSet::new(format!("p{p}"));
        for rep in 0..3u64 {
            let mut m = Measurement::new(p as u64 * 10 + rep);
            for (ei, &e) in ids.iter().enumerate() {
                let k = (ei + 1) as f64;
                let v = match ei % 3 {
                    0 => 10.0 * k + 7.0 * k * p,
                    1 => 5.0 * k + 0.4 * k * p * p,
                    _ => 1e4 * k * (-0.2 * p).exp(),
                };
                m.values.insert(e, v * (1.0 + rep as f64 * 1e-4));
            }
            rs.runs.push(m);
        }
        sweep.push(p, rs);
    }
    let serial = EvSel::default().correlate(&sweep);
    for threads in THREADS {
        let pool = Pool::new(threads);
        let pooled = EvSel::default().correlate_pool(&sweep, &pool);
        assert_eq!(pooled.rows.len(), serial.rows.len(), "{threads} threads");
        for (a, b) in pooled.rows.iter().zip(&serial.rows) {
            assert_eq!(a.event, b.event, "{threads} threads");
            assert_eq!(
                a.pearson.to_bits(),
                b.pearson.to_bits(),
                "{threads} threads"
            );
            assert_eq!(a.best.kind, b.best.kind, "{threads} threads");
            assert_eq!(
                a.best.r_squared.to_bits(),
                b.best.r_squared.to_bits(),
                "{threads} threads"
            );
        }
    }
}

#[test]
fn analysis_sweep_matrix_is_bit_identical() {
    let cfg = machine();
    let programs: Vec<(String, Program)> = [
        ("row", CacheMissKernel::row_major(64).build(&cfg)),
        ("col", CacheMissKernel::column_major(64).build(&cfg)),
        ("chase", LatencyChecker::new(0, 1, 1 << 16, 200).build(&cfg)),
    ]
    .into_iter()
    .map(|(n, p)| (n.to_string(), p))
    .collect();
    let serial: Vec<String> = programs
        .iter()
        .map(|(_, p)| format!("{:?}", np_analysis::analyze(p, &cfg)))
        .collect();
    for threads in THREADS {
        let pool = Pool::new(threads);
        let pooled = np_analysis::analyze_many(&programs, &cfg, &pool);
        assert_eq!(pooled.len(), serial.len(), "{threads} threads");
        for ((name, a), (s, (expect, _))) in pooled.iter().zip(serial.iter().zip(&programs)) {
            assert_eq!(*name, expect.as_str(), "{threads} threads");
            assert_eq!(&format!("{a:?}"), s, "{threads} threads");
        }
    }
}

/// Deterministic compute with no wall-clock dependence in the *work*:
/// a fixed-iteration LCG spin, so each item costs the same counted effort
/// on every run.
fn spin(item: usize, rounds: u64) -> u64 {
    let mut acc = item as u64;
    for i in 0..rounds {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
    }
    acc
}

#[test]
fn queue_wakeups_stay_proportional_to_traffic() {
    // The counted-work storm guard: a reintroduced thundering herd (every
    // push waking every worker, each finding the queue already drained)
    // scales consumer waits with workers × pushes, while the healthy
    // single-notify queue stays proportional to traffic alone. Counts,
    // not wall-clock, so this cannot flake on a loaded CI runner.
    for threads in [2usize, 8] {
        let pool = Pool::new(threads);
        let report = pool.run_report(512, |i| spin(i, 2_000));
        assert_eq!(report.results.len(), 512, "{threads} threads");
        let q = report.queue;
        let chunks = report.profile.len() as u64;
        assert_eq!(
            q.pushes, chunks,
            "{threads} threads: every chunk pushed once"
        );
        assert_eq!(q.pops, chunks, "{threads} threads: every chunk popped once");
        let budget = 3 * (q.pops + threads as u64) + 16;
        assert!(
            q.consumer_waits <= budget,
            "{threads} threads: wakeup storm — {} consumer waits for {} pops (budget {budget})",
            q.consumer_waits,
            q.pops
        );
        assert!(
            q.producer_waits <= q.pushes,
            "{threads} threads: producer blocked {} times for {} pushes",
            q.producer_waits,
            q.pushes
        );
    }
}

#[test]
fn idle_wait_stays_bounded_by_useful_work() {
    // The serialization guard, as a *ratio* with deliberate headroom: the
    // idle time workers spend blocked on the queue must stay within a
    // workers-sized multiple of the useful chunk time plus a fixed
    // allowance for scheduler noise. Accidental serialization — a lock
    // held across user work, a producer that feeds one chunk at a time
    // and waits for it to finish — makes idle time scale with *total*
    // runtime times workers and blows through the bound by orders of
    // magnitude; legitimate contention on a saturated runner does not.
    for threads in [2usize, 8] {
        let pool = Pool::new(threads);
        let report = pool.run_report(64, |i| spin(i, 200_000));
        assert_eq!(report.results.len(), 64, "{threads} threads");
        let busy: u64 = report.profile.iter().map(|p| p.end_ns - p.start_ns).sum();
        let idle: u64 = report.profile.iter().map(|p| p.wait_ns).sum();
        let bound = threads as u64 * busy + 50_000_000;
        assert!(
            idle <= bound,
            "{threads} threads: {idle} ns idle vs {busy} ns useful (bound {bound})"
        );
    }
}

#[test]
fn auto_granularity_amortises_cheap_items() {
    // With no explicit chunk size, the pool probes per-item cost and
    // sizes chunks toward the ~1 ms work floor; for thousands of cheap
    // items that must collapse the chunk count far below item count —
    // the per-chunk deposit/merge overhead the profile measured.
    let pool = Pool::new(4);
    let report = pool.run_report(4096, |i| spin(i, 500));
    assert_eq!(report.results.len(), 4096);
    let chunks = report.profile.len();
    assert!(
        chunks < 4096 / 4,
        "auto-granularity regressed: {chunks} chunks for 4096 cheap items"
    );
    // The merged output is still the identity mapping of the input order.
    for (i, v) in report.results.iter().enumerate() {
        assert_eq!(*v, spin(i, 500));
    }
}

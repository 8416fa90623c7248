//! Integration: Memhist and Phasenprüfer end to end on the simulated
//! DL580, reproducing the §V-B and §V-C scenarios.

use np_core::memhist::probe::{FetchPolicy, ProbeServer, RemoteMemhist};
use np_workloads::mlc;
use numa_perf_tools::prelude::*;

fn sim() -> MachineSim {
    MachineSim::new(MachineConfig::dl580_gen9())
}

#[test]
fn fig10a_sift_peaks_verified_against_mlc() {
    let sim = sim();
    let machine = sim.config().clone();
    // Small enough for a test, large enough that bands exceed the L2.
    let sift = SiftKernel::optimized(1024, 8).build(&machine);
    let memhist = Memhist::with_defaults();
    let result = memhist.measure(&sim, &sift, 3);

    // Cache peaks must be present and verifiable (L2, L3).
    let v = memhist.verify_peaks(
        &result,
        HistogramMode::Occurrences,
        &[machine.latency.l2_hit as f64, machine.latency.l3_hit as f64],
    );
    assert!(
        v.unmatched.is_empty(),
        "unverified peaks: {:?}",
        v.unmatched
    );

    // "acts almost entirely on local memory": remote mass negligible.
    let remote_mass: i64 = result
        .histogram
        .bins
        .iter()
        .filter(|b| b.lo >= 320)
        .map(|b| b.count.max(0))
        .sum();
    let total = result.histogram.total_count();
    assert!(
        (remote_mass as f64) < 0.02 * total as f64,
        "remote mass {remote_mass} of {total}"
    );
}

#[test]
fn fig10b_remote_injection_shifts_cost_mass() {
    let sim = sim();
    let machine = sim.config().clone();
    let memhist = Memhist::with_defaults();
    let injector = LatencyChecker::remote_injector(8 << 20, 4000).build(&machine);
    let result = memhist.measure(&sim, &injector, 5);

    // The remote peak sits where mlc says it should.
    let matrix = mlc::measure_matrix(&sim, 8 << 20, 400, 9);
    let v = memhist.verify_peaks(&result, HistogramMode::Costs, &[matrix[0][1]]);
    assert!(
        v.unmatched.is_empty(),
        "remote peak missing at {}",
        matrix[0][1]
    );

    // In costs mode, the remote bins dominate the total cost.
    let remote_cost: i64 = result
        .histogram
        .bins
        .iter()
        .filter(|b| b.lo >= 320)
        .map(|b| b.cost_cycles)
        .sum();
    assert!(
        remote_cost as f64 > 0.8 * result.histogram.total_cost() as f64,
        "remote cost {} of {}",
        remote_cost,
        result.histogram.total_cost()
    );
}

#[test]
fn mlc_matrix_reflects_topologies() {
    // DL580: one flat remote tier. Ring: latency grows with hop count.
    let flat = MachineSim::new(MachineConfig::dl580_gen9());
    let m = mlc::measure_matrix(&flat, 4 << 20, 250, 3);
    let local = m[0][0];
    for n in 1..4 {
        assert!(
            m[0][n] > local + 80.0,
            "remote {} vs local {local}",
            m[0][n]
        );
        assert!((m[0][n] - m[0][1]).abs() < 40.0, "flat remote tier");
    }

    let ring = MachineSim::new(MachineConfig::eight_socket_ring());
    let m = mlc::measure_matrix(&ring, 4 << 20, 250, 3);
    assert!(
        m[0][4] > m[0][1] + 250.0,
        "4 hops {} vs 1 hop {}",
        m[0][4],
        m[0][1]
    );
}

#[test]
fn remote_probe_roundtrip_over_tcp() {
    let machine = MachineConfig::dl580_gen9();
    let program = LatencyChecker::new(0, 0, 4 << 20, 800).build(&machine);
    let config = MemhistConfig::default();

    let listener = ProbeServer::bind().unwrap();
    let addr = listener.local_addr().unwrap();
    let server = ProbeServer::new(MachineSim::new(machine.clone()), program.clone());
    let handle = std::thread::spawn(move || server.serve(&listener, 1));

    let remote =
        RemoteMemhist::fetch_resilient(addr, &config, 11, &FetchPolicy::default()).unwrap();
    handle.join().unwrap().unwrap();

    let local = Memhist::new(config).measure(&MachineSim::new(machine), &program, 11);
    assert_eq!(
        remote.histogram.total_count(),
        local.histogram.total_count()
    );
}

#[test]
fn fig11_phase_split_and_attribution() {
    let sim = sim();
    let machine = sim.config().clone();
    let trace = PhaseTraceKernel::chrome_startup().build(&machine);
    let pp = Phasenpruefer::default();
    let events = [EventId::LoadRetired, EventId::Instructions];
    let (report, attr) = pp.measure(&sim, &trace, 1, &events).expect("phases");

    // Ramp-up: steep, well-explained; computation: flat.
    assert!(report.fit.before.r_squared > 0.95);
    assert!(report.ramp_slope() > 10.0 * report.compute_slope().abs().max(1e-9));

    // Attribution: loads concentrate in the computation phase.
    assert!(
        attr.per_phase[1][&EventId::LoadRetired]
            > 10.0 * attr.per_phase[0][&EventId::LoadRetired].max(1.0)
    );

    // The k-phase extension splits a 3-superstep trace into 6 segments.
    let bsp = PhaseTraceKernel::bsp_supersteps(3).build(&machine);
    let run = sim.run(&bsp, 2).expect("valid program");
    let bounds = pp.detect_k(&run.footprint, 6).expect("k phases");
    assert_eq!(bounds.len(), 6);
}

#[test]
fn two_step_strategy_transfers_across_machines() {
    use np_core::evsel::ParameterSweep;
    use np_core::strategy::indicators_of;
    use np_workloads::stream::StreamTriad;

    // All sizes in the DRAM-traffic regime (3 arrays × 8 B × elements well
    // beyond the private caches), same regime as the target.
    let sizes = [
        16 * 1024usize,
        24 * 1024,
        32 * 1024,
        48 * 1024,
        64 * 1024,
        96 * 1024,
    ];
    let target = 256 * 1024usize;
    let events = vec![
        EventId::Cycles,
        EventId::LoadRetired,
        EventId::LocalDramAccess,
        EventId::RemoteDramAccess,
    ];

    let measure_sweep = |machine: &MachineConfig, seed: u64| {
        let runner = Runner::new(machine.clone());
        let mut sweep = ParameterSweep::new("elements");
        let mut costs = Vec::new();
        for &s in &sizes {
            let runs = runner
                .measure(
                    &StreamTriad::interleaved(s, 4),
                    &MeasurementPlan::events(events.clone(), 3, seed),
                )
                .unwrap();
            costs.push(runs.mean(EventId::Cycles).unwrap());
            sweep.push(s as f64, runs);
        }
        (sweep, costs)
    };

    let a = MachineConfig::dl580_gen9();
    let b = MachineConfig::eight_socket_ring();

    let (sweep_a, _) = measure_sweep(&a, 1);
    let ex = IndicatorExtrapolator::fit(&sweep_a, 0.9);
    let mut indicators = ex.predict(target as f64).expect("extrapolation");
    indicators.remove(&EventId::Cycles);

    let (sweep_b, costs_b) = measure_sweep(&b, 2);
    let pairs: Vec<_> = sweep_b
        .points
        .iter()
        .zip(&costs_b)
        .map(|((_, rs), &c)| {
            let mut ind = indicators_of(rs);
            ind.remove(&EventId::Cycles);
            (ind, c)
        })
        .collect();
    let model = CostModel::fit(&pairs).expect("cost model");
    let predicted = model.predict(&indicators).expect("prediction");

    let actual = Runner::new(b)
        .measure(
            &StreamTriad::interleaved(target, 4),
            &MeasurementPlan::events(vec![EventId::Cycles], 2, 5),
        )
        .unwrap()
        .mean(EventId::Cycles)
        .unwrap();

    let err = (predicted - actual).abs() / actual;
    assert!(err < 0.15, "transfer error {:.1} %", err * 100.0);
}

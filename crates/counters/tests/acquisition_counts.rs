//! The counted work of batched acquisition: every repetition is one
//! simulation, and costs `PmuModel::runs_needed` logical register-batch
//! runs, the figure `MeasurementPlan::total_runs` plans per repetition.
//!
//! Telemetry counters are process-global, so this binary holds a single
//! test: a second test in the same process could run the simulator while
//! this one reads its before/after deltas.

use np_counters::acquisition::measure_batched;
use np_counters::pmu::PmuModel;
use np_simulator::{AllocPolicy, HwEvent, MachineConfig, MachineSim, ProgramBuilder};

const COUNTERS: [&str; 3] = ["acq.batched.batch_runs", "acq.runs", "sim.runs"];

fn counts() -> [u64; 3] {
    COUNTERS.map(|name| np_telemetry::global().counter(name).get())
}

#[test]
fn batched_counts_logical_batch_runs_and_one_simulation_per_repetition() {
    np_telemetry::set_enabled(true);
    let sim = MachineSim::new(MachineConfig::two_socket_small());
    let mut b = ProgramBuilder::new(&sim.config().topology, 4096);
    let buf = b.alloc(1 << 16, AllocPolicy::Bind(0));
    let t = b.add_thread(0);
    for i in 0..1024u64 {
        b.load(t, buf + i * 64);
    }
    let program = b.build();
    let pmu = PmuModel::default();
    let fixed_only = [HwEvent::Cycles, HwEvent::Instructions];
    let all = HwEvent::ALL.to_vec();
    for (events, reps) in [(&fixed_only[..], 3usize), (&all[..], 2)] {
        let before = counts();
        measure_batched(&sim, &program, events, reps, 11, &pmu).expect("valid program");
        let after = counts();
        let expected = [reps * pmu.runs_needed(events), reps, reps];
        for (i, name) in COUNTERS.iter().enumerate() {
            assert_eq!(
                after[i] - before[i],
                expected[i] as u64,
                "{name} over {} events",
                events.len()
            );
        }
    }
    np_telemetry::set_enabled(false);
}

//! Run orchestration: workloads × measurement plans → run sets.
//!
//! EvSel "was designed to measure all performance counters during the
//! whole program run and does not perform event cycling thus. Since only a
//! limited number of registers is available for measuring, program runs
//! are repeated" (§IV-A-1). A [`MeasurementPlan`] captures those choices
//! (which events, how many repetitions, batched vs multiplexed); the
//! [`Runner`] executes the plan, fanning independent simulated runs across
//! host cores with the np-parallel pool — whose merge-in-submission-order
//! contract is what keeps the campaign bit-identical to a serial loop at
//! every thread count.

use crate::capture::NodeSeriesObserver;
use np_counters::acquisition::{measure_batched, measure_multiplexed, AcquisitionMode};
use np_counters::catalog::{EventCatalog, EventId};
use np_counters::measurement::{Measurement, RunSet};
use np_counters::pmu::PmuModel;
use np_parallel::{ChunkProfile, Pool, PoolConfig};
use np_simulator::{MachineConfig, MachineSim, Program};
use np_telemetry::timeseries::Sampler;
use np_workloads::Workload;

/// What to measure and how.
#[derive(Debug, Clone)]
pub struct MeasurementPlan {
    /// Events to cover.
    pub events: Vec<EventId>,
    /// Identically-configured repetitions (the sample size for t-tests;
    /// the paper's EvSel takes "a number of repetitions").
    pub repetitions: usize,
    /// Register acquisition mode.
    pub mode: AcquisitionMode,
    /// Seed of the first repetition; repetition `r` uses `base_seed + r`.
    pub base_seed: u64,
    /// The PMU register model.
    pub pmu: PmuModel,
}

impl MeasurementPlan {
    /// Measures *every* catalog event with batched runs — EvSel's default
    /// posture ("EvSel can measure all counters").
    pub fn all_events(repetitions: usize, base_seed: u64) -> Self {
        MeasurementPlan {
            events: EventCatalog::builtin().ids(),
            repetitions: repetitions.max(2),
            mode: AcquisitionMode::BatchedRuns,
            base_seed,
            pmu: PmuModel::default(),
        }
    }

    /// Measures a specific event list.
    pub fn events(events: Vec<EventId>, repetitions: usize, base_seed: u64) -> Self {
        MeasurementPlan {
            events,
            repetitions: repetitions.max(2),
            mode: AcquisitionMode::BatchedRuns,
            base_seed,
            pmu: PmuModel::default(),
        }
    }

    /// Switches to multiplexed acquisition (for the ablation).
    pub fn multiplexed(mut self) -> Self {
        self.mode = AcquisitionMode::Multiplexed;
        self
    }

    /// Runs this plan costs on a real PMU: one per register batch per
    /// repetition when batched. The simulator makes one run per
    /// repetition either way, since it counts every event in every run.
    pub fn total_runs(&self) -> usize {
        match self.mode {
            AcquisitionMode::BatchedRuns => self.repetitions * self.pmu.runs_needed(&self.events),
            AcquisitionMode::Multiplexed => self.repetitions,
        }
    }
}

/// What a sampled campaign produced: the measurements, the merged
/// deterministic time-series capture, and the pool's worker profile.
#[derive(Debug)]
pub struct SampledCampaign {
    /// The per-repetition measurements (same values the plain batched
    /// path records for the same plan).
    pub runs: RunSet,
    /// Merged per-repetition, per-node, phase-attributed series
    /// (`rep<R>.node<N>.<event>`), timestamped in simulated cycles.
    pub sampler: Sampler,
    /// Per-chunk worker attribution from the pool (wall-clock ns).
    pub profile: Vec<ChunkProfile>,
    /// Pool worker count the campaign ran with.
    pub workers: usize,
}

/// Executes measurement plans against one simulated machine.
pub struct Runner {
    sim: MachineSim,
    pool: Pool,
}

impl Runner {
    /// Creates a runner for `machine`.
    pub fn new(machine: MachineConfig) -> Self {
        Runner {
            sim: MachineSim::new(machine),
            pool: Pool::default(),
        }
    }

    /// Sets the worker-thread count for parallel campaign execution.
    /// Purely a throughput knob: measured values are bit-identical for
    /// every choice (see the np-parallel determinism contract).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.pool = Pool::new(threads);
        self
    }

    /// The underlying simulator.
    pub fn sim(&self) -> &MachineSim {
        &self.sim
    }

    /// Measures a workload under `plan`. Returns an error for empty plans.
    pub fn measure(
        &self,
        workload: &dyn Workload,
        plan: &MeasurementPlan,
    ) -> Result<RunSet, String> {
        let program = workload.build(self.sim.config());
        let mut set = self.measure_program(&program, plan)?;
        set.label = workload.name();
        Ok(set)
    }

    /// Measures an already-built program under `plan`.
    pub fn measure_program(
        &self,
        program: &Program,
        plan: &MeasurementPlan,
    ) -> Result<RunSet, String> {
        Ok(self.campaign(program, plan, None)?.runs)
    }

    /// Measures a workload under `plan` with a per-repetition time-series
    /// capture of at most `capacity` bins per series.
    ///
    /// Every repetition runs the simulation once under a
    /// [`NodeSeriesObserver`] (timestamps in simulated cycles, phase
    /// `measure`), into its **own** sampler, and reads the plan's events
    /// straight off that run's counters: the values batched acquisition
    /// records for the same `(program, seed)`. The samplers merge in
    /// submission order under `rep<R>.` prefixes, so the capture is a
    /// pure function of the plan, byte-identical across runs and pool
    /// thread counts. The pool's [`ChunkProfile`] rides along for the
    /// worker timeline (wall-clock, intentionally separate from the
    /// deterministic capture). A capture reads exact counts, so a
    /// multiplexed plan is an error.
    pub fn measure_sampled(
        &self,
        workload: &dyn Workload,
        plan: &MeasurementPlan,
        capacity: usize,
    ) -> Result<SampledCampaign, String> {
        let program = workload.build(self.sim.config());
        let mut campaign = self.campaign(&program, plan, Some(capacity))?;
        campaign.runs.label = workload.name();
        Ok(campaign)
    }

    /// The campaign loop behind every entry point: `plan.repetitions`
    /// independent `(program, base_seed + r)` repetitions fanned across
    /// the pool, which merges them in submission order, so the result is
    /// bit-identical to a serial loop at every thread count. `capture`
    /// is the sampler capacity of a captured campaign.
    fn campaign(
        &self,
        program: &Program,
        plan: &MeasurementPlan,
        capture: Option<usize>,
    ) -> Result<SampledCampaign, String> {
        if plan.events.is_empty() {
            return Err("measurement plan has no events".into());
        }
        if plan.repetitions == 0 {
            return Err("measurement plan has no repetitions".into());
        }
        if capture.is_some() && plan.mode == AcquisitionMode::Multiplexed {
            return Err("a sampled capture reads exact counts and cannot run a \
                        multiplexed plan"
                .into());
        }
        let _span = np_telemetry::span!("runner.measure", "runner");
        np_telemetry::counter!("runner.campaigns").inc();
        np_telemetry::counter!("runner.repetitions").add(plan.repetitions as u64);
        let repetition = |rep: usize| {
            // Occupancy gauge brackets the repetition so a trace shows
            // how many pool workers the fan-out actually kept busy.
            let _rep_span = np_telemetry::span!("runner.repetition", "runner");
            np_telemetry::gauge!("runner.active_workers").add(1);
            let one = self.repetition(program, plan, plan.base_seed + rep as u64, capture);
            np_telemetry::gauge!("runner.active_workers").add(-1);
            if one.is_ok() {
                np_telemetry::counter!("runner.reps_done").inc();
            }
            one
        };
        // A capture pins one chunk per repetition: the worker timeline's
        // contract is per-repetition attribution, the same chunk geometry
        // at every thread count. Otherwise the pool sizes chunks
        // adaptively.
        let pool = match capture {
            Some(_) => Pool::with_config(PoolConfig {
                threads: self.pool.threads(),
                chunk_size: Some(1),
            }),
            None => self.pool.clone(),
        };
        let report = pool.run_report(plan.repetitions, repetition);
        let mut runs = Vec::with_capacity(plan.repetitions);
        let mut sampler = Sampler::new(capture.unwrap_or(0));
        for (rep, one) in report.results.into_iter().enumerate() {
            let (m, rep_sampler) = one?;
            runs.push(m);
            if let Some(rep_sampler) = rep_sampler {
                sampler.merge_prefixed(&format!("rep{rep}."), &rep_sampler);
            }
        }
        let label = match plan.mode {
            AcquisitionMode::BatchedRuns => "batched",
            AcquisitionMode::Multiplexed => "multiplexed",
        };
        Ok(SampledCampaign {
            runs: RunSet {
                runs,
                label: label.into(),
            },
            sampler,
            profile: report.profile,
            workers: self.pool.threads(),
        })
    }

    /// One repetition at `seed`. Uncaptured, it acquires the plan's
    /// events in the plan's mode. Captured, it runs the simulation once
    /// under a [`NodeSeriesObserver`] into its own sampler and reads the
    /// events off that run's exact counts.
    fn repetition(
        &self,
        program: &Program,
        plan: &MeasurementPlan,
        seed: u64,
        capture: Option<usize>,
    ) -> Result<(Measurement, Option<Sampler>), String> {
        let Some(capacity) = capture else {
            let acquire = match plan.mode {
                AcquisitionMode::BatchedRuns => measure_batched,
                AcquisitionMode::Multiplexed => measure_multiplexed,
            };
            let set = acquire(&self.sim, program, &plan.events, 1, seed, &plan.pmu)?;
            return set
                .runs
                .into_iter()
                .next()
                .map(|m| (m, None))
                .ok_or_else(|| "repetition produced no measurement".to_string());
        };
        let _phase = np_telemetry::phase("measure");
        let mut obs = NodeSeriesObserver::new(self.sim.config().topology.clone(), capacity);
        let result = self
            .sim
            .run_observed(program, seed, &mut obs)
            .map_err(|e| format!("invalid program: {e}"))?;
        let mut m = Measurement::new(seed);
        for &e in &plan.events {
            m.values.insert(e, result.total(e) as f64);
        }
        m.cycles = result.cycles;
        Ok((m, Some(obs.into_sampler())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_simulator::HwEvent;
    use np_workloads::cache_miss::CacheMissKernel;

    fn machine() -> MachineConfig {
        let mut cfg = MachineConfig::two_socket_small();
        cfg.noise.timer_interval = 5_000;
        cfg.noise.dram_jitter = 0.05;
        cfg
    }

    #[test]
    fn plan_accounting() {
        let plan = MeasurementPlan::all_events(3, 1);
        // 33 programmable events at 4 slots → 9 runs per repetition.
        assert_eq!(plan.total_runs(), 3 * 9);
        let mux = MeasurementPlan::all_events(3, 1).multiplexed();
        assert_eq!(mux.total_runs(), 3);
    }

    #[test]
    fn measure_produces_labelled_runs() {
        let runner = Runner::new(machine());
        let plan = MeasurementPlan::events(
            vec![HwEvent::Cycles, HwEvent::Instructions, HwEvent::L1dMiss],
            3,
            42,
        );
        let rs = runner
            .measure(&CacheMissKernel::row_major(48), &plan)
            .unwrap();
        assert_eq!(rs.len(), 3);
        assert!(rs.label.contains("row-major"));
        assert!(rs.mean(HwEvent::Instructions).unwrap() > 0.0);
    }

    #[test]
    fn pooled_campaign_matches_serial_acquisition() {
        let runner = Runner::new(machine()).with_threads(2);
        let program = CacheMissKernel::column_major(32).build(runner.sim().config());
        let plan = MeasurementPlan::events(
            vec![HwEvent::Cycles, HwEvent::L1dMiss, HwEvent::L2Miss],
            4,
            7,
        );
        for plan in [plan.clone(), plan.multiplexed()] {
            let pooled = runner.measure_program(&program, &plan).unwrap();
            let acquire = match plan.mode {
                AcquisitionMode::BatchedRuns => measure_batched,
                AcquisitionMode::Multiplexed => measure_multiplexed,
            };
            let serial = acquire(runner.sim(), &program, &plan.events, 4, 7, &plan.pmu)
                .expect("valid program");
            assert_eq!(pooled.label, serial.label);
            assert_eq!(pooled.runs, serial.runs, "{:?}", plan.mode);
        }
    }

    #[test]
    fn campaign_is_thread_count_invariant() {
        let w = CacheMissKernel::row_major(32);
        let plan = MeasurementPlan::events(
            vec![HwEvent::Cycles, HwEvent::L1dMiss, HwEvent::L3Access],
            5,
            21,
        );
        let baseline = Runner::new(machine())
            .with_threads(1)
            .measure(&w, &plan)
            .unwrap();
        for threads in [2, 8] {
            let rs = Runner::new(machine())
                .with_threads(threads)
                .measure(&w, &plan)
                .unwrap();
            assert_eq!(rs.len(), baseline.len(), "{threads} threads");
            for (a, b) in rs.runs.iter().zip(&baseline.runs) {
                assert_eq!(a.values, b.values, "{threads} threads");
            }
        }
    }

    /// `machine()` with a timeslice fine enough that small kernels cross
    /// several sampling boundaries.
    fn sampled_machine() -> MachineConfig {
        let mut cfg = machine();
        cfg.timeslice_cycles = 2_000;
        cfg
    }

    #[test]
    fn sampled_campaign_is_deterministic_across_thread_counts() {
        let w = CacheMissKernel::row_major(32);
        let plan = MeasurementPlan::events(
            vec![HwEvent::Cycles, HwEvent::L1dMiss, HwEvent::L3Access],
            3,
            21,
        );
        let baseline = Runner::new(sampled_machine())
            .with_threads(1)
            .measure_sampled(&w, &plan, 128)
            .unwrap();
        assert!(!baseline.sampler.is_empty());
        let base_json = crate::capture::Capture::from_sampler(
            "two-socket",
            "row-major",
            21,
            3,
            &baseline.sampler,
        );
        for threads in [2, 8] {
            let c = Runner::new(sampled_machine())
                .with_threads(threads)
                .measure_sampled(&w, &plan, 128)
                .unwrap();
            let json =
                crate::capture::Capture::from_sampler("two-socket", "row-major", 21, 3, &c.sampler);
            assert_eq!(
                serde_json::to_string(&base_json).unwrap(),
                serde_json::to_string(&json).unwrap(),
                "{threads} threads"
            );
            // Measured values match the unsampled batched campaign too.
            for (a, b) in c.runs.runs.iter().zip(&baseline.runs.runs) {
                assert_eq!(a.values, b.values, "{threads} threads");
            }
        }
        // And the measurements agree with the plain batched path.
        let plain = Runner::new(sampled_machine())
            .with_threads(1)
            .measure(&w, &plan)
            .unwrap();
        for (a, b) in baseline.runs.runs.iter().zip(&plain.runs) {
            assert_eq!(a.values, b.values);
        }
    }

    #[test]
    fn sampled_capture_attributes_the_measure_phase() {
        let w = CacheMissKernel::row_major(32);
        let plan = MeasurementPlan::events(vec![HwEvent::Cycles], 2, 3);
        let c = Runner::new(sampled_machine())
            .with_threads(2)
            .measure_sampled(&w, &plan, 64)
            .unwrap();
        let (_, series) = c.sampler.iter().next().expect("series recorded");
        let phases = c.sampler.phases();
        assert!(series
            .bins
            .iter()
            .all(|b| phases[b.phase as usize] == "measure"));
        // The worker profile covers every chunk the fan-out produced.
        assert!(!c.profile.is_empty());
        assert_eq!(
            c.profile.iter().map(|p| p.chunk).collect::<Vec<_>>(),
            (0..c.profile.len()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn empty_plans_rejected() {
        let runner = Runner::new(machine());
        let w = CacheMissKernel::row_major(16);
        let p = w.build(runner.sim().config());
        let empty = MeasurementPlan {
            events: vec![],
            ..MeasurementPlan::all_events(2, 1)
        };
        assert!(runner.measure_program(&p, &empty).is_err());
    }

    #[test]
    fn capture_rejects_a_multiplexed_plan() {
        let plan = MeasurementPlan::events(vec![HwEvent::Cycles], 2, 3).multiplexed();
        let err = Runner::new(sampled_machine())
            .measure_sampled(&CacheMissKernel::row_major(16), &plan, 64)
            .unwrap_err();
        assert!(err.contains("multiplexed"), "{err}");
    }

    #[test]
    fn repetitions_vary_under_noise() {
        let runner = Runner::new(machine());
        let plan = MeasurementPlan::events(vec![HwEvent::Cycles], 5, 9);
        let rs = runner
            .measure(&CacheMissKernel::column_major(48), &plan)
            .unwrap();
        let cycles = rs.samples(HwEvent::Cycles);
        assert!(cycles.windows(2).any(|w| w[0] != w[1]), "{cycles:?}");
    }
}

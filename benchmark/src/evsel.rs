//! `evsel-campaign`: EvSel's all-events batched campaign over a fixed
//! kernel mix on the two-socket preset, fanned over a pool of two.
//!
//! The unobserved simulator, acquisition batching and the pool do nearly
//! all the work; analysis and serve do none.

use crate::layers::Layers;
use crate::measure::{accesses, digest, ns_since, self_ns, Log, Telemetry};
use crate::{Bench, THREADS};
use np_core::runner::{MeasurementPlan, Runner};
use np_counters::acquisition::measure_batched;
use np_simulator::Program;
use np_workloads::registry;
use std::time::Instant;

/// The kernel mix: registry name and size override.
pub const KERNELS: [(&str, Option<usize>); 6] = [
    ("stream-local", None),
    ("column-major", Some(384)),
    ("sort", None),
    ("chase-large", None),
    ("hashjoin-large", Some(16384)),
    ("stencil-large", None),
];

/// Repetitions per kernel campaign (the plan's minimum).
const REPETITIONS: usize = 2;

/// The campaign fixture: built programs and the runner's simulator.
pub struct EvselCampaign {
    runner: Runner,
    programs: Vec<Program>,
    plan: MeasurementPlan,
    build_ns: u64,
    /// Digest of each kernel's sequential `measure_batched` run set.
    reference: Vec<u64>,
    /// Simulated accesses per run of each kernel (traced runs only).
    accesses: Vec<u64>,
}

impl EvselCampaign {
    /// Generates the kernel programs and constructs the simulator.
    pub fn setup(seed: u64) -> Result<Self, String> {
        let machine = np_bench::harness::runner::resolve_machine("two-socket")?;
        let started = Instant::now();
        let programs = KERNELS
            .iter()
            .map(
                |&(name, size)| Ok(registry::build(name, size, THREADS, &machine)?.build(&machine)),
            )
            .collect::<Result<Vec<_>, String>>()?;
        let build_ns = ns_since(started);
        Ok(EvselCampaign {
            runner: Runner::new(machine).with_threads(THREADS),
            programs,
            plan: MeasurementPlan::all_events(REPETITIONS, seed),
            build_ns,
            reference: Vec::new(),
            accesses: Vec::new(),
        })
    }
}

impl Bench for EvselCampaign {
    fn nominal_pass_s(&self) -> f64 {
        2.2
    }

    fn build_ns(&self) -> u64 {
        self.build_ns
    }

    fn prepare(&mut self, mut trace: Option<&mut Layers>) -> Result<(), String> {
        let plan = &self.plan;
        for program in &self.programs {
            let before = Telemetry::now();
            let started = Instant::now();
            let set = measure_batched(
                self.runner.sim(),
                program,
                &plan.events,
                plan.repetitions,
                plan.base_seed,
                &plan.pmu,
            )?;
            let wall = ns_since(started);
            self.reference.push(digest(&set.runs));
            if let Some(layers) = trace.as_deref_mut() {
                let d = Telemetry::now().since(before);
                layers.counters_self_ns += self_ns(wall, d.sim_ns);
                layers.runs_per_repetition = d.sim_runs / plan.repetitions as u64;
                let run = self
                    .runner
                    .sim()
                    .run(program, plan.base_seed)
                    .map_err(|e| format!("invalid program: {e}"))?;
                self.accesses.push(accesses(&run));
            }
        }
        Ok(())
    }

    fn pass(&mut self, log: &mut Log, mut trace: Option<&mut Layers>) {
        for (k, program) in self.programs.iter().enumerate() {
            let before = Telemetry::now();
            let started = Instant::now();
            let result = self.runner.measure_program(program, &self.plan);
            let wall = ns_since(started);
            log.record(
                wall as f64 / 1e3,
                matches!(&result, Ok(set) if digest(&set.runs) == self.reference[k]),
            );
            if let (Some(layers), Ok(set)) = (trace.as_deref_mut(), &result) {
                let d = Telemetry::now().since(before);
                let runs_per_rep = d.sim_runs / self.plan.repetitions as u64;
                layers.sim_ns += d.sim_ns;
                layers.sim_accesses += d.sim_runs * self.accesses[k];
                layers.runs += d.sim_runs;
                layers.sim_cycles += set.runs.iter().map(|m| m.cycles).sum::<u64>() * runs_per_rep;
                layers.task_ns += d.rep_ns;
                layers.pool_capacity_ns += wall * THREADS as u64;
                layers.idle_ns += d.idle_ns;
                layers.tasks += d.tasks;
            }
        }
    }
}

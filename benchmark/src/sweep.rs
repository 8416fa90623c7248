//! `pattern-sweep`: the 24 labelled registry workloads on the quiet
//! two-socket preset at two simulated threads, each run, analysed for
//! priors, derived and classified, fanned over a pool of two.
//!
//! Static analysis dominates (the sift kernels' priors above all);
//! acquisition does nothing.

use crate::layers::Layers;
use crate::measure::{accesses, ns_since, Log, Telemetry};
use crate::{Bench, THREADS};
use np_parallel::{Pool, PoolConfig};
use np_patterns::verify::{sweep_machines, sweep_size};
use np_patterns::{classify, derive, fired_names, Indicators};
use np_simulator::{MachineConfig, MachineSim, Program};
use np_workloads::registry;
use std::time::Instant;

/// One classified case with its layer timings.
#[derive(Debug, Default)]
struct Case {
    ns: u64,
    matched: bool,
    sim_ns: u64,
    accesses: u64,
    cycles: u64,
    priors_ns: u64,
    ops: u64,
    classify_ns: u64,
}

/// The sweep fixture.
pub struct PatternSweep {
    config: MachineConfig,
    sim: MachineSim,
    pool: Pool,
    seed: u64,
    /// `(program, registry label)` per case.
    cases: Vec<(Program, Vec<String>)>,
    build_ns: u64,
}

impl PatternSweep {
    /// Generates the 24 registry programs and constructs the simulator.
    pub fn setup(seed: u64) -> Result<Self, String> {
        let (_, config) = sweep_machines()
            .into_iter()
            .next()
            .ok_or("no sweep machine")?;
        let started = Instant::now();
        let cases = registry::NAMES
            .iter()
            .map(|&name| {
                let program =
                    registry::build(name, sweep_size(name), THREADS, &config)?.build(&config);
                let label = registry::expected_patterns(name)
                    .ok_or_else(|| format!("{name} has no registry label"))?
                    .iter()
                    .map(|s| s.to_string())
                    .collect();
                Ok((program, label))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let build_ns = ns_since(started);
        Ok(PatternSweep {
            sim: MachineSim::new(config.clone()),
            config,
            // One case per chunk keeps `par.tasks` an exact count.
            pool: Pool::with_config(PoolConfig {
                threads: THREADS,
                chunk_size: Some(1),
                ..PoolConfig::default()
            }),
            seed,
            cases,
            build_ns,
        })
    }

    /// Run, priors, derive and classify for one case.
    fn case(&self, i: usize) -> Case {
        let (program, label) = &self.cases[i];
        let started = Instant::now();
        let Ok(run) = self.sim.run(program, self.seed) else {
            return Case::default();
        };
        let sim_ns = ns_since(started);
        let t = Instant::now();
        let priors = np_analysis::priors(program, &self.config);
        let priors_ns = ns_since(t);
        let t = Instant::now();
        let indicators = Indicators::from_run(&run, &self.config.topology);
        let verdicts = classify(&derive(&indicators), Some(&priors));
        let classify_ns = ns_since(t);
        Case {
            ns: ns_since(started),
            matched: fired_names(&verdicts) == *label,
            sim_ns,
            accesses: accesses(&run),
            cycles: run.cycles,
            priors_ns,
            ops: program.total_ops() as u64,
            classify_ns,
        }
    }
}

impl Bench for PatternSweep {
    fn nominal_pass_s(&self) -> f64 {
        7.5
    }

    fn build_ns(&self) -> u64 {
        self.build_ns
    }

    fn prepare(&mut self, _trace: Option<&mut Layers>) -> Result<(), String> {
        // The registry labels are the reference; nothing to compute.
        Ok(())
    }

    fn pass(&mut self, log: &mut Log, trace: Option<&mut Layers>) {
        let before = Telemetry::now();
        let started = Instant::now();
        let cases = self.pool.run(self.cases.len(), |i| self.case(i));
        let wall = ns_since(started);
        for case in &cases {
            log.record(case.ns as f64 / 1e3, case.matched);
        }
        if let Some(layers) = trace {
            let d = Telemetry::now().since(before);
            for case in &cases {
                layers.sim_ns += case.sim_ns;
                layers.sim_accesses += case.accesses;
                layers.runs += 1;
                layers.sim_cycles += case.cycles;
                layers.priors_ns += case.priors_ns;
                layers.priors_ops += case.ops;
                layers.classify.add(case.classify_ns);
                layers.labels_recovered += u64::from(case.matched);
                layers.task_ns += case.ns;
            }
            layers.pool_capacity_ns += wall * THREADS as u64;
            layers.idle_ns += d.idle_ns;
            layers.tasks += d.tasks;
        }
    }
}

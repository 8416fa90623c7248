//! `memhist-profile`: Memhist's pooled threshold ladder and its cycling
//! histogram on five programs, then Phasenprüfer's phase split on two.
//!
//! The only workload on the *observed* simulation path (PEBS per-load
//! callbacks, the timeslice recorder) and on the segmented fit.

use crate::layers::Layers;
use crate::measure::{accesses, digest, ns_since, self_ns, Log, Telemetry};
use crate::{Bench, THREADS};
use np_core::memhist::Memhist;
use np_core::phasen::Phasenpruefer;
use np_counters::catalog::{EventCatalog, EventId};
use np_parallel::Pool;
use np_simulator::{MachineSim, Program};
use np_workloads::registry;
use std::time::Instant;

/// Programs Memhist profiles: registry name and size override.
pub const MEMHIST_PROGRAMS: [(&str, Option<usize>); 5] = [
    ("mlc-local", None),
    ("mlc-remote", None),
    ("chase-large", None),
    ("bfs", Some(16384)),
    ("stream-bound", None),
];

/// Programs Phasenprüfer splits.
pub const PHASE_PROGRAMS: [&str; 2] = ["chrome", "bsp"];

/// Digests one input must reproduce, from the sequential reference paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Expected {
    ladder: u64,
    cycling: u64,
}

/// Per-run simulated work of one program, for the traced counts.
#[derive(Debug, Clone, Copy, Default)]
struct Work {
    accesses: u64,
    cycles: u64,
}

/// The profile fixture.
pub struct MemhistProfile {
    sim: MachineSim,
    pool: Pool,
    memhist: Memhist,
    phasen: Phasenpruefer,
    events: Vec<EventId>,
    seed: u64,
    histograms: Vec<Program>,
    phases: Vec<Program>,
    build_ns: u64,
    expected: Vec<Expected>,
    /// Digest of each phase program's `detect` report.
    expected_phases: Vec<u64>,
    work: Vec<Work>,
    phase_work: Vec<Work>,
}

impl MemhistProfile {
    /// Generates the programs and constructs the simulator.
    pub fn setup(seed: u64) -> Result<Self, String> {
        Self::with_programs(seed, &MEMHIST_PROGRAMS, &PHASE_PROGRAMS)
    }

    /// A profile over explicit programs (tests use small ones).
    pub fn with_programs(
        seed: u64,
        histograms: &[(&str, Option<usize>)],
        phases: &[&str],
    ) -> Result<Self, String> {
        let machine = np_bench::harness::runner::resolve_machine("two-socket")?;
        let started = Instant::now();
        let build = |name: &str, size| -> Result<Program, String> {
            Ok(registry::build(name, size, THREADS, &machine)?.build(&machine))
        };
        let histograms = histograms
            .iter()
            .map(|&(name, size)| build(name, size))
            .collect::<Result<Vec<_>, String>>()?;
        let phases = phases
            .iter()
            .map(|&name| build(name, None))
            .collect::<Result<Vec<_>, String>>()?;
        let build_ns = ns_since(started);
        Ok(MemhistProfile {
            sim: MachineSim::new(machine),
            pool: Pool::new(THREADS),
            memhist: Memhist::with_defaults(),
            phasen: Phasenpruefer::default(),
            events: EventCatalog::builtin().ids(),
            seed,
            histograms,
            phases,
            build_ns,
            expected: Vec::new(),
            expected_phases: Vec::new(),
            work: Vec::new(),
            phase_work: Vec::new(),
        })
    }

    /// Corrupts the first expected digest, so every later ladder of that
    /// program counts as a mismatch (tests only).
    #[cfg(test)]
    pub fn corrupt_reference(&mut self) {
        self.expected[0].ladder ^= 1;
    }
}

impl Bench for MemhistProfile {
    fn nominal_pass_s(&self) -> f64 {
        2.0
    }

    fn build_ns(&self) -> u64 {
        self.build_ns
    }

    fn prepare(&mut self, mut trace: Option<&mut Layers>) -> Result<(), String> {
        // The sequential reference paths; the cycling histogram is
        // sequential already, so its first result is its own reference.
        for program in &self.histograms {
            let mut memhist_ns = 0;
            let before = Telemetry::now();
            let started = Instant::now();
            let ladder = self.memhist.measure_ladder(&self.sim, program, self.seed);
            memhist_ns += self_ns(ns_since(started), Telemetry::now().since(before).sim_ns);
            let before = Telemetry::now();
            let started = Instant::now();
            let cycling = self.memhist.measure(&self.sim, program, self.seed);
            memhist_ns += self_ns(ns_since(started), Telemetry::now().since(before).sim_ns);
            self.expected.push(Expected {
                ladder: digest(&ladder),
                cycling: digest(&cycling),
            });
            if let Some(layers) = trace.as_deref_mut() {
                layers.memhist_self_ns += memhist_ns;
                let run = self
                    .sim
                    .run(program, self.seed)
                    .map_err(|e| format!("invalid program: {e}"))?;
                self.work.push(Work {
                    accesses: accesses(&run),
                    cycles: run.cycles,
                });
            }
        }
        for program in &self.phases {
            let run = self
                .sim
                .run(program, self.seed)
                .map_err(|e| format!("invalid phase program: {e}"))?;
            let started = Instant::now();
            let report = self
                .phasen
                .detect(&run.footprint)
                .ok_or("no phase split in the reference footprint")?;
            if let Some(layers) = trace.as_deref_mut() {
                layers.segmented_fit_ns += ns_since(started);
                self.phase_work.push(Work {
                    accesses: accesses(&run),
                    cycles: run.cycles,
                });
            }
            self.expected_phases.push(digest(&report));
        }
        Ok(())
    }

    fn pass(&mut self, log: &mut Log, mut trace: Option<&mut Layers>) {
        let observed = |trace: Option<&mut Layers>, before: Telemetry, work: Work| {
            if let Some(layers) = trace {
                let d = Telemetry::now().since(before);
                layers.observed_ns += d.sim_ns;
                layers.observed_accesses += d.sim_runs * work.accesses;
                layers.runs += d.sim_runs;
                layers.sim_cycles += d.sim_runs * work.cycles;
                d
            } else {
                Telemetry::default()
            }
        };
        for (i, program) in self.histograms.iter().enumerate() {
            let work = self.work.get(i).copied().unwrap_or_default();
            let before = Telemetry::now();
            let started = Instant::now();
            let ladder = self
                .memhist
                .measure_ladder_pool(&self.sim, program, self.seed, &self.pool);
            let wall = ns_since(started);
            log.record(
                wall as f64 / 1e3,
                digest(&ladder) == self.expected[i].ladder,
            );
            let d = observed(trace.as_deref_mut(), before, work);
            if let Some(layers) = trace.as_deref_mut() {
                layers.task_ns += d.sim_ns;
                layers.pool_capacity_ns += wall * THREADS as u64;
                layers.idle_ns += d.idle_ns;
                layers.tasks += d.tasks;
            }

            let before = Telemetry::now();
            let started = Instant::now();
            let cycling = self.memhist.measure(&self.sim, program, self.seed);
            log.frame(started, digest(&cycling) == self.expected[i].cycling);
            observed(trace.as_deref_mut(), before, work);
        }
        for (j, program) in self.phases.iter().enumerate() {
            let work = self.phase_work.get(j).copied().unwrap_or_default();
            let before = Telemetry::now();
            let started = Instant::now();
            let split = self
                .phasen
                .measure(&self.sim, program, self.seed, &self.events);
            log.frame(
                started,
                split.is_some_and(|(report, _)| digest(&report) == self.expected_phases[j]),
            );
            observed(trace.as_deref_mut(), before, work);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(seed: u64) -> MemhistProfile {
        let mut profile =
            MemhistProfile::with_programs(seed, &[("mlc-local", Some(1 << 16))], &[]).unwrap();
        profile.prepare(None).unwrap();
        profile
    }

    #[test]
    fn pooled_ladder_matches_the_sequential_reference() {
        let mut profile = tiny(3);
        let mut log = Log::default();
        profile.pass(&mut log, None);
        assert_eq!((log.attempted, log.failed), (2, 0));
    }

    #[test]
    fn an_injected_digest_mismatch_raises_the_error_rate() {
        let mut profile = tiny(3);
        profile.corrupt_reference();
        let mut log = Log::default();
        profile.pass(&mut log, None);
        assert_eq!((log.attempted, log.failed), (2, 1));
        assert_eq!(log.error_rate(), 0.5);
    }
}

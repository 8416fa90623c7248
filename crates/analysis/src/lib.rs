//! # np-analysis — static code-to-indicator analysis
//!
//! The paper's central move is mapping *code* to *hardware indicators* by
//! running it and reading counters. This crate supplies the static half of
//! that mapping, plus workspace hygiene:
//!
//! - [`cfg`] — per-thread basic-block CFGs over the sim IR.
//! - [`barrier`] — barrier-matching / deadlock detection (sound *and*
//!   complete against the engine's lockstep release rule).
//! - [`race`] — happens-before data-race detection over barrier
//!   supersteps.
//! - [`bounds`] — per-event static envelopes `[min, max]` that every
//!   dynamic run must fall into, validated differentially in CI.
//! - [`lexer`] — the blanking lexer (comments/strings/`cfg(test)`
//!   removed) that [`audit`] scans over.
//! - [`audit`] — the workspace's static source analyzer for the
//!   cross-crate invariants the type system cannot express: a per-file
//!   item/fn index and an approximate workspace call graph feed rules for
//!   lock-order cycles, condvar discipline, atomics orderings, hot-path
//!   hygiene, unsafe inventory, panic reachability, bounded socket reads,
//!   guarded telemetry and wall-clock-free deterministic code (JSON +
//!   SARIF output); an inline `// audit:allow(<rule>)` is the only waiver.
//! - [`sweep`] — the analysis fanned over many programs on an np-parallel
//!   pool, in input order (the differential-envelope sweep of `np
//!   analyze --all`).
//!
//! Everything is deterministic; the only dependencies are `np_simulator`
//! (the IR under analysis) and `np_parallel` (the deterministic pool the
//! sweep fans out on).

pub mod audit;
pub mod barrier;
pub mod bounds;
pub mod cfg;
pub mod lexer;
pub mod race;
pub mod sweep;

pub use audit::{audit_sources, audit_workspace, AuditFinding, AuditReport};
pub use barrier::{check_barriers, DeadlockReport};
pub use bounds::{compute as compute_bounds, priors, EventBound, EventPrior, Priors, StaticBounds};
pub use cfg::{Block, ProgramCfg, ThreadCfg};
pub use race::{find_races, RaceFinding};
pub use sweep::analyze_many;

use np_simulator::config::MachineConfig;
use np_simulator::program::{Program, ValidateError};

/// The full static analysis of one program on one machine model.
#[derive(Debug, Clone)]
pub struct ProgramAnalysis {
    /// Structural validation outcome (typed, from `np_simulator`).
    pub validate: Result<(), ValidateError>,
    /// Barrier release order, or the deadlocked frontier.
    pub barriers: Result<Vec<u32>, DeadlockReport>,
    /// Unordered conflicting access pairs.
    pub races: Vec<RaceFinding>,
    /// Static event envelopes.
    pub bounds: StaticBounds,
    /// Basic-block count (program shape, for reports).
    pub block_count: usize,
}

impl ProgramAnalysis {
    /// Whether the program is safe to run: valid, deadlock-free, race-free.
    pub fn is_clean(&self) -> bool {
        self.validate.is_ok() && self.barriers.is_ok() && self.races.is_empty()
    }
}

/// Runs every static pass over `program` for `config`'s machine model.
pub fn analyze(program: &Program, config: &MachineConfig) -> ProgramAnalysis {
    let cfg = ProgramCfg::build(program);
    ProgramAnalysis {
        validate: program.validate(&config.topology),
        barriers: check_barriers(&cfg),
        races: find_races(program, &cfg),
        bounds: bounds::compute(program, config),
        block_count: cfg.block_count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_simulator::program::ProgramBuilder;
    use np_simulator::AllocPolicy;

    #[test]
    fn clean_program_passes_every_check() {
        let cfg = MachineConfig::two_socket_small();
        let mut b = ProgramBuilder::new(&cfg.topology, cfg.page_bytes);
        let buf = b.alloc(1 << 14, AllocPolicy::Interleave);
        let t0 = b.add_thread(0);
        let t1 = b.add_thread(4);
        b.store(t0, buf);
        b.barrier(t0, 1);
        b.barrier(t1, 1);
        b.load(t1, buf);
        let analysis = analyze(&b.build(), &cfg);
        assert!(analysis.is_clean());
        assert_eq!(analysis.barriers.unwrap(), vec![1]);
        assert_eq!(analysis.block_count, 3);
    }

    #[test]
    fn racy_program_is_not_clean() {
        let cfg = MachineConfig::two_socket_small();
        let mut b = ProgramBuilder::new(&cfg.topology, cfg.page_bytes);
        let buf = b.alloc(4096, AllocPolicy::FirstTouch);
        let t0 = b.add_thread(0);
        let t1 = b.add_thread(1);
        b.store(t0, buf);
        b.store(t1, buf);
        let analysis = analyze(&b.build(), &cfg);
        assert!(!analysis.is_clean());
        assert_eq!(analysis.races.len(), 1);
    }
}

//! Static event-bound analysis: the static half of the paper's
//! code-to-indicator step.
//!
//! For a `(Program, MachineConfig)` pair this pass computes, per hardware
//! indicator, a **sound envelope** `[min, max]` that every dynamic count
//! from `np_simulator::engine` must fall into, for every seed. Bounds are
//! derived from program structure alone: retirement counts are exact,
//! placement-dependent events (local/remote DRAM) come from
//! `AllocPolicy` × thread pinning, dTLB bounds from per-flush-segment
//! working sets against the set-associative TLB geometry, and
//! noise-dependent events (interrupts, cycles) from a fixed-point over the
//! timer-interrupt feedback loop. Where the microarchitectural state space
//! makes a tight bound unsound (cache hit ratios, queueing), the envelope
//! is deliberately loose rather than wrong — the differential tests in
//! this crate and the workspace run the engine inside the envelope on
//! every CI pass, so any drift between this model and `engine.rs`
//! accounting fails the suite.
//!
//! Cost/occupancy constants (reserve = 150 instructions + 600 cycles per
//! page, release = 50/200, TLB-shootdown = 200 cycles, barrier release
//! = +100 cycles, prefetch degree = 2) mirror `engine.rs`.

use std::collections::{HashMap, HashSet};

use np_simulator::config::MachineConfig;
use np_simulator::event::HwEvent;
use np_simulator::program::{Op, Program};
use np_simulator::tlb::Tlb;

/// Inclusive lower / upper bound on one event's machine-wide total.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventBound {
    /// Smallest total any run can produce.
    pub min: u64,
    /// Largest total any run can produce; `None` when no finite static
    /// bound exists (timer interrupts can outpace forward progress).
    pub max: Option<u64>,
}

impl EventBound {
    fn exact(v: u64) -> Self {
        EventBound {
            min: v,
            max: Some(v),
        }
    }

    fn range(min: u64, max: u64) -> Self {
        EventBound {
            min,
            max: Some(max),
        }
    }

    /// Whether an observed total falls inside the envelope.
    pub fn contains(&self, observed: u64) -> bool {
        observed >= self.min && self.max.is_none_or(|m| observed <= m)
    }
}

impl std::fmt::Display for EventBound {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.max {
            Some(m) if m == self.min => write!(f, "= {m}"),
            Some(m) => write!(f, "[{}, {m}]", self.min),
            None => write!(f, "[{}, ∞)", self.min),
        }
    }
}

/// Static envelopes for every bounded event, plus the wall-clock bound.
#[derive(Debug, Clone)]
pub struct StaticBounds {
    bounds: [Option<EventBound>; HwEvent::COUNT],
    /// Bound on `RunResult::cycles` (the slowest thread's clock).
    pub wall_cycles: EventBound,
}

impl StaticBounds {
    /// The envelope for `event`, if this pass derives one.
    pub fn get(&self, event: HwEvent) -> Option<EventBound> {
        self.bounds[event.index()]
    }

    /// Iterates `(event, bound)` in `HwEvent::ALL` order.
    pub fn iter(&self) -> impl Iterator<Item = (HwEvent, EventBound)> + '_ {
        HwEvent::ALL
            .iter()
            .filter_map(move |e| self.bounds[e.index()].map(|b| (*e, b)))
    }

    /// Differential check: every machine-wide total (in `HwEvent::ALL`
    /// order) and the wall clock must fall inside their envelopes. Returns
    /// one message per violation — empty means the run is inside the
    /// static envelope.
    pub fn check(&self, totals: &[u64; HwEvent::COUNT], wall_cycles: u64) -> Vec<String> {
        let mut violations = Vec::new();
        for (event, bound) in self.iter() {
            let observed = totals[event.index()];
            if !bound.contains(observed) {
                violations.push(format!(
                    "{}: observed {} outside static bound {}",
                    event.name(),
                    observed,
                    bound
                ));
            }
        }
        if !self.wall_cycles.contains(wall_cycles) {
            violations.push(format!(
                "wall cycles: observed {} outside static bound {}",
                wall_cycles, self.wall_cycles
            ));
        }
        violations
    }
}

/// Everything the two walks over the op streams accumulate.
#[derive(Debug, Default)]
struct Tally {
    loads: u64,
    stores: u64,
    branches: u64,
    exec_instructions: u64,
    reserve_pages: u64,
    releases: u64,
    barriers: u64,
    /// Cold-start + post-flush compulsory dTLB misses (lower bound).
    dtlb_min: u64,
    /// Conflict-aware dTLB miss upper bound.
    dtlb_max: u64,
    /// Accesses whose page may live on a node other than the accessor's.
    remote_candidates: u64,
    /// Accesses whose page may live on the accessor's own node.
    local_candidates: u64,
    /// First-touch-per-thread-per-line misses (L1 lower bound, prefetch
    /// off).
    distinct_lines_per_thread: u64,
    /// Distinct cache lines touched machine-wide.
    distinct_lines_machine: u64,
    /// Accesses to lines that some *other* thread stores (HITM ceiling).
    hitm_candidates: u64,
    /// Σ over lines of stores(line) × (touching threads − 1).
    invalidation_ceiling: u64,
    /// Σ per-thread serial minimum cost (barriers at +100 each).
    wall_min: u64,
    /// Σ over threads of serial maximum cost, excluding barrier releases.
    work_max: u64,
    /// Σ per-thread minimum clock at the last counter update (the engine
    /// records `Cycles` after every non-barrier op only).
    cycles_event_min: u64,
}

/// Computes sound static bounds for every run of `program` on `config`.
pub fn compute(program: &Program, config: &MachineConfig) -> StaticBounds {
    let tally = walk(program, config);
    assemble(program, config, &tally)
}

/// One event's envelope packaged as a classifier prior: the bound plus a
/// deterministic certainty score.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventPrior {
    /// The static envelope for the event.
    pub bound: EventBound,
    /// How much the static pass pins the event down, in per-mille: 1000
    /// for an exact count, falling toward 0 as the envelope widens
    /// relative to its upper end, 0 when no finite upper bound exists.
    pub certainty_pm: u64,
}

impl EventBound {
    /// Where `observed` falls inside the envelope, in per-mille of the
    /// envelope width (clamped to `[0, 1000]`). `None` when the envelope
    /// is unbounded above; an exact envelope reports the midpoint.
    pub fn position_pm(&self, observed: u64) -> Option<u64> {
        let max = self.max?;
        if max <= self.min {
            return Some(500);
        }
        let clamped = observed.clamp(self.min, max);
        Some((clamped - self.min) * 1000 / (max - self.min))
    }

    /// The certainty score of [`EventPrior`]: tight envelopes are
    /// informative priors, wide or unbounded ones are not.
    pub fn certainty_pm(&self) -> u64 {
        match self.max {
            None => 0,
            Some(0) => 1000,
            Some(max) => 1000 - (max - self.min) * 1000 / max,
        }
    }
}

/// The classifier-facing view of the static envelopes.
///
/// `np-patterns` blends these priors into its verdict confidence instead
/// of re-deriving envelopes from the op stream; any other consumer that
/// wants "how sure is the static pass about event X" should use this
/// rather than [`StaticBounds::iter`].
#[derive(Debug, Clone, Default)]
pub struct Priors {
    entries: Vec<(HwEvent, EventPrior)>,
}

impl Priors {
    /// The prior for `event`, if the static pass derives one.
    pub fn get(&self, event: HwEvent) -> Option<EventPrior> {
        self.entries
            .iter()
            .find(|(e, _)| *e == event)
            .map(|(_, p)| *p)
    }

    /// Iterates `(event, prior)` in `HwEvent::ALL` order.
    pub fn iter(&self) -> impl Iterator<Item = (HwEvent, EventPrior)> + '_ {
        self.entries.iter().copied()
    }
}

/// Packages the static envelopes of `program` on `config` as priors.
pub fn priors(program: &Program, config: &MachineConfig) -> Priors {
    let bounds = compute(program, config);
    Priors {
        entries: bounds
            .iter()
            .map(|(event, bound)| {
                (
                    event,
                    EventPrior {
                        bound,
                        certainty_pm: bound.certainty_pm(),
                    },
                )
            })
            .collect(),
    }
}

/// Per-op minimum cost in cycles (barrier = minimum release bump).
fn op_min_cost(op: &Op, config: &MachineConfig) -> u64 {
    let lat = &config.latency;
    let issue = config.core.issue_cost;
    match op {
        Op::Exec(n) => *n as u64 * issue,
        Op::Branch { .. } => issue,
        Op::Reserve(bytes) => bytes.div_ceil(config.page_bytes).max(1) * 600,
        Op::Release(_) => 200,
        Op::TlbFlush => 200,
        Op::Barrier(_) => 100,
        Op::Label(_) => 0,
        Op::Store { .. } => issue,
        Op::Load { addr: _, dependent } => {
            if *dependent {
                // Best case: L1 hit with no page walk; jitter can push DRAM
                // below its base, so include its floor too.
                let dram_floor = jitter_floor(lat.local_dram, config.noise.dram_jitter);
                lat.l1_hit
                    .min(lat.l2_hit)
                    .min(lat.l3_hit)
                    .min(lat.hitm_local)
                    .min(lat.hitm_remote)
                    .min(dram_floor)
            } else {
                // L1 hit = issue; L2 hit = l2_hit; overlapped miss = issue+1.
                issue.min(lat.l2_hit).min(issue + 1)
            }
        }
    }
}

/// Per-op maximum cost in cycles, excluding barrier releases and timer
/// interrupts (both accounted globally). `mem_op_max` is the precomputed
/// worst case of one memory access.
fn op_max_cost(op: &Op, config: &MachineConfig, mem_op_max: u64) -> u64 {
    let issue = config.core.issue_cost;
    match op {
        Op::Exec(n) => *n as u64 * issue,
        Op::Branch { .. } => issue + config.latency.branch_miss_penalty,
        Op::Reserve(bytes) => bytes.div_ceil(config.page_bytes).max(1) * 600,
        Op::Release(_) => 200,
        Op::TlbFlush => 200,
        Op::Barrier(_) | Op::Label(_) => 0,
        Op::Store { .. } | Op::Load { .. } => mem_op_max,
    }
}

/// Conservative floor of a jittered DRAM latency: the engine draws a
/// factor in `[1 − 0.5·rel, 1 + rel)` and rounds, clamping at 1.
fn jitter_floor(base: u64, rel: f64) -> u64 {
    if rel <= 0.0 {
        return base;
    }
    (((base as f64) * (1.0 - 0.5 * rel)).floor() as u64)
        .saturating_sub(1)
        .max(1)
}

/// Conservative ceiling of a jittered DRAM latency.
fn jitter_ceiling(base: u64, rel: f64) -> u64 {
    if rel <= 0.0 {
        return base;
    }
    ((base as f64) * (1.0 + rel)).ceil() as u64 + 1
}

fn walk(program: &Program, config: &MachineConfig) -> Tally {
    let mut t = Tally::default();
    let line_bytes = config.l1d.line_bytes as u64;
    let page_bytes = config.page_bytes;
    let topo = &config.topology;

    // Pass 1 (global): which threads touch / store each line, and which
    // nodes may end up owning each not-yet-pinned (first-touch) page.
    let mut line_touchers: HashMap<u64, HashSet<usize>> = HashMap::new();
    let mut line_writers: HashMap<u64, HashSet<usize>> = HashMap::new();
    let mut line_stores: HashMap<u64, u64> = HashMap::new();
    let mut page_toucher_nodes: HashMap<u64, HashSet<usize>> = HashMap::new();
    for (ti, thread) in program.threads().iter().enumerate() {
        let node = topo.node_of_core(thread.core());
        for op in thread.ops() {
            let (addr, is_store) = match op {
                Op::Load { addr, .. } => (addr, false),
                Op::Store { addr } => (addr, true),
                _ => continue,
            };
            let line = addr / line_bytes;
            line_touchers.entry(line).or_default().insert(ti);
            if is_store {
                line_writers.entry(line).or_default().insert(ti);
                *line_stores.entry(line).or_default() += 1;
            }
            let page = addr / page_bytes;
            if program.space().node_of_page(page).is_none() {
                page_toucher_nodes.entry(page).or_default().insert(node);
            }
        }
    }
    t.distinct_lines_machine = line_touchers.len() as u64;
    for (line, stores) in &line_stores {
        let touchers = line_touchers[line].len() as u64;
        t.invalidation_ceiling = t
            .invalidation_ceiling
            .saturating_add(stores.saturating_mul(touchers.saturating_sub(1)));
    }

    // Worst case of a single memory access, for the serial max bound:
    // page walk + RFO + MSHR wait + DRAM under full IMC queueing, each
    // bounded independently of the clock.
    let total_accesses: u64 = program
        .threads()
        .iter()
        .flat_map(|th| th.ops())
        .filter(|op| matches!(op, Op::Load { .. } | Op::Store { .. }))
        .count() as u64;
    let lat = &config.latency;
    let prefetch_degree: u64 = if config.prefetch_enabled { 2 } else { 0 };
    let imc_queue_max = total_accesses
        .saturating_mul(1 + prefetch_degree)
        .saturating_add(1)
        .saturating_mul(lat.imc_service);
    let dram_max = jitter_ceiling(
        config.dram_latency(topo.diameter()),
        config.noise.dram_jitter,
    );
    let l_inf = lat
        .page_walk
        .saturating_add(lat.hitm_remote.max(dram_max.saturating_add(imc_queue_max)));
    let mem_op_max = config
        .core
        .issue_cost
        .saturating_add(lat.hitm_remote)
        .saturating_add(l_inf.saturating_mul(3))
        .saturating_add(lat.page_walk);

    // Pass 2 (per thread): counts, dTLB segments, candidates, cost sums.
    for thread in program.threads() {
        let node = topo.node_of_core(thread.core());
        let mut seg_pages: HashSet<u64> = HashSet::new();
        let mut seg_accesses: u64 = 0;
        let mut thread_lines: HashSet<u64> = HashSet::new();
        let mut serial_min: u64 = 0;
        let mut serial_max: u64 = 0;
        let mut last_counter_update: u64 = 0;
        let close_segment = |pages: &mut HashSet<u64>, accesses: &mut u64, t: &mut Tally| {
            let distinct = pages.len() as u64;
            t.dtlb_min += distinct;
            t.dtlb_max +=
                if Tlb::fits_without_evictions(config.core.dtlb_entries, pages.iter().copied()) {
                    distinct
                } else {
                    *accesses
                };
            pages.clear();
            *accesses = 0;
        };
        for op in thread.ops() {
            serial_min += op_min_cost(&op, config);
            serial_max = serial_max.saturating_add(op_max_cost(&op, config, mem_op_max));
            match op {
                Op::Load { addr, .. } | Op::Store { addr } => {
                    if matches!(op, Op::Store { .. }) {
                        t.stores += 1;
                    } else {
                        t.loads += 1;
                    }
                    seg_pages.insert(addr / page_bytes);
                    seg_accesses += 1;
                    let line = addr / line_bytes;
                    thread_lines.insert(line);
                    let page = addr / page_bytes;
                    match program.space().node_of_page(page) {
                        Some(home) => {
                            if home == node {
                                t.local_candidates += 1;
                            } else {
                                t.remote_candidates += 1;
                            }
                        }
                        None => {
                            // First-touch: any toucher node may win the
                            // race to place the page. The accessor itself
                            // is always a candidate, so the access is never
                            // definitely remote.
                            t.local_candidates += 1;
                            let touchers = &page_toucher_nodes[&page];
                            if touchers.iter().any(|&n| n != node) {
                                t.remote_candidates += 1;
                            }
                        }
                    }
                }
                Op::TlbFlush => close_segment(&mut seg_pages, &mut seg_accesses, &mut t),
                Op::Exec(n) => t.exec_instructions += n as u64,
                Op::Branch { .. } => t.branches += 1,
                Op::Barrier(_) => t.barriers += 1,
                Op::Reserve(bytes) => {
                    t.reserve_pages += bytes.div_ceil(page_bytes).max(1);
                }
                Op::Release(_) => t.releases += 1,
                Op::Label(_) => {}
            }
            if !matches!(op, Op::Barrier(_)) {
                last_counter_update = serial_min;
            }
        }
        close_segment(&mut seg_pages, &mut seg_accesses, &mut t);
        t.distinct_lines_per_thread += thread_lines.len() as u64;
        t.wall_min = t.wall_min.max(serial_min);
        t.work_max = t.work_max.saturating_add(serial_max);
        t.cycles_event_min += last_counter_update;
    }

    // HITM ceiling: accesses to lines some other thread stores.
    for (ti, thread) in program.threads().iter().enumerate() {
        for op in thread.ops() {
            let addr = match op {
                Op::Load { addr, .. } | Op::Store { addr } => addr,
                _ => continue,
            };
            if let Some(writers) = line_writers.get(&(addr / line_bytes)) {
                if writers.iter().any(|&w| w != ti) {
                    t.hitm_candidates += 1;
                }
            }
        }
    }
    t
}

fn assemble(program: &Program, config: &MachineConfig, t: &Tally) -> StaticBounds {
    let accesses = t.loads + t.stores;
    let threads = program.threads().len() as u64;
    let total_barriers: u64 = t.barriers;
    let base_instructions =
        accesses + t.exec_instructions + t.branches + 150 * t.reserve_pages + 50 * t.releases;

    // Timer-interrupt fixed point: the machine-wide max clock M satisfies
    // M ≤ work_max + 100·barriers + threads·ic·(M/interval + 1), because
    // every clock advance is one op's cost, one interrupt, or a barrier
    // release chaining to another thread's clock. Solvable only when one
    // interval outlasts one interrupt per thread.
    let noise = &config.noise;
    let base_wall_max = t
        .work_max
        .saturating_add(100u64.saturating_mul(total_barriers));
    let (wall_max, interrupts_max): (Option<u64>, Option<u64>) = if noise.timer_interval == 0 {
        (Some(base_wall_max), Some(0))
    } else {
        let drain = threads.saturating_mul(noise.interrupt_cycles);
        if noise.timer_interval > drain {
            let numer = (base_wall_max.saturating_add(drain)) as f64 * noise.timer_interval as f64;
            let denom = (noise.timer_interval - drain) as f64;
            // Padded for float slop; only an upper bound is needed.
            let m = ((numer / denom) * 1.001) as u64 + 1_000;
            let per_thread_fires = m / noise.timer_interval + 1;
            (Some(m), Some(threads.saturating_mul(per_thread_fires)))
        } else {
            (None, None)
        }
    };
    let cycles_max = wall_max.map(|m| m.saturating_mul(threads));

    let mut bounds: [Option<EventBound>; HwEvent::COUNT] = [None; HwEvent::COUNT];
    let mut set = |e: HwEvent, b: EventBound| bounds[e.index()] = Some(b);

    set(
        HwEvent::Instructions,
        EventBound {
            min: base_instructions,
            max: interrupts_max.map(|i| {
                base_instructions.saturating_add(i.saturating_mul(noise.interrupt_instructions))
            }),
        },
    );
    set(
        HwEvent::Cycles,
        EventBound {
            min: t.cycles_event_min,
            max: cycles_max,
        },
    );
    set(
        HwEvent::StallCycles,
        EventBound {
            min: 0,
            max: cycles_max,
        },
    );
    set(
        HwEvent::MemStallCycles,
        EventBound {
            min: 0,
            max: cycles_max,
        },
    );
    set(
        HwEvent::TimerInterrupt,
        EventBound {
            min: 0,
            max: interrupts_max,
        },
    );

    // Retirement counts are exact: the engine bumps them unconditionally
    // per op, independent of microarchitectural state.
    set(HwEvent::LoadRetired, EventBound::exact(t.loads));
    set(HwEvent::StoreRetired, EventBound::exact(t.stores));
    set(HwEvent::BranchRetired, EventBound::exact(t.branches));
    set(HwEvent::BranchMiss, EventBound::range(0, t.branches));
    set(HwEvent::PipelineFlush, EventBound::range(0, t.branches));
    set(
        HwEvent::SpecJumpsRetired,
        EventBound::range(
            t.branches,
            t.branches.saturating_mul(config.core.spec_window.max(1)),
        ),
    );

    // Exactly one of hit/miss per access; compulsory misses bound from
    // below when no prefetcher can pre-install lines.
    let l1_miss_min = if config.prefetch_enabled {
        0
    } else {
        t.distinct_lines_per_thread
    };
    set(HwEvent::L1dMiss, EventBound::range(l1_miss_min, accesses));
    set(
        HwEvent::L1dHit,
        EventBound::range(0, accesses - l1_miss_min),
    );
    set(HwEvent::L1dEvict, EventBound::range(0, accesses));

    set(HwEvent::L2Hit, EventBound::range(0, accesses));
    set(HwEvent::L2Miss, EventBound::range(0, accesses));
    let prefetch_degree: u64 = if config.prefetch_enabled { 2 } else { 0 };
    set(
        HwEvent::L2PrefetchReq,
        EventBound::range(0, accesses.saturating_mul(prefetch_degree)),
    );
    set(
        HwEvent::L2PrefetchHit,
        EventBound::range(0, if config.prefetch_enabled { accesses } else { 0 }),
    );

    set(HwEvent::L3Access, EventBound::range(0, accesses));
    set(HwEvent::L3Hit, EventBound::range(0, accesses));
    set(
        HwEvent::L3Miss,
        EventBound::range(0, accesses.saturating_mul(1 + prefetch_degree)),
    );

    set(HwEvent::FillBufferAlloc, EventBound::range(0, accesses));
    set(HwEvent::FillBufferReject, EventBound::range(0, accesses));

    // dTLB: cold-start and post-flush first touches must miss; the upper
    // bound is tight (== min) whenever the per-segment working set fits
    // the TLB's sets without conflict evictions. Timer interrupts pollute
    // the L1, never the TLB.
    set(HwEvent::DtlbMiss, EventBound::range(t.dtlb_min, t.dtlb_max));
    set(
        HwEvent::DtlbHit,
        EventBound::range(accesses - t.dtlb_max, accesses - t.dtlb_min),
    );
    set(
        HwEvent::PageWalkCycles,
        EventBound::range(
            t.dtlb_min * config.latency.page_walk,
            t.dtlb_max * config.latency.page_walk,
        ),
    );
    set(
        HwEvent::L1dLocked,
        EventBound::range(t.dtlb_min, t.dtlb_max),
    );

    // NUMA placement: candidates from AllocPolicy × pinning. A prefetcher
    // can pre-install any line, so demand DRAM minima are zero.
    set(
        HwEvent::LocalDramAccess,
        EventBound::range(0, t.local_candidates),
    );
    set(
        HwEvent::RemoteDramAccess,
        EventBound::range(0, t.remote_candidates),
    );

    // Coherence: a HITM needs a line another thread stores; invalidations
    // need sharers, which only touching threads can be.
    set(
        HwEvent::HitmTransfer,
        EventBound::range(0, t.hitm_candidates),
    );
    set(
        HwEvent::CoherenceInvalidation,
        EventBound::range(0, t.invalidation_ceiling),
    );
    set(
        HwEvent::SnoopRequest,
        EventBound::range(0, t.invalidation_ceiling.saturating_add(t.hitm_candidates)),
    );

    // Uncore: the first machine-wide fetch of every accessed line pays an
    // IMC read (demand or prefetch); HITM downgrades and dirty L2
    // evictions bound the writes.
    set(
        HwEvent::ImcRead,
        EventBound::range(
            t.distinct_lines_machine,
            accesses.saturating_mul(1 + prefetch_degree),
        ),
    );
    set(
        HwEvent::ImcWrite,
        EventBound::range(0, t.loads.saturating_add(accesses)),
    );

    // QPI: remote HITMs need threads on more than one node; remote DRAM
    // needs a remote-capable page.
    let span_multi = {
        let topo = &config.topology;
        let mut nodes: HashSet<usize> = HashSet::new();
        for th in program.threads() {
            nodes.insert(topo.node_of_core(th.core()));
        }
        nodes.len() > 1
    };
    let qpi_hitm = if span_multi { t.hitm_candidates } else { 0 };
    set(
        HwEvent::QpiTransfer,
        EventBound::range(0, qpi_hitm.saturating_add(t.remote_candidates)),
    );

    StaticBounds {
        bounds,
        wall_cycles: EventBound {
            min: t.wall_min,
            max: wall_max,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_simulator::program::ProgramBuilder;
    use np_simulator::topology::Topology;
    use np_simulator::{AllocPolicy, MachineSim};

    fn quiet_config() -> MachineConfig {
        let mut c = MachineConfig::two_socket_small();
        c.noise.timer_interval = 0;
        c.noise.dram_jitter = 0.0;
        c
    }

    fn check_run(program: &Program, config: &MachineConfig, seeds: &[u64]) -> StaticBounds {
        let bounds = compute(program, config);
        let sim = MachineSim::new(config.clone());
        for &seed in seeds {
            let result = sim.run(program, seed).expect("valid program");
            let violations = bounds.check(&result.counters.totals(), result.cycles);
            assert!(
                violations.is_empty(),
                "seed {seed}: {}",
                violations.join("; ")
            );
        }
        bounds
    }

    use np_simulator::program::Program;

    #[test]
    fn retirement_counts_are_exact() {
        let cfg = quiet_config();
        let mut b = ProgramBuilder::new(&cfg.topology, cfg.page_bytes);
        let buf = b.alloc(1 << 16, AllocPolicy::FirstTouch);
        let t0 = b.add_thread(0);
        for i in 0..100u64 {
            b.load(t0, buf + i * 8);
            b.store(t0, buf + i * 8);
        }
        b.exec(t0, 40);
        b.branch(t0, 1, true);
        let p = b.build();
        let bounds = check_run(&p, &cfg, &[1, 2, 3]);
        assert_eq!(
            bounds.get(HwEvent::LoadRetired).unwrap(),
            EventBound::exact(100)
        );
        assert_eq!(
            bounds.get(HwEvent::StoreRetired).unwrap(),
            EventBound::exact(100)
        );
        assert_eq!(
            bounds.get(HwEvent::Instructions).unwrap(),
            EventBound::exact(100 + 100 + 40 + 1)
        );
    }

    #[test]
    fn bind_remote_accesses_are_candidates() {
        let cfg = quiet_config();
        let mut b = ProgramBuilder::new(&cfg.topology, cfg.page_bytes);
        // Thread on node 0, buffer bound to node 1: all remote candidates.
        let buf = b.alloc(1 << 14, AllocPolicy::Bind(1));
        let t0 = b.add_thread(0);
        for i in 0..50u64 {
            b.load_dependent(t0, buf + i * 4096 % (1 << 14));
        }
        let p = b.build();
        let bounds = check_run(&p, &cfg, &[1, 7]);
        assert_eq!(
            bounds.get(HwEvent::LocalDramAccess).unwrap().max,
            Some(0),
            "node-1-bound pages can never be local to a node-0 thread"
        );
        assert_eq!(bounds.get(HwEvent::RemoteDramAccess).unwrap().max, Some(50));
    }

    #[test]
    fn single_thread_first_touch_is_never_remote() {
        let cfg = quiet_config();
        let mut b = ProgramBuilder::new(&cfg.topology, cfg.page_bytes);
        let buf = b.alloc(1 << 14, AllocPolicy::FirstTouch);
        let t0 = b.add_thread(0);
        for i in 0..32u64 {
            b.load(t0, buf + i * 512);
        }
        let p = b.build();
        let bounds = check_run(&p, &cfg, &[1]);
        assert_eq!(bounds.get(HwEvent::RemoteDramAccess).unwrap().max, Some(0));
    }

    #[test]
    fn tlb_flush_forces_compulsory_misses() {
        let cfg = quiet_config();
        let mut b = ProgramBuilder::new(&cfg.topology, cfg.page_bytes);
        let buf = b.alloc(8 * 4096, AllocPolicy::FirstTouch);
        let t0 = b.add_thread(0);
        for round in 0..3 {
            for p in 0..8u64 {
                b.load(t0, buf + p * 4096);
            }
            if round < 2 {
                b.tlb_flush(t0);
            }
        }
        let p = b.build();
        let bounds = check_run(&p, &cfg, &[1, 5]);
        // 8 pages × 3 flush segments, conflict-free → exact.
        assert_eq!(
            bounds.get(HwEvent::DtlbMiss).unwrap(),
            EventBound::exact(24)
        );
    }

    #[test]
    fn single_node_machine_has_no_remote_traffic() {
        let mut cfg = quiet_config();
        cfg.topology = Topology::fully_interconnected(1, 4, 1 << 30);
        let mut b = ProgramBuilder::new(&cfg.topology, cfg.page_bytes);
        let buf = b.alloc(1 << 14, AllocPolicy::Interleave);
        let t0 = b.add_thread(0);
        let t1 = b.add_thread(1);
        for i in 0..64u64 {
            b.store(t0, buf + i * 64);
            b.load(t1, buf + i * 64);
        }
        let p = b.build();
        let bounds = check_run(&p, &cfg, &[1, 2]);
        assert_eq!(bounds.get(HwEvent::RemoteDramAccess).unwrap().max, Some(0));
        assert_eq!(bounds.get(HwEvent::QpiTransfer).unwrap().max, Some(0));
    }

    #[test]
    fn noisy_machine_stays_inside_envelope() {
        // Default noise (timer + jitter) still lands inside the bounds.
        let cfg = MachineConfig::two_socket_small();
        let mut b = ProgramBuilder::new(&cfg.topology, cfg.page_bytes);
        let buf = b.alloc(1 << 18, AllocPolicy::Interleave);
        let t0 = b.add_thread(0);
        let t1 = b.add_thread(4);
        for i in 0..2_000u64 {
            b.load(t0, buf + (i * 64) % (1 << 18));
            b.store(t1, buf + (i * 128) % (1 << 18));
            if i % 500 == 0 {
                b.barrier(t0, (i / 500) as u32);
                b.barrier(t1, (i / 500) as u32);
            }
        }
        let p = b.build();
        let bounds = check_run(&p, &cfg, &[1, 2, 3, 4]);
        assert!(bounds.get(HwEvent::Instructions).unwrap().max.is_some());
        assert!(bounds.wall_cycles.max.is_some());
    }

    #[test]
    fn pathological_interrupt_rate_yields_unbounded_max() {
        let mut cfg = quiet_config();
        cfg.noise.timer_interval = 10; // far below threads × interrupt_cycles
        let mut b = ProgramBuilder::new(&cfg.topology, cfg.page_bytes);
        let buf = b.alloc(4096, AllocPolicy::FirstTouch);
        let t0 = b.add_thread(0);
        b.load(t0, buf);
        let p = b.build();
        let bounds = compute(&p, &cfg);
        assert_eq!(bounds.get(HwEvent::Instructions).unwrap().max, None);
        assert_eq!(bounds.wall_cycles.max, None);
        // Retirement stays exact even in the unbounded-noise regime.
        assert_eq!(
            bounds.get(HwEvent::LoadRetired).unwrap(),
            EventBound::exact(1)
        );
    }

    #[test]
    fn prior_certainty_tracks_envelope_tightness() {
        assert_eq!(EventBound::exact(42).certainty_pm(), 1000);
        assert_eq!(EventBound::range(900, 1000).certainty_pm(), 900);
        assert_eq!(EventBound::range(0, 1000).certainty_pm(), 0);
        assert_eq!(EventBound { min: 5, max: None }.certainty_pm(), 0);
    }

    #[test]
    fn prior_position_is_clamped_per_mille() {
        let b = EventBound::range(100, 200);
        assert_eq!(b.position_pm(100), Some(0));
        assert_eq!(b.position_pm(150), Some(500));
        assert_eq!(b.position_pm(200), Some(1000));
        assert_eq!(b.position_pm(9999), Some(1000), "clamped above");
        assert_eq!(b.position_pm(3), Some(0), "clamped below");
        assert_eq!(EventBound::exact(7).position_pm(7), Some(500));
        assert_eq!(EventBound { min: 0, max: None }.position_pm(1), None);
    }

    #[test]
    fn priors_match_the_underlying_envelopes() {
        let cfg = quiet_config();
        let mut b = ProgramBuilder::new(&cfg.topology, cfg.page_bytes);
        let buf = b.alloc(64 * 1024, AllocPolicy::FirstTouch);
        let t0 = b.add_thread(0);
        for i in 0..64u64 {
            b.load(t0, buf + i * 64);
        }
        let p = b.build();
        let pri = priors(&p, &cfg);
        let bounds = compute(&p, &cfg);
        for (event, bound) in bounds.iter() {
            let prior = pri.get(event).expect("every bounded event has a prior");
            assert_eq!(prior.bound, bound);
            assert_eq!(prior.certainty_pm, bound.certainty_pm());
        }
        // Exact retirement envelope: a fully certain prior.
        assert_eq!(pri.get(HwEvent::LoadRetired).unwrap().certainty_pm, 1000);
        assert_eq!(pri.iter().count(), bounds.iter().count());
    }
}

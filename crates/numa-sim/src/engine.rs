//! The timing engine: executes a [`Program`] against a [`MachineConfig`]
//! with full event accounting.
//!
//! # Timing model
//!
//! Each thread (pinned 1:1 to a core) owns a cycle clock. The scheduler
//! always advances the thread with the smallest clock, so cross-thread
//! interactions (coherence, barriers) happen in a deterministic global
//! order. Loads that miss the private caches occupy a line-fill buffer
//! (MSHR) until `issue_time + full_latency`; while a buffer is free the
//! core only pays the issue cost — misses overlap, modelling
//! memory-level parallelism. When all buffers are busy the core records a
//! `FillBufferReject` and stalls until the earliest buffer retires: this is
//! what makes a column-major walk an order of magnitude slower than a
//! row-major one *and* produces the paper's most discriminative Fig. 8
//! event. `dependent` loads (pointer chases) wait for their own completion,
//! which is how `mlc`-style latency measurements observe full latencies.
//!
//! The sampled latency reported to observers is the *use latency* — memory
//! latency plus queueing delay — matching the Intel definition Memhist
//! relies on (§IV-B).

use crate::branch::BranchPredictor;
use crate::cache::{Probe, SetAssocCache};
use crate::coherence::{DirLookup, Directory};
use crate::config::MachineConfig;
use crate::event::{Counters, HwEvent};
use crate::noise::SplitMix64;
use crate::prefetch::StridePrefetcher;
use crate::program::{Op, Program, ValidateError};
use crate::tlb::Tlb;

/// Which level of the memory system served a load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedBy {
    /// L1 data cache.
    L1,
    /// L2 cache.
    L2,
    /// Shared L3 on the local node.
    L3,
    /// DRAM on the local node.
    LocalDram,
    /// DRAM on a remote node (`hops` away).
    RemoteDram {
        /// Interconnect hops to the home node.
        hops: u8,
    },
    /// Modified line forwarded from another core's cache (HITM).
    Hitm {
        /// Whether the owner sat on a remote node.
        remote: bool,
    },
}

/// One load observed by the measurement layer.
#[derive(Debug, Clone, Copy)]
pub struct LoadSample {
    /// Core that issued the load.
    pub core: usize,
    /// Virtual address.
    pub addr: u64,
    /// Use latency in cycles (memory latency + queueing delay).
    pub latency: u64,
    /// Serving level.
    pub served: ServedBy,
    /// Issue time (cycles on the issuing core's clock).
    pub time: u64,
}

/// Observer hooks invoked during a run; the measurement layer
/// (`np-counters`) implements this to model PMU sampling and timeslices.
pub trait SimObserver {
    /// Called for every retired load.
    fn on_load_sample(&mut self, _sample: &LoadSample) {}
    /// Called when the machine frontier crosses a timeslice boundary
    /// (`MachineConfig::timeslice_cycles`), with cumulative counters and
    /// the current footprint.
    fn on_timeslice(&mut self, _now: u64, _counters: &Counters, _footprint_bytes: u64) {}
}

/// The no-op observer.
pub struct NullObserver;

impl SimObserver for NullObserver {}

/// Result of one simulated run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Final event counters.
    pub counters: Counters,
    /// Wall-clock of the run: the maximum core cycle count.
    pub cycles: u64,
    /// Footprint time series `(cycles, reserved bytes)`, one point per
    /// Reserve/Release plus one per timeslice — the procfs view.
    pub footprint: Vec<(u64, u64)>,
    /// Per-source-region event totals (regions declared with
    /// [`crate::program::Op::Label`]), sorted by region id. The §VI
    /// events-to-code mapping.
    pub regions: Vec<(u32, [u64; HwEvent::COUNT])>,
}

impl RunResult {
    /// Machine-wide total of one event.
    pub fn total(&self, event: HwEvent) -> u64 {
        self.counters.total(event)
    }

    /// One region's count of one event; zero when the region is unknown.
    pub fn region_total(&self, region: u32, event: HwEvent) -> u64 {
        self.regions
            .iter()
            .find(|(r, _)| *r == region)
            .map_or(0, |(_, a)| a[event.index()])
    }
}

/// Per-core microarchitectural state.
struct CoreState {
    l1: SetAssocCache,
    l2: SetAssocCache,
    tlb: Tlb,
    predictor: BranchPredictor,
    prefetcher: StridePrefetcher,
    /// Completion times of in-flight misses.
    mshrs: Vec<u64>,
    /// Stall cycles accumulated since the last retired branch.
    stall_acc: u64,
    /// Clock at the last retired branch.
    last_branch: u64,
    /// Exponential moving average of the recent stall fraction; drives the
    /// speculation window (Fig. 9's mechanism: a stalling core "was not
    /// able to speculatively predict more instructions").
    stall_ema: f64,
    next_timer: u64,
    rng: SplitMix64,
}

/// Per-thread execution state.
struct ThreadState {
    core: usize,
    pc: usize,
    now: u64,
    waiting_barrier: Option<u32>,
    finished: bool,
}

/// The large, geometry-shaped machine state a run needs: per-core caches,
/// TLBs, predictors and prefetchers, per-node L3s and the coherence
/// directory. Building this from scratch allocates tens of megabytes for
/// the big presets (the DL580 L3 alone is ~36864 sets × 20 ways per
/// node), so finished runs return their state to [`MachineSim::scratch`]
/// and [`MachineSim::reset_state`] rewinds it in O(occupied) via cache/
/// TLB epoch bumps instead of reallocating.
struct SimState {
    cores: Vec<CoreState>,
    l3s: Vec<SetAssocCache>,
    directory: Directory,
}

/// Recycled states kept per simulator; beyond this, extra states drop.
const SCRATCH_CAP: usize = 8;

/// The machine simulator. Holds configuration plus a pool of recycled
/// run state (an allocation cache only — never observable); every
/// [`Self::run`] is independent and deterministic in `(program, seed)`.
///
/// ```
/// use np_simulator::{AllocPolicy, HwEvent, MachineConfig, MachineSim, ProgramBuilder};
///
/// let sim = MachineSim::new(MachineConfig::two_socket_small());
/// let mut b = ProgramBuilder::new(&sim.config().topology, 4096);
/// let buf = b.alloc(1 << 20, AllocPolicy::Bind(1)); // remote to core 0
/// let t = b.add_thread(0);
/// for i in 0..64 {
///     b.load(t, buf + i * 4096);
/// }
/// let program = b.build();
/// let run = sim.run(&program, 42).unwrap();
/// assert_eq!(run.total(HwEvent::RemoteDramAccess), 64);
/// // Deterministic: the same (program, seed) reproduces exactly.
/// assert_eq!(run.counters, sim.run(&program, 42).unwrap().counters);
/// ```
pub struct MachineSim {
    config: MachineConfig,
    /// Finished runs park their [`SimState`] here for the next run to
    /// reuse. `reset_state` restores fresh-built semantics exactly (the
    /// differential suite pins `run` against `run_fresh` bit-for-bit),
    /// so recycling is invisible except in allocator pressure — which is
    /// precisely the overhead that serialised parallel campaigns.
    scratch: std::sync::Mutex<Vec<SimState>>,
}

/// The per-node NUMA indicator events exported as live time series at
/// each timeslice (and by the campaign capture observer in `np-core`):
/// memory locality, interconnect pressure, coherence, cache and TLB —
/// the paper's indicator families, per node — plus the retirement, clock
/// and memory-controller families the np-patterns classifier derives its
/// per-phase metrics from.
pub const LIVE_NODE_EVENTS: &[(&str, HwEvent)] = &[
    ("local_dram", HwEvent::LocalDramAccess),
    ("remote_dram", HwEvent::RemoteDramAccess),
    ("qpi", HwEvent::QpiTransfer),
    ("hitm", HwEvent::HitmTransfer),
    ("l3_miss", HwEvent::L3Miss),
    ("dtlb_miss", HwEvent::DtlbMiss),
    ("instructions", HwEvent::Instructions),
    ("cycles", HwEvent::Cycles),
    ("mem_stall", HwEvent::MemStallCycles),
    ("load", HwEvent::LoadRetired),
    ("store", HwEvent::StoreRetired),
    ("imc_read", HwEvent::ImcRead),
    ("imc_write", HwEvent::ImcWrite),
];

impl MachineSim {
    /// Creates a simulator for `config`.
    pub fn new(config: MachineConfig) -> Self {
        MachineSim {
            config,
            scratch: std::sync::Mutex::new(Vec::new()),
        }
    }

    /// Allocates the geometry-shaped state for one run. Seed-dependent
    /// scalars are left at placeholders; [`Self::reset_state`] sets them,
    /// so built and recycled states are indistinguishable.
    fn build_state(&self) -> SimState {
        let cfg = &self.config;
        let n_cores = cfg.topology.total_cores();
        SimState {
            cores: (0..n_cores)
                .map(|_| CoreState {
                    l1: SetAssocCache::new(cfg.l1d),
                    l2: SetAssocCache::new(cfg.l2),
                    tlb: Tlb::new(cfg.core.dtlb_entries),
                    predictor: BranchPredictor::new(512),
                    prefetcher: StridePrefetcher::new(
                        16,
                        cfg.l1d.line_bytes as u64,
                        cfg.page_bytes,
                        2,
                    ),
                    mshrs: Vec::with_capacity(cfg.core.fill_buffers as usize),
                    stall_acc: 0,
                    last_branch: 0,
                    stall_ema: 0.0,
                    next_timer: u64::MAX,
                    rng: SplitMix64::new(0),
                })
                .collect(),
            l3s: (0..cfg.topology.nodes)
                .map(|_| SetAssocCache::new(cfg.l3))
                .collect(),
            directory: Directory::new(),
        }
    }

    /// Rewinds `state` to what [`Self::build_state`] plus per-run seeding
    /// would produce: caches and TLBs epoch-reset, predictors and
    /// prefetchers cleared, per-core timers and RNGs re-derived from
    /// `seed`. Everything a run can observe is restored; nothing is
    /// reallocated.
    fn reset_state(&self, state: &mut SimState, seed: u64) {
        let cfg = &self.config;
        for (c, core) in state.cores.iter_mut().enumerate() {
            core.l1.reset();
            core.l2.reset();
            core.tlb.reset();
            core.predictor.reset();
            core.prefetcher.reset();
            core.mshrs.clear();
            core.stall_acc = 0;
            core.last_branch = 0;
            core.stall_ema = 0.0;
            core.next_timer = if cfg.noise.timer_interval > 0 {
                // Deterministic per-core phase offset.
                cfg.noise.timer_interval / 2
                    + (SplitMix64::new(seed ^ c as u64).next_u64()
                        % cfg.noise.timer_interval.max(1))
            } else {
                u64::MAX
            };
            core.rng = SplitMix64::new(seed.wrapping_mul(0x9E3779B97F4A7C15) ^ (c as u64) << 32);
        }
        for l3 in &mut state.l3s {
            l3.reset();
        }
        state.directory.clear();
    }

    /// The configuration in use.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Runs `program` with `seed`, discarding samples. Fails with the
    /// typed [`ValidateError`] when the program does not fit this machine
    /// — the acquisition and probe paths propagate it instead of aborting
    /// a measurement campaign mid-flight.
    pub fn run(&self, program: &Program, seed: u64) -> Result<RunResult, ValidateError> {
        self.run_observed(program, seed, &mut NullObserver)
    }

    /// Runs `program` with `seed`, streaming samples and timeslices into
    /// `observer`. Fails as [`MachineSim::run`] does.
    pub fn run_observed(
        &self,
        program: &Program,
        seed: u64,
        observer: &mut dyn SimObserver,
    ) -> Result<RunResult, ValidateError> {
        let _span = np_telemetry::span!("sim.run", "sim");
        program.validate(&self.config.topology)?;
        let mut state = self
            .scratch
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .pop()
            .unwrap_or_else(|| self.build_state());
        self.reset_state(&mut state, seed);
        let result = self.run_with_state(program, observer, &mut state);
        let mut pool = self.scratch.lock().unwrap_or_else(|p| p.into_inner());
        if pool.len() < SCRATCH_CAP {
            pool.push(state);
        }
        drop(pool);
        Ok(result)
    }

    /// Runs `program` on freshly allocated state, bypassing the scratch
    /// pool — the pre-recycling reference semantics. [`MachineSim::run`]
    /// must agree with this path bit-for-bit for every `(program, seed)`;
    /// the differential test suite pins that equivalence across the whole
    /// workload registry.
    pub fn run_fresh(&self, program: &Program, seed: u64) -> Result<RunResult, ValidateError> {
        program.validate(&self.config.topology)?;
        let mut state = self.build_state();
        self.reset_state(&mut state, seed);
        Ok(self.run_with_state(program, &mut NullObserver, &mut state))
    }

    /// One simulated run over already-reset machine state.
    fn run_with_state(
        &self,
        program: &Program,
        observer: &mut dyn SimObserver,
        state: &mut SimState,
    ) -> RunResult {
        let cfg = &self.config;
        let n_cores = cfg.topology.total_cores();
        let mut counters = Counters::new(n_cores);
        let mut space = program.space.clone();
        let SimState {
            cores,
            l3s,
            directory,
        } = state;

        let mut threads: Vec<ThreadState> = program
            .threads
            .iter()
            .map(|t| ThreadState {
                core: t.core,
                pc: 0,
                now: 0,
                waiting_barrier: None,
                finished: false,
            })
            .collect();

        let mut footprint_bytes: u64 = 0;
        let mut footprint: Vec<(u64, u64)> = vec![(0, 0)];
        let mut frontier: u64 = 0;
        let mut next_slice = cfg.timeslice_cycles.max(1);
        // Per-node memory-controller availability (bandwidth contention).
        let mut imc_busy: Vec<u64> = vec![0; cfg.topology.nodes];
        // Source-region attribution: per-thread open region (id + counter
        // snapshot of its core), accumulated machine-wide per region id.
        let mut open_region: Vec<Option<(u32, [u64; HwEvent::COUNT])>> = vec![None; threads.len()];
        let mut region_acc: std::collections::BTreeMap<u32, [u64; HwEvent::COUNT]> =
            std::collections::BTreeMap::new();
        let close_region = |slot: &mut Option<(u32, [u64; HwEvent::COUNT])>,
                            acc: &mut std::collections::BTreeMap<u32, [u64; HwEvent::COUNT]>,
                            counters: &Counters,
                            core_id: usize| {
            if let Some((region, snapshot)) = slot.take() {
                let nowc = counters.core_array(core_id);
                let entry = acc.entry(region).or_insert([0; HwEvent::COUNT]);
                for i in 0..HwEvent::COUNT {
                    entry[i] += nowc[i].saturating_sub(snapshot[i]);
                }
            }
        };

        // Main loop: always advance the thread with the smallest clock.
        loop {
            // Pick the runnable thread with minimal `now`.
            let mut pick: Option<usize> = None;
            for (i, t) in threads.iter().enumerate() {
                if t.finished || t.waiting_barrier.is_some() {
                    continue;
                }
                if pick.is_none_or(|p| t.now < threads[p].now) {
                    pick = Some(i);
                }
            }
            let Some(ti) = pick else {
                // No runnable thread: either everyone finished, or all
                // remaining threads wait on a barrier (released below
                // whenever the last participant arrives, so reaching this
                // with waiters would be a deadlocked program).
                let stuck = threads.iter().any(|t| t.waiting_barrier.is_some());
                assert!(!stuck, "program deadlocked on a barrier");
                break;
            };

            let op = {
                let t = &threads[ti];
                let ops = &program.threads[ti].ops;
                if t.pc >= ops.len() {
                    let core = t.core;
                    threads[ti].finished = true;
                    close_region(&mut open_region[ti], &mut region_acc, &counters, core);
                    // This thread may have been the last non-waiter gating
                    // a barrier; it no longer blocks the release, so
                    // re-check here or the waiters hang forever.
                    if let Some(id) = threads.iter().find_map(|t| t.waiting_barrier) {
                        let all_arrived = threads
                            .iter()
                            .all(|t| t.finished || t.waiting_barrier == Some(id));
                        if all_arrived {
                            let release = threads
                                .iter()
                                .filter(|t| !t.finished)
                                .map(|t| t.now)
                                .max()
                                .unwrap_or(0)
                                + 100;
                            for t in threads.iter_mut() {
                                if !t.finished {
                                    t.waiting_barrier = None;
                                    t.now = release;
                                }
                            }
                        }
                    }
                    continue;
                }
                ops[t.pc]
            };
            threads[ti].pc += 1;
            let core_id = threads[ti].core;
            let node = cfg.topology.node_of_core(core_id);
            let mut now = threads[ti].now;

            // Deliver pending timer interrupts for this core.
            {
                let core = &mut cores[core_id];
                while now >= core.next_timer {
                    counters.bump(core_id, HwEvent::TimerInterrupt);
                    counters.add(
                        core_id,
                        HwEvent::Instructions,
                        cfg.noise.interrupt_instructions,
                    );
                    now += cfg.noise.interrupt_cycles;
                    let salt = core.rng.next_u64();
                    core.l1.evict_random(salt);
                    core.l1.evict_random(salt.rotate_left(17));
                    core.next_timer += cfg.noise.timer_interval.max(1);
                }
            }

            match op {
                Op::Exec(n) => {
                    counters.add(core_id, HwEvent::Instructions, n as u64);
                    now += n as u64 * cfg.core.issue_cost;
                }
                Op::Branch { site, taken } => {
                    counters.bump(core_id, HwEvent::Instructions);
                    counters.bump(core_id, HwEvent::BranchRetired);
                    let core = &mut cores[core_id];
                    let correct = core.predictor.predict_and_train(site, taken);
                    // Update the recent-stall EMA over the gap since the
                    // previous branch; the speculation window shrinks in
                    // proportion to how stalled the core has recently been.
                    // The average is weighted by *time* (τ ≈ 2500 cycles),
                    // so one long coherence stall outweighs many short
                    // busy gaps — a drained pipeline takes a while to get
                    // its speculation window back.
                    let gap = now.saturating_sub(core.last_branch).max(1);
                    let frac = (core.stall_acc.min(gap) as f64) / gap as f64;
                    let keep = (-(gap as f64) / 2500.0).exp();
                    core.stall_ema = keep * core.stall_ema + (1.0 - keep) * frac;
                    core.stall_acc = 0;
                    core.last_branch = now;
                    if correct {
                        let window = (cfg.core.spec_window as f64 * (1.0 - core.stall_ema))
                            .round()
                            .max(1.0) as u64;
                        counters.add(core_id, HwEvent::SpecJumpsRetired, window);
                        now += cfg.core.issue_cost;
                    } else {
                        counters.bump(core_id, HwEvent::BranchMiss);
                        counters.bump(core_id, HwEvent::PipelineFlush);
                        counters.bump(core_id, HwEvent::SpecJumpsRetired);
                        now += cfg.core.issue_cost + cfg.latency.branch_miss_penalty;
                    }
                }
                Op::Reserve(bytes) => {
                    let pages = bytes.div_ceil(cfg.page_bytes).max(1);
                    counters.add(core_id, HwEvent::Instructions, pages * 150);
                    now += pages * 600; // page fault + zeroing
                    footprint_bytes += bytes;
                    footprint.push((now, footprint_bytes));
                }
                Op::Release(bytes) => {
                    counters.add(core_id, HwEvent::Instructions, 50);
                    now += 200;
                    footprint_bytes = footprint_bytes.saturating_sub(bytes);
                    footprint.push((now, footprint_bytes));
                }
                Op::Barrier(id) => {
                    threads[ti].now = now;
                    threads[ti].waiting_barrier = Some(id);
                    // Release when every unfinished thread waits on `id`.
                    let all_arrived = threads
                        .iter()
                        .all(|t| t.finished || t.waiting_barrier == Some(id));
                    if all_arrived {
                        let release = threads
                            .iter()
                            .filter(|t| !t.finished)
                            .map(|t| t.now)
                            .max()
                            .unwrap_or(now)
                            + 100;
                        for t in threads.iter_mut() {
                            if !t.finished {
                                t.waiting_barrier = None;
                                t.now = release;
                            }
                        }
                    }
                    continue; // clock already stored
                }
                Op::TlbFlush => {
                    cores[core_id].tlb.flush();
                    now += 200; // IPI delivery + handler
                }
                Op::Label(id) => {
                    close_region(&mut open_region[ti], &mut region_acc, &counters, core_id);
                    open_region[ti] = Some((id, counters.core_array(core_id)));
                }
                Op::Store { addr } => {
                    let row = counters.row_mut(core_id);
                    row[HwEvent::Instructions as usize] += 1;
                    row[HwEvent::StoreRetired as usize] += 1;
                    now = self.access_memory(
                        AccessKind::Store,
                        addr,
                        core_id,
                        node,
                        now,
                        cores,
                        l3s,
                        directory,
                        &mut space,
                        &mut counters,
                        &mut imc_busy,
                        observer,
                    );
                }
                Op::Load { addr, dependent } => {
                    let row = counters.row_mut(core_id);
                    row[HwEvent::Instructions as usize] += 1;
                    row[HwEvent::LoadRetired as usize] += 1;
                    now = self.access_memory(
                        if dependent {
                            AccessKind::DependentLoad
                        } else {
                            AccessKind::Load
                        },
                        addr,
                        core_id,
                        node,
                        now,
                        cores,
                        l3s,
                        directory,
                        &mut space,
                        &mut counters,
                        &mut imc_busy,
                        observer,
                    );
                }
            }

            threads[ti].now = now;
            counters.set(
                core_id,
                HwEvent::Cycles,
                now.max(counters.get(core_id, HwEvent::Cycles)),
            );

            if now > frontier {
                frontier = now;
                while frontier >= next_slice {
                    observer.on_timeslice(next_slice, &counters, footprint_bytes);
                    self.sample_live_timeslice(next_slice, &counters);
                    footprint.push((next_slice, footprint_bytes));
                    next_slice += cfg.timeslice_cycles.max(1);
                }
            }
        }

        let cycles = threads.iter().map(|t| t.now).max().unwrap_or(0);
        // Op-driven points (thread clocks) and slice-driven points (global
        // frontier) interleave; present the series in time order.
        footprint.sort_by_key(|&(t, _)| t);
        let regions = region_acc.into_iter().collect();
        let result = RunResult {
            counters,
            cycles,
            footprint,
            regions,
        };
        self.record_run_telemetry(&result);
        result
    }

    /// Feeds one finished run's totals into the global telemetry registry.
    ///
    /// Batched at end-of-run on purpose: the main loop stays untouched, so
    /// simulated throughput is independent of whether telemetry is on.
    fn record_run_telemetry(&self, result: &RunResult) {
        if !np_telemetry::enabled() {
            return;
        }
        np_telemetry::counter!("sim.runs").inc();
        np_telemetry::counter!("sim.instructions").add(result.total(HwEvent::Instructions));
        np_telemetry::counter!("sim.cycles").add(result.cycles);
        np_telemetry::counter!("sim.l3_miss").add(result.total(HwEvent::L3Miss));
        np_telemetry::counter!("sim.hitm_transfers").add(result.total(HwEvent::HitmTransfer));
        np_telemetry::counter!("sim.coherence_invalidations")
            .add(result.total(HwEvent::CoherenceInvalidation));
        np_telemetry::counter!("sim.local_dram").add(result.total(HwEvent::LocalDramAccess));
        np_telemetry::counter!("sim.remote_dram").add(result.total(HwEvent::RemoteDramAccess));
        // Memory ops (retired loads + stores) attributed to the node of the
        // core that issued them — the sim's own per-node throughput.
        let topo = &self.config.topology;
        for node in 0..topo.nodes {
            let ops: u64 = (0..topo.cores_per_node)
                .map(|i| {
                    let core = topo.first_core_of_node(node) + i;
                    result.counters.get(core, HwEvent::LoadRetired)
                        + result.counters.get(core, HwEvent::StoreRetired)
                })
                .sum();
            if ops > 0 {
                np_telemetry::global()
                    .counter(&format!("sim.mem_ops.node{node}"))
                    .add(ops);
            }
        }
    }

    /// Feeds per-node cumulative event totals into the global time-series
    /// sampler at each timeslice boundary, keyed by **simulated cycles**
    /// (never wall time — this file is in the audit's `no-wall-clock` scope).
    /// Gated on `sampling_enabled()` so the uninstrumented main loop pays
    /// one relaxed load per slice; `np top` reads the resulting
    /// `sim.node<N>.<event>` series live.
    fn sample_live_timeslice(&self, now: u64, counters: &Counters) {
        if !np_telemetry::timeseries::sampling_enabled() {
            return;
        }
        let topo = &self.config.topology;
        for node in 0..topo.nodes {
            for &(short, event) in LIVE_NODE_EVENTS {
                let total: u64 = (0..topo.cores_per_node)
                    .map(|i| counters.get(topo.first_core_of_node(node) + i, event))
                    .sum();
                np_telemetry::timeseries::sample_cumulative(
                    &format!("sim.node{node}.{short}"),
                    now,
                    total,
                );
            }
        }
    }

    /// Charges one line fetch to the home node's memory controller,
    /// returning the queueing delay it experienced.
    fn imc_fetch(&self, home: usize, arrival: u64, imc_busy: &mut [u64]) -> u64 {
        let start = imc_busy[home].max(arrival);
        imc_busy[home] = start + self.config.latency.imc_service;
        start - arrival
    }

    /// Fetches a prefetch target through L3/DRAM without demand-event
    /// accounting: the data movement (L3 miss, IMC read, bandwidth
    /// occupancy) is real, but demand counters (L3 accesses, DRAM access
    /// events) only see demand traffic.
    #[allow(clippy::too_many_arguments)]
    fn prefetch_fill(
        &self,
        core_id: usize,
        node: usize,
        pf_addr: u64,
        now: u64,
        cores: &mut [CoreState],
        l3s: &mut [SetAssocCache],
        space: &mut crate::mem::AddressSpace,
        counters: &mut Counters,
        imc_busy: &mut [u64],
    ) {
        counters.bump(core_id, HwEvent::L2PrefetchReq);
        let cfg = &self.config;
        if let Probe::Miss = l3s[node].access(pf_addr, false) {
            counters.bump(core_id, HwEvent::L3Miss);
            let home = space.node_of_access(pf_addr, node);
            counters.bump(cfg.topology.first_core_of_node(home), HwEvent::ImcRead);
            self.imc_fetch(home, now, imc_busy);
            l3s[node].install(pf_addr, false, false);
        }
        cores[core_id].l2.install(pf_addr, true, false);
        cores[core_id].l1.install(pf_addr, true, false);
    }

    /// Executes one memory access; returns the thread's new clock.
    #[allow(clippy::too_many_arguments)]
    fn access_memory(
        &self,
        kind: AccessKind,
        addr: u64,
        core_id: usize,
        node: usize,
        mut now: u64,
        cores: &mut [CoreState],
        l3s: &mut [SetAssocCache],
        directory: &mut Directory,
        space: &mut crate::mem::AddressSpace,
        counters: &mut Counters,
        imc_busy: &mut [u64],
        observer: &mut dyn SimObserver,
    ) -> u64 {
        let cfg = &self.config;
        let is_store = kind == AccessKind::Store;
        let issue_time = now;

        // --- dTLB ---
        // Page walks run on the (uncore) walker concurrently with other
        // misses, so they extend the access's *latency* (queue delay) rather
        // than serialising the core — dependent consumers still pay for
        // them, overlapped loads hide them, and each walk locks the L1d.
        let page = addr / cfg.page_bytes;
        let mut queue_delay: u64 = 0;
        {
            let core = &mut cores[core_id];
            // One row borrow for the whole trio: the walk's three events
            // land in the same SoA row, so batch them instead of paying
            // three indexed lookups on the hottest path in the simulator.
            let row = counters.row_mut(core_id);
            if core.tlb.lookup(page) {
                row[HwEvent::DtlbHit as usize] += 1;
            } else {
                row[HwEvent::DtlbMiss as usize] += 1;
                row[HwEvent::PageWalkCycles as usize] += cfg.latency.page_walk;
                row[HwEvent::L1dLocked as usize] += 1;
                queue_delay += cfg.latency.page_walk;
            }
        }

        // --- coherence for stores: always upgrade, even on private hits ---
        let line_addr = addr / cfg.l1d.line_bytes as u64;
        if is_store {
            let (before, invalidated) = directory.record_write(line_addr, core_id as u32);
            if !invalidated.is_empty() {
                counters.add(
                    core_id,
                    HwEvent::CoherenceInvalidation,
                    invalidated.len() as u64,
                );
                for victim in &invalidated {
                    counters.bump(*victim as usize, HwEvent::SnoopRequest);
                    cores[*victim as usize].l1.invalidate(addr);
                    cores[*victim as usize].l2.invalidate(addr);
                }
            }
            if let DirLookup::Modified { owner } = before {
                counters.bump(core_id, HwEvent::HitmTransfer);
                let remote = cfg.topology.node_of_core(owner as usize) != node;
                let rfo = if remote {
                    cfg.latency.hitm_remote
                } else {
                    cfg.latency.hitm_local
                };
                // A read-for-ownership of a foreign-modified line serialises
                // the store buffer: the core both waits and stalls.
                now += rfo;
                counters.add(core_id, HwEvent::StallCycles, rfo);
                counters.add(core_id, HwEvent::MemStallCycles, rfo);
                cores[core_id].stall_acc += rfo;
                if remote {
                    counters.bump(core_id, HwEvent::QpiTransfer);
                }
            }
        }

        // --- L1 ---
        let l1_probe = cores[core_id].l1.access(addr, is_store);
        if let Probe::Hit { first_prefetch_hit } = l1_probe {
            counters.bump(core_id, HwEvent::L1dHit);
            // Streaming: consuming a prefetched line keeps the stream
            // running ahead, so steady-state sequential scans only miss on
            // stride (re-)learning at page starts.
            if first_prefetch_hit && cfg.prefetch_enabled {
                let targets = cores[core_id].prefetcher.on_demand_miss(addr);
                for line in targets {
                    let pf_addr = line * cfg.l1d.line_bytes as u64;
                    self.prefetch_fill(
                        core_id, node, pf_addr, now, cores, l3s, space, counters, imc_busy,
                    );
                }
            }
            let latency = cfg.latency.l1_hit + queue_delay;
            now += match kind {
                AccessKind::Store => cfg.core.issue_cost,
                AccessKind::Load => cfg.core.issue_cost,
                AccessKind::DependentLoad => cfg.latency.l1_hit + queue_delay,
            };
            if kind != AccessKind::Store {
                observer.on_load_sample(&LoadSample {
                    core: core_id,
                    addr,
                    latency,
                    served: ServedBy::L1,
                    time: issue_time,
                });
            }
            return now;
        }
        counters.bump(core_id, HwEvent::L1dMiss);

        // --- L2 ---
        let l2_probe = cores[core_id].l2.access(addr, is_store);
        let (mut latency, mut served, l2_hit) = match l2_probe {
            Probe::Hit { first_prefetch_hit } => {
                counters.bump(core_id, HwEvent::L2Hit);
                if first_prefetch_hit {
                    counters.bump(core_id, HwEvent::L2PrefetchHit);
                }
                (cfg.latency.l2_hit, ServedBy::L2, true)
            }
            Probe::Miss => {
                counters.bump(core_id, HwEvent::L2Miss);
                (0, ServedBy::L2, false)
            }
        };

        if !l2_hit {
            // --- uncore: directory, L3, DRAM ---
            counters.bump(core_id, HwEvent::L3Access);
            let lookup = if is_store {
                // Already registered by record_write above.
                DirLookup::Uncached
            } else {
                directory.record_read(line_addr, core_id as u32)
            };
            match lookup {
                DirLookup::Modified { owner } if owner as usize != core_id => {
                    counters.bump(core_id, HwEvent::HitmTransfer);
                    counters.bump(owner as usize, HwEvent::SnoopRequest);
                    let remote = cfg.topology.node_of_core(owner as usize) != node;
                    latency = if remote {
                        cfg.latency.hitm_remote
                    } else {
                        cfg.latency.hitm_local
                    };
                    served = ServedBy::Hitm { remote };
                    if remote {
                        counters.bump(core_id, HwEvent::QpiTransfer);
                    }
                    // The downgrade writes the dirty line back home.
                    let home = space.node_of_access(addr, node);
                    counters.bump(cfg.topology.first_core_of_node(home), HwEvent::ImcWrite);
                }
                _ => match l3s[node].access(addr, is_store) {
                    Probe::Hit { .. } => {
                        counters.bump(core_id, HwEvent::L3Hit);
                        latency = cfg.latency.l3_hit;
                        served = ServedBy::L3;
                    }
                    Probe::Miss => {
                        counters.bump(core_id, HwEvent::L3Miss);
                        let home = space.node_of_access(addr, node);
                        let hops = cfg.topology.hop_distance(node, home);
                        let base = cfg.dram_latency(hops);
                        let queued = self.imc_fetch(home, now, imc_busy);
                        latency = queued
                            + cores[core_id]
                                .rng
                                .jitter_latency(base, cfg.noise.dram_jitter);
                        counters.bump(cfg.topology.first_core_of_node(home), HwEvent::ImcRead);
                        if hops == 0 {
                            counters.bump(core_id, HwEvent::LocalDramAccess);
                            served = ServedBy::LocalDram;
                        } else {
                            counters.bump(core_id, HwEvent::RemoteDramAccess);
                            counters.bump(core_id, HwEvent::QpiTransfer);
                            served = ServedBy::RemoteDram { hops };
                        }
                        l3s[node].install(addr, false, is_store);
                    }
                },
            }

            // --- fill buffer (MSHR) allocation ---
            {
                let core = &mut cores[core_id];
                core.mshrs.retain(|&t| t > now);
                while core.mshrs.len() >= cfg.core.fill_buffers as usize {
                    counters.bump(core_id, HwEvent::FillBufferReject);
                    let earliest = core.mshrs.iter().copied().min().unwrap_or(now);
                    let wait = earliest.saturating_sub(now);
                    counters.add(core_id, HwEvent::StallCycles, wait);
                    counters.add(core_id, HwEvent::MemStallCycles, wait);
                    now += wait;
                    core.stall_acc += wait;
                    queue_delay += wait;
                    core.mshrs.retain(|&t| t > now);
                }
                counters.bump(core_id, HwEvent::FillBufferAlloc);
                // The buffer is held until the data returns, including the
                // translation delay.
                core.mshrs.push(now + queue_delay + latency);
            }

            // --- install into private caches, maintain inclusion ---
            if let Some(ev) = cores[core_id].l2.install(addr, false, is_store) {
                directory.record_evict(ev.line_addr, core_id as u32);
                // Inclusive L2: drop the L1 copy of the victim.
                cores[core_id]
                    .l1
                    .invalidate(ev.line_addr * cfg.l1d.line_bytes as u64);
                if ev.dirty {
                    counters.bump(core_id, HwEvent::ImcWrite);
                }
            }

            // --- prefetcher observes demand misses beyond L2 ---
            if cfg.prefetch_enabled {
                let targets = cores[core_id].prefetcher.on_demand_miss(addr);
                for line in targets {
                    let pf_addr = line * cfg.l1d.line_bytes as u64;
                    self.prefetch_fill(
                        core_id, node, pf_addr, now, cores, l3s, space, counters, imc_busy,
                    );
                }
            }
        } else if cfg.prefetch_enabled
            && matches!(
                l2_probe,
                Probe::Hit {
                    first_prefetch_hit: true
                }
            )
        {
            // The L1 copy of a prefetched line was evicted but the L2 copy
            // survived: consuming it still continues the stream.
            let targets = cores[core_id].prefetcher.on_demand_miss(addr);
            for line in targets {
                let pf_addr = line * cfg.l1d.line_bytes as u64;
                self.prefetch_fill(
                    core_id, node, pf_addr, now, cores, l3s, space, counters, imc_busy,
                );
            }
        }

        if let Some(ev) = cores[core_id].l1.install(addr, false, is_store) {
            counters.bump(core_id, HwEvent::L1dEvict);
            // Writeback into L2 (still within the private domain).
            if ev.dirty {
                cores[core_id]
                    .l2
                    .install(ev.line_addr * cfg.l1d.line_bytes as u64, false, true);
            }
        }

        // --- visible cost to the core ---
        now += match kind {
            AccessKind::Store => cfg.core.issue_cost, // posted via store buffer
            AccessKind::Load => {
                if l2_hit {
                    latency // L2 is close enough that we charge it
                } else {
                    cfg.core.issue_cost + 1 // overlapped miss
                }
            }
            // A dependent load must wait for the data, translation included.
            AccessKind::DependentLoad => latency + queue_delay,
        };

        // A dependent load that waited on memory drained the pipeline —
        // speculation has to refill afterwards, just like after an MSHR
        // stall.
        if kind == AccessKind::DependentLoad && latency + queue_delay > 50 {
            counters.add(core_id, HwEvent::StallCycles, latency + queue_delay);
            counters.add(core_id, HwEvent::MemStallCycles, latency + queue_delay);
            cores[core_id].stall_acc += latency + queue_delay;
        }

        if kind != AccessKind::Store {
            observer.on_load_sample(&LoadSample {
                core: core_id,
                addr,
                latency: latency + queue_delay,
                served,
                time: issue_time,
            });
        }
        now
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AccessKind {
    Load,
    DependentLoad,
    Store,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use crate::mem::AllocPolicy;
    use crate::program::ProgramBuilder;

    fn machine() -> MachineSim {
        let mut cfg = MachineConfig::two_socket_small();
        cfg.noise.timer_interval = 0; // quiet for unit tests
        cfg.noise.dram_jitter = 0.0;
        MachineSim::new(cfg)
    }

    fn collect_samples(sim: &MachineSim, p: &Program) -> Vec<LoadSample> {
        struct Collect(Vec<LoadSample>);
        impl SimObserver for Collect {
            fn on_load_sample(&mut self, s: &LoadSample) {
                self.0.push(*s);
            }
        }
        let mut c = Collect(Vec::new());
        sim.run_observed(p, 1, &mut c).expect("valid program");
        c.0
    }

    #[test]
    fn sequential_scan_mostly_hits_after_warmup() {
        let sim = machine();
        let mut b = ProgramBuilder::new(&sim.config().topology, 4096);
        let buf = b.alloc(64 * 1024, AllocPolicy::FirstTouch);
        let t = b.add_thread(0);
        // Touch every 8 bytes of 64 KiB, twice.
        for pass in 0..2 {
            let _ = pass;
            for i in 0..8192u64 {
                b.load(t, buf + i * 8);
            }
        }
        let r = sim.run(&b.build(), 7).expect("valid program");
        let hits = r.total(HwEvent::L1dHit);
        let misses = r.total(HwEvent::L1dMiss);
        // 16384 loads, 8 per line: ≥ 7/8 hit even without prefetching.
        assert!(hits > misses * 6, "hits {hits} misses {misses}");
        assert_eq!(hits + misses, 16384);
        assert_eq!(r.total(HwEvent::LoadRetired), 16384);
    }

    #[test]
    fn local_vs_remote_dram_latency_observed() {
        let sim = machine();
        let topo = sim.config().topology.clone();
        // Local: bind to node 0, run on node 0.
        let mut b = ProgramBuilder::new(&topo, 4096);
        let local = b.alloc(1 << 20, AllocPolicy::Bind(0));
        let t = b.add_thread(0);
        for i in 0..1024u64 {
            b.load_dependent(t, local + i * 4096 % (1 << 20));
        }
        let samples = collect_samples(&sim, &b.build());
        let local_dram: Vec<&LoadSample> = samples
            .iter()
            .filter(|s| s.served == ServedBy::LocalDram)
            .collect();
        assert!(!local_dram.is_empty());

        // Remote: bind to node 1, run on node 0.
        let mut b = ProgramBuilder::new(&topo, 4096);
        let remote = b.alloc(1 << 20, AllocPolicy::Bind(1));
        let t = b.add_thread(0);
        for i in 0..1024u64 {
            b.load_dependent(t, remote + i * 4096 % (1 << 20));
        }
        let samples_r = collect_samples(&sim, &b.build());
        let remote_dram: Vec<&LoadSample> = samples_r
            .iter()
            .filter(|s| matches!(s.served, ServedBy::RemoteDram { .. }))
            .collect();
        assert!(!remote_dram.is_empty());

        let avg =
            |v: &[&LoadSample]| v.iter().map(|s| s.latency).sum::<u64>() as f64 / v.len() as f64;
        let la = avg(&local_dram);
        let ra = avg(&remote_dram);
        assert!(
            ra > la + 80.0,
            "remote ({ra}) should exceed local ({la}) by ~per_hop"
        );
    }

    #[test]
    fn remote_accesses_counted_as_remote() {
        let sim = machine();
        let mut b = ProgramBuilder::new(&sim.config().topology, 4096);
        let buf = b.alloc(1 << 20, AllocPolicy::Bind(1));
        let t = b.add_thread(0); // core 0 = node 0
        for i in 0..256u64 {
            b.load(t, buf + i * 4096);
        }
        let r = sim.run(&b.build(), 3).expect("valid program");
        assert_eq!(r.total(HwEvent::RemoteDramAccess), 256);
        assert_eq!(r.total(HwEvent::LocalDramAccess), 0);
        assert!(r.total(HwEvent::QpiTransfer) >= 256);
    }

    #[test]
    fn first_touch_places_pages_locally() {
        let sim = machine();
        let mut b = ProgramBuilder::new(&sim.config().topology, 4096);
        let buf = b.alloc(1 << 20, AllocPolicy::FirstTouch);
        // Thread on node 1 touches everything first.
        let t = b.add_thread(sim.config().topology.first_core_of_node(1));
        for i in 0..256u64 {
            b.load(t, buf + i * 4096);
        }
        let r = sim.run(&b.build(), 3).expect("valid program");
        assert_eq!(r.total(HwEvent::LocalDramAccess), 256);
        assert_eq!(r.total(HwEvent::RemoteDramAccess), 0);
    }

    #[test]
    fn mshr_exhaustion_rejects_and_stalls() {
        let sim = machine();
        let mut b = ProgramBuilder::new(&sim.config().topology, 4096);
        // Page-strided loads: every access misses everything.
        let buf = b.alloc(16 << 20, AllocPolicy::Bind(0));
        let t = b.add_thread(0);
        for i in 0..2000u64 {
            b.load(t, buf + i * 4096);
        }
        let r = sim.run(&b.build(), 5).expect("valid program");
        assert!(
            r.total(HwEvent::FillBufferReject) > 1500,
            "rejects {}",
            r.total(HwEvent::FillBufferReject)
        );
        assert!(r.total(HwEvent::StallCycles) > 0);
        // Throughput is MSHR-limited: ~local_dram/fill_buffers per load.
        let per_load = r.cycles as f64 / 2000.0;
        assert!(per_load > 15.0, "per-load {per_load}");
    }

    #[test]
    fn line_sequential_loads_overlap_and_avoid_rejects() {
        let sim = machine();
        let mut b = ProgramBuilder::new(&sim.config().topology, 4096);
        let buf = b.alloc(1 << 20, AllocPolicy::Bind(0));
        let t = b.add_thread(0);
        for i in 0..4096u64 {
            b.load(t, buf + i * 8); // sequential within lines
        }
        let r = sim.run(&b.build(), 5).expect("valid program");
        assert!(
            r.total(HwEvent::FillBufferReject) < 50,
            "rejects {}",
            r.total(HwEvent::FillBufferReject)
        );
    }

    #[test]
    fn prefetcher_reduces_demand_misses() {
        let base_cfg = {
            let mut c = MachineConfig::two_socket_small();
            c.noise.timer_interval = 0;
            c.noise.dram_jitter = 0.0;
            c
        };
        let build = |topo: &crate::topology::Topology| {
            let mut b = ProgramBuilder::new(topo, 4096);
            let buf = b.alloc(512 * 1024, AllocPolicy::Bind(0));
            let t = b.add_thread(0);
            for i in 0..(512 * 1024 / 64) {
                b.load(t, buf + i * 64); // line-sequential
            }
            b.build()
        };

        let mut on = base_cfg.clone();
        on.prefetch_enabled = true;
        let sim_on = MachineSim::new(on);
        let r_on = sim_on
            .run(&build(&sim_on.config().topology), 9)
            .expect("valid program");

        let mut off = base_cfg.clone();
        off.prefetch_enabled = false;
        let sim_off = MachineSim::new(off);
        let r_off = sim_off
            .run(&build(&sim_off.config().topology), 9)
            .expect("valid program");

        assert!(r_on.total(HwEvent::L2PrefetchReq) > 0);
        assert_eq!(r_off.total(HwEvent::L2PrefetchReq), 0);
        assert!(
            r_on.total(HwEvent::L3Access) * 4 < r_off.total(HwEvent::L3Access),
            "prefetch {} vs none {}",
            r_on.total(HwEvent::L3Access),
            r_off.total(HwEvent::L3Access)
        );
    }

    #[test]
    fn page_strided_loads_defeat_prefetcher() {
        let sim = machine();
        let mut b = ProgramBuilder::new(&sim.config().topology, 4096);
        let buf = b.alloc(8 << 20, AllocPolicy::Bind(0));
        let t = b.add_thread(0);
        for i in 0..1024u64 {
            b.load(t, buf + i * 4096);
        }
        let r = sim.run(&b.build(), 2).expect("valid program");
        assert_eq!(r.total(HwEvent::L2PrefetchReq), 0);
    }

    #[test]
    fn dependent_chase_sees_full_dram_latency() {
        let sim = machine();
        let mut b = ProgramBuilder::new(&sim.config().topology, 4096);
        let buf = b.alloc(8 << 20, AllocPolicy::Bind(0));
        let t = b.add_thread(0);
        for i in 0..512u64 {
            b.load_dependent(t, buf + i * 4096);
        }
        let p = b.build();
        let samples = collect_samples(&sim, &p);
        let dram: Vec<u64> = samples
            .iter()
            .filter(|s| s.served == ServedBy::LocalDram)
            .map(|s| s.latency)
            .collect();
        assert!(dram.len() > 400);
        let mean = dram.iter().sum::<u64>() as f64 / dram.len() as f64;
        assert!((mean - 230.0).abs() < 60.0, "mean DRAM latency {mean}");
        // And the core actually waited: cycles ≈ loads × latency.
        let r = sim.run(&p, 1).expect("valid program");
        assert!(r.cycles as f64 > 512.0 * 200.0);
    }

    #[test]
    fn hitm_transfer_between_cores() {
        let sim = machine();
        let mut b = ProgramBuilder::new(&sim.config().topology, 4096);
        let buf = b.alloc(4096, AllocPolicy::Bind(0));
        let w = b.add_thread(0);
        let r_ = b.add_thread(1);
        // Writer dirties the line, both synchronise, reader loads it.
        b.store(w, buf);
        b.barrier(w, 1);
        b.barrier(r_, 1);
        b.load(r_, buf);
        let r = sim.run(&b.build(), 11).expect("valid program");
        assert_eq!(r.total(HwEvent::HitmTransfer), 1);
        assert!(r.total(HwEvent::SnoopRequest) >= 1);
    }

    #[test]
    fn store_to_shared_line_invalidates_readers() {
        let sim = machine();
        let mut b = ProgramBuilder::new(&sim.config().topology, 4096);
        let buf = b.alloc(4096, AllocPolicy::Bind(0));
        let a = b.add_thread(0);
        let c = b.add_thread(1);
        b.load(a, buf);
        b.load(c, buf);
        b.barrier(a, 1);
        b.barrier(c, 1);
        b.store(a, buf);
        b.barrier(a, 2);
        b.barrier(c, 2);
        b.load(c, buf); // must miss: was invalidated
        let r = sim.run(&b.build(), 13).expect("valid program");
        assert!(r.total(HwEvent::CoherenceInvalidation) >= 1);
        assert_eq!(r.total(HwEvent::HitmTransfer), 1); // reader pulls dirty line
    }

    #[test]
    fn barrier_synchronises_clocks() {
        let sim = machine();
        let mut b = ProgramBuilder::new(&sim.config().topology, 4096);
        let buf = b.alloc(1 << 20, AllocPolicy::Bind(0));
        let fast = b.add_thread(0);
        let slow = b.add_thread(1);
        b.exec(fast, 10);
        for i in 0..200u64 {
            b.load_dependent(slow, buf + i * 4096);
        }
        b.barrier(fast, 1);
        b.barrier(slow, 1);
        b.exec(fast, 1);
        b.exec(slow, 1);
        let r = sim.run(&b.build(), 1).expect("valid program");
        // Total runtime dominated by the slow thread.
        assert!(r.cycles > 200 * 100);
    }

    #[test]
    fn footprint_series_tracks_reserve_release() {
        let sim = machine();
        let mut b = ProgramBuilder::new(&sim.config().topology, 4096);
        let t = b.add_thread(0);
        for _ in 0..10 {
            b.reserve(t, 1 << 20);
            b.exec(t, 100);
        }
        b.release(t, 5 << 20);
        let r = sim.run(&b.build(), 1).expect("valid program");
        let max_fp = r.footprint.iter().map(|&(_, f)| f).max().unwrap();
        assert_eq!(max_fp, 10 << 20);
        let last_fp = r.footprint.last().unwrap().1;
        assert_eq!(last_fp, 5 << 20);
        // Footprint is non-decreasing until the release.
        let peak_idx = r.footprint.iter().position(|&(_, f)| f == max_fp).unwrap();
        for w in r.footprint[..=peak_idx].windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn determinism_same_seed_same_result() {
        let sim = machine();
        let mut b = ProgramBuilder::new(&sim.config().topology, 4096);
        let buf = b.alloc(1 << 20, AllocPolicy::FirstTouch);
        let t = b.add_thread(0);
        for i in 0..2048u64 {
            b.load(t, buf + (i * 2654435761) % (1 << 20));
        }
        let p = b.build();
        let r1 = sim.run(&p, 42).expect("valid program");
        let r2 = sim.run(&p, 42).expect("valid program");
        assert_eq!(r1.counters, r2.counters);
        assert_eq!(r1.cycles, r2.cycles);
    }

    #[test]
    fn different_seeds_vary_via_noise() {
        let mut cfg = MachineConfig::two_socket_small();
        cfg.noise.timer_interval = 10_000;
        cfg.noise.dram_jitter = 0.06;
        let sim = MachineSim::new(cfg);
        let mut b = ProgramBuilder::new(&sim.config().topology, 4096);
        let buf = b.alloc(4 << 20, AllocPolicy::Bind(0));
        let t = b.add_thread(0);
        for i in 0..4000u64 {
            b.load(t, buf + i * 4096 % (4 << 20));
        }
        let p = b.build();
        let r1 = sim.run(&p, 1).expect("valid program");
        let r2 = sim.run(&p, 2).expect("valid program");
        assert_ne!(r1.cycles, r2.cycles);
    }

    #[test]
    fn cycles_instructions_sanity() {
        let sim = machine();
        let mut b = ProgramBuilder::new(&sim.config().topology, 4096);
        let t = b.add_thread(0);
        b.exec(t, 1000);
        let r = sim.run(&b.build(), 1).expect("valid program");
        assert_eq!(r.total(HwEvent::Instructions), 1000);
        assert_eq!(r.cycles, 1000);
    }

    #[test]
    fn timeslices_fire_for_long_runs() {
        let mut cfg = MachineConfig::two_socket_small();
        cfg.noise.timer_interval = 0;
        cfg.timeslice_cycles = 1000;
        let sim = MachineSim::new(cfg);
        let mut b = ProgramBuilder::new(&sim.config().topology, 4096);
        let t = b.add_thread(0);
        b.exec(t, 10_000);
        struct Slices(usize);
        impl SimObserver for Slices {
            fn on_timeslice(&mut self, _n: u64, _c: &Counters, _f: u64) {
                self.0 += 1;
            }
        }
        let mut s = Slices(0);
        sim.run_observed(&b.build(), 1, &mut s)
            .expect("valid program");
        assert!(s.0 >= 9, "slices {}", s.0);
    }

    #[test]
    fn tlb_flush_forces_rewalks() {
        let sim = machine();
        let mut b = ProgramBuilder::new(&sim.config().topology, 4096);
        let buf = b.alloc(32 * 4096, AllocPolicy::Bind(0));
        let t = b.add_thread(0);
        // Warm the TLB, flush, touch again.
        for i in 0..32u64 {
            b.load(t, buf + i * 4096);
        }
        b.tlb_flush(t);
        for i in 0..32u64 {
            b.load(t, buf + i * 4096);
        }
        let r = sim.run(&b.build(), 1).expect("valid program");
        // 32 cold misses + 32 post-flush misses.
        assert_eq!(r.total(HwEvent::DtlbMiss), 64);
        assert_eq!(r.total(HwEvent::L1dLocked), 64);

        // Without the flush, the second pass hits.
        let mut b = ProgramBuilder::new(&sim.config().topology, 4096);
        let buf = b.alloc(32 * 4096, AllocPolicy::Bind(0));
        let t = b.add_thread(0);
        for _ in 0..2 {
            for i in 0..32u64 {
                b.load(t, buf + i * 4096);
            }
        }
        let r = sim.run(&b.build(), 1).expect("valid program");
        assert_eq!(r.total(HwEvent::DtlbMiss), 32);
    }

    #[test]
    fn imc_contention_raises_latency_with_more_threads() {
        let sim = machine();
        let topo = sim.config().topology.clone();
        let run_with_threads = |n: usize| -> f64 {
            let mut b = ProgramBuilder::new(&topo, 4096);
            let buf = b.alloc(32 << 20, AllocPolicy::Bind(0));
            // All threads hammer node 0's DRAM with page-strided loads.
            for t in 0..n {
                let th = b.add_thread(t);
                for i in 0..1500u64 {
                    b.load(th, buf + ((i * n as u64 + t as u64) * 4096) % (32 << 20));
                }
            }
            let p = b.build();
            struct DramLat(u64, u64);
            impl SimObserver for DramLat {
                fn on_load_sample(&mut self, s: &LoadSample) {
                    if matches!(s.served, ServedBy::LocalDram | ServedBy::RemoteDram { .. }) {
                        self.0 += s.latency;
                        self.1 += 1;
                    }
                }
            }
            let mut o = DramLat(0, 0);
            sim.run_observed(&p, 3, &mut o).expect("valid program");
            o.0 as f64 / o.1.max(1) as f64
        };
        let lat1 = run_with_threads(1);
        let lat8 = run_with_threads(8);
        assert!(
            lat8 > lat1 + 30.0,
            "8-thread DRAM latency {lat8} should exceed 1-thread {lat1} via IMC queueing"
        );
    }

    #[test]
    fn barrier_releases_when_other_threads_already_finished() {
        // t0 runs to completion without ever reaching a barrier; t1 then
        // arrives at one. Finished threads count as passed — no deadlock.
        let sim = machine();
        let mut b = ProgramBuilder::new(&sim.config().topology, 4096);
        let t0 = b.add_thread(0);
        let t1 = b.add_thread(1);
        b.exec(t0, 5);
        for _ in 0..100 {
            b.exec(t1, 100);
        }
        b.barrier(t1, 1);
        b.exec(t1, 7);
        let r = sim.run(&b.build(), 1).expect("valid program");
        assert_eq!(r.total(HwEvent::Instructions), 5 + 100 * 100 + 7);
    }

    #[test]
    fn barrier_releases_when_last_non_waiter_finishes_late() {
        // Reverse arrival order of the test above: t1 reaches its barrier
        // while t0 (which has no barriers) is still executing. When t0
        // finishes it must release t1 — liveness cannot depend on the cost
        // model's timing.
        let sim = machine();
        let mut b = ProgramBuilder::new(&sim.config().topology, 4096);
        let t0 = b.add_thread(0);
        let t1 = b.add_thread(1);
        for _ in 0..100 {
            b.exec(t0, 100);
        }
        b.exec(t1, 5);
        b.barrier(t1, 1);
        b.exec(t1, 7);
        let r = sim.run(&b.build(), 1).expect("valid program");
        assert_eq!(r.total(HwEvent::Instructions), 100 * 100 + 5 + 7);
    }

    #[test]
    fn empty_thread_programs_complete() {
        let sim = machine();
        let mut b = ProgramBuilder::new(&sim.config().topology, 4096);
        b.add_thread(0);
        b.add_thread(1);
        let r = sim.run(&b.build(), 1).expect("valid program");
        assert_eq!(r.cycles, 0);
        assert_eq!(r.total(HwEvent::Instructions), 0);
    }

    #[test]
    fn release_more_than_reserved_saturates() {
        let sim = machine();
        let mut b = ProgramBuilder::new(&sim.config().topology, 4096);
        let t = b.add_thread(0);
        b.reserve(t, 4096);
        b.release(t, 1 << 30);
        let r = sim.run(&b.build(), 1).expect("valid program");
        assert_eq!(r.footprint.last().unwrap().1, 0);
    }

    #[test]
    fn region_labels_attribute_events_to_code() {
        let sim = machine();
        let mut b = ProgramBuilder::new(&sim.config().topology, 4096);
        let buf = b.alloc(8 << 20, AllocPolicy::Bind(0));
        let t = b.add_thread(0);
        // Region 1: cache-friendly; region 2: page-strided misses.
        b.label(t, 1);
        for i in 0..512u64 {
            b.load(t, buf + i * 8);
        }
        b.label(t, 2);
        for i in 0..512u64 {
            b.load(t, buf + 1 + i * 4096);
        }
        let r = sim.run(&b.build(), 1).expect("valid program");
        assert_eq!(r.regions.len(), 2);
        // Loads split evenly.
        assert_eq!(r.region_total(1, HwEvent::LoadRetired), 512);
        assert_eq!(r.region_total(2, HwEvent::LoadRetired), 512);
        // The misses live in region 2 — a perf-annotate-style hot spot.
        assert!(
            r.region_total(2, HwEvent::L1dMiss) > 20 * r.region_total(1, HwEvent::L1dMiss).max(1),
            "region 1: {}, region 2: {}",
            r.region_total(1, HwEvent::L1dMiss),
            r.region_total(2, HwEvent::L1dMiss)
        );
        // Attribution conserves the total within labelled code.
        assert_eq!(
            r.region_total(1, HwEvent::LoadRetired) + r.region_total(2, HwEvent::LoadRetired),
            r.total(HwEvent::LoadRetired)
        );
        // Unknown regions read zero.
        assert_eq!(r.region_total(99, HwEvent::LoadRetired), 0);
    }

    #[test]
    fn region_labels_merge_across_threads() {
        let sim = machine();
        let mut b = ProgramBuilder::new(&sim.config().topology, 4096);
        let buf = b.alloc(1 << 20, AllocPolicy::Bind(0));
        for core in 0..2 {
            let t = b.add_thread(core);
            b.label(t, 7);
            for i in 0..100u64 {
                b.load(t, buf + (core as u64 * 512 + i) * 64);
            }
        }
        let r = sim.run(&b.build(), 1).expect("valid program");
        assert_eq!(r.region_total(7, HwEvent::LoadRetired), 200);
    }

    #[test]
    fn invalid_program_is_a_typed_error() {
        let sim = machine();
        let b = ProgramBuilder::new(&sim.config().topology, 4096);
        let err = sim
            .run(&b.build(), 1)
            .expect_err("empty program is invalid");
        assert!(matches!(err, ValidateError::NoThreads));
    }
}

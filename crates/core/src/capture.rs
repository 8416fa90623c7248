//! Deterministic time-series capture of a measurement campaign.
//!
//! The live sampling path (`np top`) feeds the **global** sampler from
//! whatever thread happens to run a timeslice — good enough for a
//! redraw loop, useless for reproducible artifacts. This module is the
//! deterministic twin: every campaign repetition gets its **own**
//! [`Sampler`] fed by a [`NodeSeriesObserver`] hooked into the simulator's
//! timeslice callback (timestamps are simulated cycles, never wall
//! time), and the per-repetition samplers merge in submission order
//! after the pool joins. The merged capture is a pure function of
//! `(machine, program, events, seed, repetitions, capacity)` — byte-
//! identical across runs and across pool thread counts, which is
//! exactly what the integration tests assert.
//!
//! Two serialized documents come out of a sampled campaign:
//!
//! * [`Capture`] — phase-attributed per-node series, delta-encoded
//!   parallel vectors (the in-tree serde shim has no tuples). This is
//!   what `np run --sample` writes and `np report` reads.
//! * [`Timeline`] — the pool's per-chunk worker profile for the same
//!   campaign. Wall-clock timestamps, so it is deliberately **not**
//!   part of the deterministic capture; it answers the worker-pool
//!   question ("where does the 2-thread wall time go?") instead.

use np_parallel::ChunkProfile;
use np_simulator::{Counters, SimObserver, Topology, LIVE_NODE_EVENTS};
use np_telemetry::timeseries::Sampler;
use serde::{Deserialize, Serialize};

/// Schema tag written into every capture document.
pub const CAPTURE_SCHEMA: &str = "np-capture/1";

/// Schema tag written into every timeline document.
pub const TIMELINE_SCHEMA: &str = "np-timeline/1";

/// A [`SimObserver`] that turns the engine's per-timeslice counter
/// snapshots into per-node delta series: one series per
/// `(node, NUMA indicator event)` pair from [`LIVE_NODE_EVENTS`],
/// timestamped in simulated cycles and attributed to the phase active
/// on the running thread.
pub struct NodeSeriesObserver {
    topology: Topology,
    sampler: Sampler,
    /// Previous cumulative total per `(node, event)` slot, row-major.
    last: Vec<u64>,
}

impl NodeSeriesObserver {
    /// An observer for `topology` recording into a fresh sampler with
    /// `capacity` bins per series.
    pub fn new(topology: Topology, capacity: usize) -> Self {
        let slots = topology.nodes * LIVE_NODE_EVENTS.len();
        NodeSeriesObserver {
            topology,
            sampler: Sampler::new(capacity),
            last: vec![0; slots],
        }
    }

    /// Consumes the observer, yielding the recorded series.
    pub fn into_sampler(self) -> Sampler {
        self.sampler
    }
}

impl SimObserver for NodeSeriesObserver {
    fn on_timeslice(&mut self, now: u64, counters: &Counters, _footprint_bytes: u64) {
        for node in 0..self.topology.nodes {
            for (ei, &(short, event)) in LIVE_NODE_EVENTS.iter().enumerate() {
                let total: u64 = (0..self.topology.cores_per_node)
                    .map(|i| counters.get(self.topology.first_core_of_node(node) + i, event))
                    .sum();
                let slot = node * LIVE_NODE_EVENTS.len() + ei;
                let delta = total.saturating_sub(self.last[slot]);
                self.last[slot] = total;
                self.sampler
                    .record(&format!("node{node}.{short}"), now, delta);
            }
        }
    }
}

/// One series of a [`Capture`]: parallel vectors, time delta-encoded
/// (`t[i] = t0 + dt[0..=i]`), phases as indices into `Capture::phases`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SeriesDoc {
    /// Series name (`rep<R>.node<N>.<event>` for campaign captures).
    pub name: String,
    /// Raw points folded per bin (doubles on each downsample pass).
    pub stride: u64,
    /// Timestamp of the first bin.
    pub t0: u64,
    /// Per-bin time deltas; `dt[0]` is always 0.
    pub dt: Vec<u64>,
    /// Per-bin phase-table index.
    pub phase: Vec<u64>,
    /// Per-bin folded point count.
    pub count: Vec<u64>,
    /// Per-bin value sum.
    pub sum: Vec<u64>,
    /// Per-bin minimum value.
    pub min: Vec<u64>,
    /// Per-bin maximum value.
    pub max: Vec<u64>,
}

impl SeriesDoc {
    /// Reconstructs absolute bin timestamps from the delta encoding.
    pub fn timestamps(&self) -> Vec<u64> {
        let mut t = self.t0;
        self.dt
            .iter()
            .map(|&dt| {
                t += dt;
                t
            })
            .collect()
    }
}

/// The deterministic time-series export of one sampled campaign.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Capture {
    /// [`CAPTURE_SCHEMA`].
    pub schema: String,
    /// Machine topology description the campaign ran on.
    pub machine: String,
    /// Workload / program label.
    pub workload: String,
    /// Base seed of the campaign.
    pub seed: u64,
    /// Repetitions merged into the capture.
    pub repetitions: u64,
    /// Interned phase labels; series bins index into this table.
    pub phases: Vec<String>,
    /// All series, sorted by name.
    pub series: Vec<SeriesDoc>,
}

impl Capture {
    /// Builds the document from a merged sampler. Series come out in the
    /// sampler's sorted-name order, so equal samplers serialize to equal
    /// bytes.
    pub fn from_sampler(
        machine: &str,
        workload: &str,
        seed: u64,
        repetitions: usize,
        sampler: &Sampler,
    ) -> Capture {
        let series = sampler
            .iter()
            .map(|(name, s)| {
                let mut prev = s.bins.first().map_or(0, |b| b.t);
                SeriesDoc {
                    name: name.to_string(),
                    stride: s.stride,
                    t0: prev,
                    dt: s
                        .bins
                        .iter()
                        .map(|b| {
                            let dt = b.t.saturating_sub(prev);
                            prev = b.t;
                            dt
                        })
                        .collect(),
                    phase: s.bins.iter().map(|b| b.phase as u64).collect(),
                    count: s.bins.iter().map(|b| b.count).collect(),
                    sum: s.bins.iter().map(|b| b.sum).collect(),
                    min: s.bins.iter().map(|b| b.min).collect(),
                    max: s.bins.iter().map(|b| b.max).collect(),
                }
            })
            .collect();
        Capture {
            schema: CAPTURE_SCHEMA.to_string(),
            machine: machine.to_string(),
            workload: workload.to_string(),
            seed,
            repetitions: repetitions as u64,
            phases: sampler.phases().to_vec(),
            series,
        }
    }

    /// The distinct node ids appearing in `rep*.node<N>.*` series names.
    pub fn node_ids(&self) -> Vec<usize> {
        let mut nodes: Vec<usize> = self
            .series
            .iter()
            .filter_map(|s| {
                let tail = s.name.split("node").nth(1)?;
                tail.split('.').next()?.parse().ok()
            })
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }
}

/// The pool worker timeline of one campaign: per-chunk attribution as
/// parallel vectors, timestamps re-based to the earliest chunk start so
/// the document is self-contained.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Timeline {
    /// [`TIMELINE_SCHEMA`].
    pub schema: String,
    /// Pool worker count the campaign ran with.
    pub workers: u64,
    /// Chunk index (submission order).
    pub chunk: Vec<u64>,
    /// Worker that executed each chunk.
    pub worker: Vec<u64>,
    /// Queue-wait before each chunk, ns.
    pub wait_ns: Vec<u64>,
    /// Chunk start, ns since the earliest chunk start.
    pub start_ns: Vec<u64>,
    /// Chunk end, ns since the earliest chunk start.
    pub end_ns: Vec<u64>,
}

impl Timeline {
    /// Builds the document from a pool run's profile.
    pub fn from_profile(workers: usize, profile: &[ChunkProfile]) -> Timeline {
        let base = profile.iter().map(|p| p.start_ns).min().unwrap_or(0);
        Timeline {
            schema: TIMELINE_SCHEMA.to_string(),
            workers: workers as u64,
            chunk: profile.iter().map(|p| p.chunk as u64).collect(),
            worker: profile.iter().map(|p| p.worker as u64).collect(),
            wait_ns: profile.iter().map(|p| p.wait_ns).collect(),
            start_ns: profile.iter().map(|p| p.start_ns - base).collect(),
            end_ns: profile.iter().map(|p| p.end_ns - base).collect(),
        }
    }

    /// Total busy (executing) time per worker, ns.
    pub fn busy_per_worker(&self) -> Vec<u64> {
        let mut busy = vec![0u64; self.workers.max(1) as usize];
        for i in 0..self.chunk.len() {
            let w = self.worker[i] as usize;
            if let Some(slot) = busy.get_mut(w) {
                *slot += self.end_ns[i].saturating_sub(self.start_ns[i]);
            }
        }
        busy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_simulator::{HwEvent, MachineConfig, MachineSim};
    use np_workloads::cache_miss::CacheMissKernel;
    use np_workloads::Workload;

    fn machine() -> MachineConfig {
        let mut cfg = MachineConfig::two_socket_small();
        cfg.timeslice_cycles = 2_000;
        cfg
    }

    #[test]
    fn observer_records_per_node_series_in_sim_time() {
        let cfg = machine();
        let sim = MachineSim::new(cfg.clone());
        let program = CacheMissKernel::row_major(32).build(&cfg);
        let mut obs = NodeSeriesObserver::new(cfg.topology.clone(), 128);
        let result = sim
            .run_observed(&program, 7, &mut obs)
            .expect("valid program");
        let sampler = obs.into_sampler();
        assert!(!sampler.is_empty(), "timeslices should have fired");
        // Every node × event pair has a series; deltas resum to the
        // machine totals up to the last timeslice boundary (the tail
        // after the final slice is uncaptured by construction).
        let local0 = sampler.get("node0.local_dram").unwrap();
        assert!(local0.total_sum() <= result.total(HwEvent::LocalDramAccess));
        for node in 0..cfg.topology.nodes {
            for (short, _) in LIVE_NODE_EVENTS {
                assert!(
                    sampler.get(&format!("node{node}.{short}")).is_some(),
                    "missing node{node}.{short}"
                );
            }
        }
        // Timestamps are simulated cycles: multiples of the slice width.
        assert!(local0.bins.iter().all(|b| b.t % 2_000 == 0));
    }

    #[test]
    fn capture_roundtrips_and_orders_series() {
        let mut sampler = Sampler::new(16);
        sampler.record_with_phase("rep0.node1.qpi", 10, 5, "measure");
        sampler.record_with_phase("rep0.node0.qpi", 20, 6, "measure");
        let cap = Capture::from_sampler("two-socket", "row-major", 42, 1, &sampler);
        assert_eq!(cap.schema, CAPTURE_SCHEMA);
        assert_eq!(cap.series[0].name, "rep0.node0.qpi");
        assert_eq!(cap.node_ids(), vec![0, 1]);
        let json = serde_json::to_string(&cap).unwrap();
        let back: Capture = serde_json::from_str(&json).unwrap();
        assert_eq!(cap, back);
    }

    #[test]
    fn timeline_rebases_and_sums_busy_time() {
        let profile = vec![
            ChunkProfile {
                chunk: 0,
                worker: 0,
                wait_ns: 5,
                start_ns: 1_000,
                end_ns: 1_400,
            },
            ChunkProfile {
                chunk: 1,
                worker: 1,
                wait_ns: 9,
                start_ns: 1_100,
                end_ns: 1_250,
            },
        ];
        let tl = Timeline::from_profile(2, &profile);
        assert_eq!(tl.start_ns, vec![0, 100]);
        assert_eq!(tl.end_ns, vec![400, 250]);
        assert_eq!(tl.busy_per_worker(), vec![400, 150]);
        let json = serde_json::to_string(&tl).unwrap();
        let back: Timeline = serde_json::from_str(&json).unwrap();
        assert_eq!(tl, back);
    }
}

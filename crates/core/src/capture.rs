//! Deterministic time-series capture of a measurement campaign.
//!
//! [`NodeSeriesObserver`] is the one producer of per-node time series.
//! Hooked into the simulator's timeslice callback, it turns cumulative
//! counters into per-`(node, event)` delta series in its own
//! [`Sampler`], timestamped in simulated cycles (never wall time).
//! `np run --sample` gives every campaign repetition its own observer
//! and merges the samplers in submission order after the pool joins,
//! so the merged capture is a pure function of
//! `(machine, program, events, seed, repetitions, capacity)` — byte-
//! identical across runs and across pool thread counts, which is
//! exactly what the integration tests assert. `np top` keeps one
//! observer alive across the runs of its simulating thread and redraws
//! from copies of its sampler.
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
//!
//! Each has one loader ([`Capture::load`], [`Timeline::load`]) that
//! validates what readers index or size tables by, so a hostile file
//! gets an error message instead of a panic or a huge allocation.

use np_parallel::ChunkProfile;
use np_simulator::{Counters, SimObserver, Topology, LIVE_NODE_EVENTS};
use np_telemetry::timeseries::Sampler;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Schema tag written into every capture document.
pub const CAPTURE_SCHEMA: &str = "np-capture/1";

/// Schema tag written into every timeline document.
pub const TIMELINE_SCHEMA: &str = "np-timeline/1";

/// The widest pool a timeline may describe (the report draws a row per worker).
const MAX_TIMELINE_WORKERS: u64 = 4096;

/// A [`SimObserver`] that turns the engine's per-timeslice counter
/// snapshots into per-node delta series: one `node<N>.<event>` series
/// per node and [`LIVE_NODE_EVENTS`] family, timestamped in simulated
/// cycles and attributed to the phase active on the running thread.
/// Deltas come from [`Sampler::record_cumulative`], so an observer
/// reused across runs records 0 for the first slice of each later run.
pub struct NodeSeriesObserver {
    topology: Topology,
    sampler: Sampler,
}

impl NodeSeriesObserver {
    /// An observer for `topology` recording into a fresh sampler with
    /// `capacity` bins per series.
    pub fn new(topology: Topology, capacity: usize) -> Self {
        NodeSeriesObserver {
            topology,
            sampler: Sampler::new(capacity),
        }
    }

    /// The series recorded so far.
    pub fn sampler(&self) -> &Sampler {
        &self.sampler
    }

    /// Consumes the observer, yielding the recorded series.
    pub fn into_sampler(self) -> Sampler {
        self.sampler
    }
}

impl SimObserver for NodeSeriesObserver {
    fn on_timeslice(&mut self, now: u64, counters: &Counters, _footprint_bytes: u64) {
        for node in 0..self.topology.nodes {
            for &(short, event) in LIVE_NODE_EVENTS {
                let total: u64 = (0..self.topology.cores_per_node)
                    .map(|i| counters.get(self.topology.first_core_of_node(node) + i, event))
                    .sum();
                self.sampler
                    .record_cumulative(&format!("node{node}.{short}"), now, total);
            }
        }
    }
}

/// Splits a series name into `(node, event)`: `rep0.node2.local_dram`
/// (a campaign capture) and `node2.local_dram` (one observer) both give
/// `(2, "local_dram")`; any other shape gives `None`.
pub fn split_series_name(name: &str) -> Option<(usize, &str)> {
    let mut parts = name.split('.');
    let mut node = parts.next()?;
    if node.starts_with("rep") {
        node = parts.next()?;
    }
    let short = parts.next()?;
    if parts.next().is_some() {
        return None;
    }
    let id: usize = node.strip_prefix("node")?.parse().ok()?;
    Some((id, short))
}

/// The loader of both documents: read `path`, parse it, then
/// `validate` it (schema tag first). Errors name the file.
fn load_doc<T: Deserialize>(
    path: &Path,
    kind: &str,
    validate: fn(&T) -> Result<(), String>,
) -> Result<T, String> {
    let shown = path.display();
    let json = std::fs::read_to_string(path).map_err(|e| format!("cannot read '{shown}': {e}"))?;
    let doc = serde_json::from_str(&json).map_err(|e| format!("invalid {kind} '{shown}': {e}"))?;
    validate(&doc).map_err(|e| format!("invalid {kind} '{shown}': {e}"))?;
    Ok(doc)
}

/// Refuses a document written under another schema version.
fn check_schema(found: &str, expected: &str) -> Result<(), String> {
    (found == expected)
        .then_some(())
        .ok_or_else(|| format!("schema '{found}' (this build reads '{expected}')"))
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

    /// The distinct node ids appearing in the series names.
    pub fn node_ids(&self) -> Vec<usize> {
        let mut nodes: Vec<usize> = self
            .series
            .iter()
            .filter_map(|s| split_series_name(&s.name).map(|(node, _)| node))
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }

    /// Reads and checks the capture file at `path`: the one loader
    /// behind `np report` and `np patterns --capture`.
    pub fn load(path: impl AsRef<Path>) -> Result<Capture, String> {
        load_doc(path.as_ref(), "capture", Capture::validate)
    }

    /// Checks the schema tag, that each series' per-bin vectors have one
    /// entry per bin, that its bin times (`t0` plus the running `dt` sum)
    /// and its total (the sum of its bin sums) fit a `u64` and its phase
    /// indices the phase table, and that node ids stay below the series
    /// count (as a real capture's do, one series per node at least), so
    /// per-node tables fit the file.
    fn validate(&self) -> Result<(), String> {
        check_schema(&self.schema, CAPTURE_SCHEMA)?;
        for s in &self.series {
            let lens = [&s.phase, &s.count, &s.sum, &s.min, &s.max].map(|v| v.len());
            if lens.iter().any(|&n| n != s.dt.len()) {
                return Err(format!(
                    "series '{}' has {} bins but (phase, count, sum, min, max) lengths {lens:?}",
                    s.name,
                    s.dt.len()
                ));
            }
            if s.dt
                .iter()
                .try_fold(s.t0, |t, &dt| t.checked_add(dt))
                .is_none()
            {
                return Err(format!(
                    "series '{}' has bin times past 2^64 (t0 {} plus its dt sum)",
                    s.name, s.t0
                ));
            }
            if s.sum
                .iter()
                .try_fold(0u64, |t, &v| t.checked_add(v))
                .is_none()
            {
                return Err(format!("series '{}' has bin sums past 2^64", s.name));
            }
            if let Some(p) = s.phase.iter().find(|&&p| p >= self.phases.len() as u64) {
                return Err(format!(
                    "series '{}' names phase {p}, but there are {} phases",
                    s.name,
                    self.phases.len()
                ));
            }
        }
        match self.node_ids().last() {
            Some(node) if *node >= self.series.len() => Err(format!(
                "node id {node} is not below the series count {}",
                self.series.len()
            )),
            _ => Ok(()),
        }
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

    /// Reads and checks the timeline file at `path`.
    pub fn load(path: impl AsRef<Path>) -> Result<Timeline, String> {
        load_doc(path.as_ref(), "timeline", Timeline::validate)
    }

    /// Checks the schema tag and everything readers index or size by:
    /// the per-chunk vectors have one entry per chunk, the worker count
    /// is at most `MAX_TIMELINE_WORKERS` and every worker id is below
    /// it.
    fn validate(&self) -> Result<(), String> {
        check_schema(&self.schema, TIMELINE_SCHEMA)?;
        let lens = [&self.worker, &self.wait_ns, &self.start_ns, &self.end_ns].map(|v| v.len());
        if lens.iter().any(|&n| n != self.chunk.len()) {
            return Err(format!(
                "{} chunks but (worker, wait_ns, start_ns, end_ns) lengths {lens:?}",
                self.chunk.len()
            ));
        }
        if self.workers > MAX_TIMELINE_WORKERS {
            return Err(format!(
                "{} workers exceed the {MAX_TIMELINE_WORKERS} supported",
                self.workers
            ));
        }
        match self.worker.iter().find(|&&w| w >= self.workers) {
            Some(w) => Err(format!(
                "worker id {w} is not below the {} workers",
                self.workers
            )),
            None => Ok(()),
        }
    }

    /// Total busy (executing) time per worker, ns.
    pub fn busy_per_worker(&self) -> Vec<u64> {
        let mut busy = vec![0u64; self.workers.max(1) as usize];
        for i in 0..self.chunk.len() {
            let w = self.worker[i] as usize;
            if let Some(slot) = busy.get_mut(w) {
                *slot = slot.saturating_add(self.end_ns[i].saturating_sub(self.start_ns[i]));
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
        sampler.record_with_phase("rep0.node1.qpi", 35, 7, "measure");
        let cap = Capture::from_sampler("two-socket", "row-major", 42, 1, &sampler);
        assert_eq!(cap.schema, CAPTURE_SCHEMA);
        assert_eq!(cap.series[0].name, "rep0.node0.qpi");
        assert_eq!(cap.node_ids(), vec![0, 1]);
        // Time is delta-encoded from t0.
        assert_eq!(cap.series[1].t0, 10);
        assert_eq!(cap.series[1].dt, vec![0, 25]);
        assert_eq!(cap.series[1].timestamps(), vec![10, 35]);
        let json = serde_json::to_string(&cap).unwrap();
        let back: Capture = serde_json::from_str(&json).unwrap();
        assert_eq!(cap, back);
    }

    #[test]
    fn bin_times_past_u64_max_are_invalid() {
        let mut sampler = Sampler::new(16);
        sampler.record_with_phase("rep0.node0.qpi", 10, 5, "measure");
        sampler.record_with_phase("rep0.node0.qpi", 35, 7, "measure");
        let mut cap = Capture::from_sampler("two-socket", "row-major", 42, 1, &sampler);
        assert!(cap.validate().is_ok());
        assert_eq!(cap.series[0].dt, vec![0, 25]);
        cap.series[0].t0 = u64::MAX - 25;
        assert!(cap.validate().is_ok(), "the last bin lands on u64::MAX");
        cap.series[0].t0 = u64::MAX - 24;
        let err = cap.validate().unwrap_err();
        assert!(err.contains("bin times past 2^64"), "{err}");
    }

    #[test]
    fn bin_sums_past_u64_max_are_invalid() {
        let mut sampler = Sampler::new(16);
        sampler.record_with_phase("rep0.node0.qpi", 10, 5, "measure");
        sampler.record_with_phase("rep0.node0.qpi", 35, 7, "measure");
        let mut cap = Capture::from_sampler("two-socket", "row-major", 42, 1, &sampler);
        cap.series[0].sum = vec![u64::MAX - 1, 1];
        assert!(cap.validate().is_ok(), "the total lands on u64::MAX");
        cap.series[0].sum = vec![u64::MAX, 1];
        let err = cap.validate().unwrap_err();
        assert!(err.contains("bin sums past 2^64"), "{err}");
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

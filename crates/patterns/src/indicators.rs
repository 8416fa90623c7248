//! The raw indicator vector the classifier consumes.
//!
//! Two constructors, one shape: [`Indicators::from_run`] reduces full
//! per-core counters to per-node sums after a simulator run, and
//! [`Indicators::from_capture_phase`] rebuilds the same per-node sums
//! from one phase slice of an `np-capture/1` timeline (the capture
//! observer exports exactly the [`LIVE_NODE_EVENTS`] families the
//! metrics need). Downstream code never cares which path produced the
//! vector — unavailable inputs surface as zeroes and the metric layer
//! reports them as such.

pub use np_core::capture::split_series_name;

use np_core::capture::Capture;
use np_simulator::{RunResult, Topology, LIVE_NODE_EVENTS};

/// Per-node event sums: one slot per live indicator family.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeVector {
    /// Instructions retired by the node's cores.
    pub instructions: u64,
    /// Busy cycles of the node's cores.
    pub cycles: u64,
    /// Cycles the node's cores stalled on memory.
    pub mem_stall: u64,
    /// DRAM accesses served by the node's own controllers.
    pub local_dram: u64,
    /// DRAM accesses this node's cores sent across the interconnect.
    pub remote_dram: u64,
    /// Interconnect transfers charged to the node.
    pub qpi: u64,
    /// Dirty cache-to-cache transfers involving the node's cores.
    pub hitm: u64,
    /// Last-level-cache misses of the node's cores.
    pub l3_miss: u64,
    /// dTLB misses of the node's cores.
    pub dtlb_miss: u64,
    /// Loads retired by the node's cores.
    pub load: u64,
    /// Stores retired by the node's cores.
    pub store: u64,
    /// Reads served by the node's memory controller.
    pub imc_read: u64,
    /// Writes absorbed by the node's memory controller.
    pub imc_write: u64,
}

impl NodeVector {
    /// DRAM requests issued by this node's cores (saturating).
    pub fn dram_requests(&self) -> u64 {
        self.local_dram.saturating_add(self.remote_dram)
    }

    /// Traffic served by this node's memory controller (saturating).
    pub fn imc_total(&self) -> u64 {
        self.imc_read.saturating_add(self.imc_write)
    }

    /// Accumulates one event family by its short series name (the
    /// `LIVE_NODE_EVENTS` vocabulary); unknown names are ignored, so
    /// callers can feed mixed telemetry streams straight through. Sums
    /// saturate: a capture file's counts are not trusted to fit.
    pub fn add(&mut self, short: &str, v: u64) {
        let field = match short {
            "instructions" => &mut self.instructions,
            "cycles" => &mut self.cycles,
            "mem_stall" => &mut self.mem_stall,
            "local_dram" => &mut self.local_dram,
            "remote_dram" => &mut self.remote_dram,
            "qpi" => &mut self.qpi,
            "hitm" => &mut self.hitm,
            "l3_miss" => &mut self.l3_miss,
            "dtlb_miss" => &mut self.dtlb_miss,
            "load" => &mut self.load,
            "store" => &mut self.store,
            "imc_read" => &mut self.imc_read,
            "imc_write" => &mut self.imc_write,
            _ => return,
        };
        *field = field.saturating_add(v);
    }
}

/// The classifier's input: per-node vectors plus the run clock.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Indicators {
    /// One vector per NUMA node, node id = index.
    pub nodes: Vec<NodeVector>,
    /// Wall clock of the run (slowest core) or span of the phase slice,
    /// in simulated cycles.
    pub wall_cycles: u64,
}

impl Indicators {
    /// Reduces a run's per-core counters to per-node sums.
    pub fn from_run(result: &RunResult, topology: &Topology) -> Indicators {
        let mut nodes = vec![NodeVector::default(); topology.nodes];
        for (node, nv) in nodes.iter_mut().enumerate() {
            let base = topology.first_core_of_node(node);
            for core in base..base + topology.cores_per_node {
                for &(short, event) in LIVE_NODE_EVENTS {
                    nv.add(short, result.counters.get(core, event));
                }
            }
        }
        Indicators {
            nodes,
            wall_cycles: result.cycles,
        }
    }

    /// Rebuilds per-node sums from the bins of one capture phase (by
    /// index into `capture.phases`), summed across repetitions.
    ///
    /// Series names follow the campaign convention
    /// `rep<R>.node<N>.<event>`; a bare `node<N>.<event>` (observer
    /// output that never went through the rep merge) is accepted too.
    /// The node table is sized by the largest node id, which
    /// [`Capture::load`] bounds for captures read from a file.
    pub fn from_capture_phase(capture: &Capture, phase: usize) -> Indicators {
        let mut nodes: Vec<NodeVector> = Vec::new();
        let mut t_min = u64::MAX;
        let mut t_max = 0u64;
        for series in &capture.series {
            let Some((node, short)) = split_series_name(&series.name) else {
                continue;
            };
            if nodes.len() <= node {
                nodes.resize(node + 1, NodeVector::default());
            }
            let times = series.timestamps();
            for ((&p, &sum), &t) in series.phase.iter().zip(&series.sum).zip(&times) {
                if p != phase as u64 {
                    continue;
                }
                nodes[node].add(short, sum);
                t_min = t_min.min(t);
                t_max = t_max.max(t);
            }
        }
        Indicators {
            nodes,
            wall_cycles: t_max.saturating_sub(if t_min == u64::MAX { 0 } else { t_min }),
        }
    }

    /// Machine-wide sum of one field (saturating).
    pub fn total(&self, f: impl Fn(&NodeVector) -> u64) -> u64 {
        self.nodes.iter().map(f).fold(0, u64::saturating_add)
    }

    /// Nodes actually executing work: instruction count above 1% of the
    /// busiest node's. Keeps idle sockets of a wide machine from
    /// polluting the imbalance coefficients when a two-thread workload
    /// runs on an eight-node ring.
    pub fn active_nodes(&self) -> Vec<usize> {
        let max = self.nodes.iter().map(|n| n.instructions).max().unwrap_or(0);
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| max > 0 && n.instructions > max / 100)
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_simulator::{AllocPolicy, HwEvent, MachineConfig, MachineSim, ProgramBuilder};

    fn quiet() -> MachineConfig {
        let mut cfg = MachineConfig::two_socket_small();
        cfg.noise.timer_interval = 0;
        cfg.noise.dram_jitter = 0.0;
        cfg
    }

    #[test]
    fn node_sums_saturate_on_hostile_counts() {
        let mut n = NodeVector::default();
        n.add("imc_read", u64::MAX - 1);
        n.add("imc_read", 5);
        n.add("imc_write", 9);
        n.add("local_dram", u64::MAX);
        n.add("remote_dram", 1);
        n.add("unknown", u64::MAX);
        assert_eq!(n.imc_read, u64::MAX);
        assert_eq!(n.imc_total(), u64::MAX);
        assert_eq!(n.dram_requests(), u64::MAX);
        let ind = Indicators {
            nodes: vec![n, n],
            wall_cycles: 0,
        };
        assert_eq!(ind.total(|n| n.imc_write), 18);
        assert_eq!(ind.total(|n| n.imc_read), u64::MAX);
    }

    #[test]
    fn run_reduction_matches_machine_totals() {
        let cfg = quiet();
        let sim = MachineSim::new(cfg.clone());
        let mut b = ProgramBuilder::new(&cfg.topology, cfg.page_bytes);
        let buf = b.alloc(1 << 20, AllocPolicy::Bind(1));
        let t0 = b.add_thread(0);
        for i in 0..256u64 {
            b.load(t0, buf + i * 4096);
        }
        let r = sim.run(&b.build(), 3).expect("valid program");
        let ind = Indicators::from_run(&r, &cfg.topology);
        assert_eq!(ind.nodes.len(), 2);
        assert_eq!(
            ind.total(|n| n.remote_dram),
            r.total(HwEvent::RemoteDramAccess)
        );
        assert_eq!(
            ind.total(|n| n.instructions),
            r.total(HwEvent::Instructions)
        );
        // The single thread on node 0 issues everything.
        assert_eq!(ind.nodes[1].instructions, 0);
        assert!(ind.nodes[0].remote_dram > 0);
        assert_eq!(ind.active_nodes(), vec![0]);
        assert_eq!(ind.wall_cycles, r.cycles);
    }

    #[test]
    fn series_names_split_with_and_without_rep() {
        assert_eq!(
            split_series_name("rep0.node2.local_dram"),
            Some((2, "local_dram"))
        );
        assert_eq!(split_series_name("node11.qpi"), Some((11, "qpi")));
        assert_eq!(split_series_name("par.q.depth"), None);
        assert_eq!(split_series_name("node2"), None);
    }

    #[test]
    fn capture_slice_sums_one_phase_only() {
        use np_telemetry::timeseries::Sampler;
        let mut s = Sampler::new(32);
        s.record_with_phase("rep0.node0.local_dram", 100, 10, "build");
        s.record_with_phase("rep0.node0.local_dram", 200, 30, "probe");
        s.record_with_phase("rep0.node1.remote_dram", 200, 7, "probe");
        let cap = Capture::from_sampler("two-socket", "hashjoin", 1, 1, &s);
        let build = cap.phases.iter().position(|p| p == "build").unwrap();
        let probe = cap.phases.iter().position(|p| p == "probe").unwrap();
        let b = Indicators::from_capture_phase(&cap, build);
        assert_eq!(b.total(|n| n.local_dram), 10);
        assert_eq!(b.total(|n| n.remote_dram), 0);
        let p = Indicators::from_capture_phase(&cap, probe);
        assert_eq!(p.total(|n| n.local_dram), 30);
        assert_eq!(p.nodes[1].remote_dram, 7);
    }
}

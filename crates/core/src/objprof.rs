//! Object-relative memory profiling.
//!
//! §II-D cites Wu et al.'s LEAP profiler, which "examine[s] the influence
//! of memory locality … by exposing memory access regularities using
//! object-relative memory profiling" — statistics are aggregated per
//! *allocated object*, not per code location. This module is that view
//! for the simulator: every load sample is attributed to the allocation
//! (region) containing its address, yielding per-object access counts,
//! latency distributions, serving-level mixes and remote fractions — the
//! data-centric complement to [`crate::annotate`]'s code-centric view.

use crate::report::{fmt_count, render_table};
use np_simulator::{LoadSample, MachineSim, Program, ServedBy, SimObserver};

/// Per-object (per-allocation) access statistics.
#[derive(Debug, Clone)]
pub struct ObjectStats {
    /// Object label (index of the allocation, in allocation order).
    pub object: usize,
    /// Base address of the allocation.
    pub base: u64,
    /// Padded size in bytes.
    pub bytes: u64,
    /// Loads observed.
    pub loads: u64,
    /// Sum of use latencies (cycles).
    pub latency_sum: u64,
    /// Loads served by each level: [L1, L2, L3, local DRAM, remote DRAM,
    /// cache-to-cache].
    pub by_level: [u64; 6],
}

impl ObjectStats {
    /// Mean use latency per load.
    pub fn mean_latency(&self) -> f64 {
        if self.loads == 0 {
            0.0
        } else {
            self.latency_sum as f64 / self.loads as f64
        }
    }

    /// Fraction of loads served by remote DRAM or remote caches.
    pub fn remote_fraction(&self) -> f64 {
        if self.loads == 0 {
            return 0.0;
        }
        self.by_level[4] as f64 / self.loads as f64
    }

    /// Fraction of loads that left the private caches.
    pub fn uncore_fraction(&self) -> f64 {
        if self.loads == 0 {
            return 0.0;
        }
        (self.by_level[2] + self.by_level[3] + self.by_level[4] + self.by_level[5]) as f64
            / self.loads as f64
    }
}

/// The profiling observer: attributes samples to allocations by address.
pub struct ObjectProfiler {
    /// Sorted `(base, end, object index)` ranges.
    ranges: Vec<(u64, u64, usize)>,
    /// Stats, indexed like `ranges`' object indices.
    stats: Vec<ObjectStats>,
    /// Samples that hit no allocation (should be zero for well-formed
    /// programs).
    pub unattributed: u64,
}

impl ObjectProfiler {
    /// Builds a profiler for the allocations of `program`.
    pub fn new(program: &Program) -> Self {
        let mut ranges = Vec::new();
        let mut stats = Vec::new();
        for (i, (base, bytes, _policy)) in program.space().regions().enumerate() {
            ranges.push((base, base + bytes, i));
            stats.push(ObjectStats {
                object: i,
                base,
                bytes,
                loads: 0,
                latency_sum: 0,
                by_level: [0; 6],
            });
        }
        ranges.sort_by_key(|&(b, _, _)| b);
        ObjectProfiler {
            ranges,
            stats,
            unattributed: 0,
        }
    }

    fn object_of(&self, addr: u64) -> Option<usize> {
        // Binary search over sorted, disjoint ranges.
        let idx = self.ranges.partition_point(|&(base, _, _)| base <= addr);
        if idx == 0 {
            return None;
        }
        let (base, end, obj) = self.ranges[idx - 1];
        if addr >= base && addr < end {
            Some(obj)
        } else {
            None
        }
    }

    /// The collected statistics, in allocation order.
    pub fn stats(&self) -> &[ObjectStats] {
        &self.stats
    }

    /// Objects ranked by total latency cost — "which data structure hurts".
    pub fn ranked_by_cost(&self) -> Vec<&ObjectStats> {
        let mut v: Vec<&ObjectStats> = self.stats.iter().filter(|s| s.loads > 0).collect();
        v.sort_by_key(|s| std::cmp::Reverse(s.latency_sum));
        v
    }

    /// Renders the LEAP-style table.
    pub fn render(&self, names: &[&str]) -> String {
        let rows: Vec<Vec<String>> = self
            .stats
            .iter()
            .map(|s| {
                vec![
                    names
                        .get(s.object)
                        .map_or_else(|| format!("object {}", s.object), |n| n.to_string()),
                    format!("{} KiB", s.bytes >> 10),
                    fmt_count(s.loads as f64),
                    format!("{:.1}", s.mean_latency()),
                    format!("{:.1} %", 100.0 * s.uncore_fraction()),
                    format!("{:.1} %", 100.0 * s.remote_fraction()),
                ]
            })
            .collect();
        render_table(
            &[
                "object",
                "size",
                "loads",
                "mean latency",
                "beyond L2",
                "remote",
            ],
            &rows,
        )
    }
}

impl SimObserver for ObjectProfiler {
    fn on_load_sample(&mut self, s: &LoadSample) {
        match self.object_of(s.addr) {
            Some(obj) => {
                let st = &mut self.stats[obj];
                st.loads += 1;
                st.latency_sum += s.latency;
                let lvl = match s.served {
                    ServedBy::L1 => 0,
                    ServedBy::L2 => 1,
                    ServedBy::L3 => 2,
                    ServedBy::LocalDram => 3,
                    ServedBy::RemoteDram { .. } => 4,
                    ServedBy::Hitm { .. } => 5,
                };
                st.by_level[lvl] += 1;
            }
            None => self.unattributed += 1,
        }
    }
}

/// Convenience: profile one program end to end.
pub fn profile(sim: &MachineSim, program: &Program, seed: u64) -> ObjectProfiler {
    let mut p = ObjectProfiler::new(program);
    // An invalid program contributes no slices; the observer just
    // stays empty, which the caller sees as zero coverage.
    let _ = sim.run_observed(program, seed, &mut p);
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_simulator::{AllocPolicy, MachineConfig, ProgramBuilder};

    fn sim() -> MachineSim {
        let mut cfg = MachineConfig::two_socket_small();
        cfg.noise.timer_interval = 0;
        cfg.noise.dram_jitter = 0.0;
        MachineSim::new(cfg)
    }

    #[test]
    fn attributes_loads_to_the_right_object() {
        let sim = sim();
        let mut b = ProgramBuilder::new(&sim.config().topology, 4096);
        let hot = b.alloc(4096, AllocPolicy::Bind(0)); // object 0
        let cold = b.alloc(8 << 20, AllocPolicy::Bind(1)); // object 1: remote!
        let t = b.add_thread(0);
        for i in 0..500u64 {
            b.load(t, hot + (i * 8) % 4096);
            if i % 5 == 0 {
                b.load_dependent(t, cold + (i * 40_961) % (8 << 20));
            }
        }
        let program = b.build();
        let prof = profile(&sim, &program, 1);
        assert_eq!(prof.unattributed, 0);

        let s0 = &prof.stats()[0];
        let s1 = &prof.stats()[1];
        assert_eq!(s0.loads, 500);
        assert_eq!(s1.loads, 100);
        // The small hot object is cache-resident and local.
        assert!(
            s0.mean_latency() < 20.0,
            "hot latency {}",
            s0.mean_latency()
        );
        assert!(s0.remote_fraction() < 0.01);
        // The big bound-remote object is expensive and remote.
        assert!(
            s1.mean_latency() > 250.0,
            "cold latency {}",
            s1.mean_latency()
        );
        assert!(
            s1.remote_fraction() > 0.9,
            "remote {}",
            s1.remote_fraction()
        );
    }

    #[test]
    fn ranking_orders_by_total_cost() {
        let sim = sim();
        let mut b = ProgramBuilder::new(&sim.config().topology, 4096);
        let a = b.alloc(1 << 20, AllocPolicy::Bind(0));
        let c = b.alloc(8 << 20, AllocPolicy::Bind(1));
        let t = b.add_thread(0);
        for i in 0..50u64 {
            b.load(t, a + i * 64);
        }
        for i in 0..200u64 {
            b.load_dependent(t, c + i * 40_960);
        }
        let program = b.build();
        let prof = profile(&sim, &program, 1);
        let ranked = prof.ranked_by_cost();
        assert_eq!(
            ranked[0].object, 1,
            "the chased remote object dominates cost"
        );
    }

    #[test]
    fn render_uses_names() {
        let sim = sim();
        let mut b = ProgramBuilder::new(&sim.config().topology, 4096);
        let a = b.alloc(4096, AllocPolicy::Bind(0));
        let t = b.add_thread(0);
        b.load(t, a);
        let program = b.build();
        let prof = profile(&sim, &program, 1);
        let text = prof.render(&["input image"]);
        assert!(text.contains("input image"));
        assert!(text.contains("mean latency"));
    }

    #[test]
    fn out_of_range_addresses_counted_unattributed() {
        let mut b = ProgramBuilder::new(&sim().config().topology, 4096);
        b.alloc(4096, AllocPolicy::Bind(0));
        let t = b.add_thread(0);
        b.exec(t, 1);
        let program = b.build();
        let mut prof = ObjectProfiler::new(&program);
        // Feed a synthetic sample beyond all allocations.
        prof.on_load_sample(&LoadSample {
            core: 0,
            addr: 0xFFFF_0000,
            latency: 4,
            served: ServedBy::L1,
            time: 0,
        });
        assert_eq!(prof.unattributed, 1);
        // And one below the first allocation (address 0 is unmapped).
        prof.on_load_sample(&LoadSample {
            core: 0,
            addr: 0,
            latency: 4,
            served: ServedBy::L1,
            time: 0,
        });
        assert_eq!(prof.unattributed, 2);
    }
}

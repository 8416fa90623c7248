//! Derived metrics in deterministic per-mille fixed point.
//!
//! Every metric is an integer ratio of event sums — no floats anywhere,
//! so two runs with equal counters produce byte-equal JSON regardless of
//! platform or thread count. A metric whose denominator is empty (an
//! old capture without the family, a phase slice with no retirement) is
//! *unavailable* rather than zero: rules over it cannot fire and the
//! evidence says why.

use crate::indicators::Indicators;

/// The derived metrics the signature rules compare against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MetricId {
    /// Remote share of DRAM requests: `remote / (local + remote)`.
    RemoteRatio,
    /// DRAM requests per thousand busy core cycles.
    DramPerKcycle,
    /// Memory-stall share of busy core cycles.
    MemStallFrac,
    /// HITM transfers per thousand retired memory ops.
    HitmPerKop,
    /// dTLB misses per thousand retired instructions.
    DtlbMpki,
    /// Memory-controller concentration over the nodes involved in the
    /// run: 0 = traffic spread evenly, 1000 = one controller serves
    /// everything, normalised so the score is comparable between a
    /// two-node and an eight-node machine.
    ImcSkew,
    /// Work imbalance over the active nodes: `1 - mean/max` of per-node
    /// retired instructions.
    WorkSkew,
}

impl MetricId {
    /// Every metric, in document order.
    pub const ALL: [MetricId; 7] = [
        MetricId::RemoteRatio,
        MetricId::DramPerKcycle,
        MetricId::MemStallFrac,
        MetricId::HitmPerKop,
        MetricId::DtlbMpki,
        MetricId::ImcSkew,
        MetricId::WorkSkew,
    ];

    /// The stable name used in JSON documents and evidence lines.
    pub fn name(self) -> &'static str {
        match self {
            MetricId::RemoteRatio => "remote_ratio",
            MetricId::DramPerKcycle => "dram_per_kcycle",
            MetricId::MemStallFrac => "mem_stall_frac",
            MetricId::HitmPerKop => "hitm_per_kop",
            MetricId::DtlbMpki => "dtlb_mpki",
            MetricId::ImcSkew => "imc_skew",
            MetricId::WorkSkew => "work_skew",
        }
    }

    fn index(self) -> usize {
        MetricId::ALL.iter().position(|m| *m == self).unwrap()
    }
}

/// The derived values; `None` = unavailable from this input.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricSet {
    values: [Option<u64>; 7],
}

impl MetricSet {
    /// The per-mille value of one metric, if derivable.
    pub fn get(&self, id: MetricId) -> Option<u64> {
        self.values[id.index()]
    }

    fn set(&mut self, id: MetricId, v: Option<u64>) {
        self.values[id.index()] = v;
    }
}

/// `a * 1000 / b`, `None` when the denominator is empty. Computed in
/// `u128`, so counts past `u64::MAX / 1000` (a hostile capture's) cannot
/// overflow; a ratio too large for `u64` saturates.
fn per_mille(a: u64, b: u64) -> Option<u64> {
    (u128::from(a) * 1000)
        .checked_div(u128::from(b))
        .map(saturate)
}

/// `v` as `u64`, saturating.
fn saturate(v: u128) -> u64 {
    u64::try_from(v).unwrap_or(u64::MAX)
}

/// `1000 - mean/max` over a set of per-node values: 0 = perfectly even,
/// →1000 as one node carries everything. Fewer than two nodes (or no
/// traffic at all) is even by definition.
fn skew_pm(values: &[u64]) -> u64 {
    let max = values.iter().copied().max().unwrap_or(0);
    if values.len() < 2 || max == 0 {
        return 0;
    }
    let sum: u128 = values.iter().map(|&v| u128::from(v)).sum();
    let mean_pm = sum * 1000 / values.len() as u128;
    1000 - saturate(mean_pm / u128::from(max))
}

/// Concentration of a set of per-node values: 0 = perfectly even, 1000 =
/// one node carries everything — *normalised by the node count*, so a
/// full bind scores 1000 whether one controller out of two or one out of
/// eight serves the traffic. `(max·k − sum) / (max·(k−1))` in per-mille.
fn concentration_pm(values: &[u64]) -> u64 {
    let max = values.iter().copied().max().unwrap_or(0);
    let k = values.len() as u64;
    if k < 2 || max == 0 {
        return 0;
    }
    let (max, k) = (u128::from(max), u128::from(k));
    let sum: u128 = values.iter().map(|&v| u128::from(v)).sum();
    saturate((max * k - sum) * 1000 / (max * (k - 1)))
}

/// Derives every metric from one indicator vector.
pub fn derive(ind: &Indicators) -> MetricSet {
    let mut m = MetricSet::default();
    let local = ind.total(|n| n.local_dram);
    let remote = ind.total(|n| n.remote_dram);
    let cycles = ind.total(|n| n.cycles);
    let instructions = ind.total(|n| n.instructions);
    let mem_ops = ind.total(|n| n.load).saturating_add(ind.total(|n| n.store));
    let dram = local.saturating_add(remote);

    m.set(
        MetricId::RemoteRatio,
        if dram == 0 {
            Some(0)
        } else {
            per_mille(remote, dram)
        },
    );
    m.set(MetricId::DramPerKcycle, per_mille(dram, cycles));
    m.set(
        MetricId::MemStallFrac,
        per_mille(ind.total(|n| n.mem_stall), cycles),
    );
    m.set(
        MetricId::HitmPerKop,
        per_mille(ind.total(|n| n.hitm), mem_ops),
    );
    m.set(
        MetricId::DtlbMpki,
        per_mille(ind.total(|n| n.dtlb_miss), instructions),
    );

    let active = ind.active_nodes();
    if active.is_empty() {
        m.set(MetricId::ImcSkew, None);
        m.set(MetricId::WorkSkew, None);
        return m;
    }

    // IMC concentration runs over the nodes *involved* in the run: the
    // ones whose cores execute it plus the ones whose controllers serve
    // it. Idle corners of a wide machine say nothing about balance; a
    // bound allocation shows up precisely because an active node's
    // controller sits idle while a serving node's runs hot. The
    // count-normalised form keeps a bind near 1000 on any machine while
    // an uneven interleave across many controllers stays mid-range.
    let imc_max = ind.nodes.iter().map(|n| n.imc_total()).max().unwrap_or(0);
    let involved: Vec<u64> = ind
        .nodes
        .iter()
        .enumerate()
        .filter(|(i, n)| active.contains(i) || (imc_max > 0 && n.imc_total() > imc_max / 20))
        .map(|(_, n)| n.imc_total())
        .collect();
    m.set(MetricId::ImcSkew, Some(concentration_pm(&involved)));

    let work: Vec<u64> = active.iter().map(|&i| ind.nodes[i].instructions).collect();
    m.set(MetricId::WorkSkew, Some(skew_pm(&work)));
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::indicators::NodeVector;

    fn node(instr: u64, local: u64, remote: u64, imc: u64) -> NodeVector {
        NodeVector {
            instructions: instr,
            cycles: instr.max(1) * 2,
            local_dram: local,
            remote_dram: remote,
            imc_read: imc,
            ..NodeVector::default()
        }
    }

    #[test]
    fn remote_ratio_and_skews() {
        // Two active nodes, everything served by node 0: the bound shape.
        let ind = Indicators {
            nodes: vec![node(1000, 500, 0, 1000), node(1000, 0, 500, 0)],
            wall_cycles: 4000,
        };
        let m = derive(&ind);
        assert_eq!(m.get(MetricId::RemoteRatio), Some(500));
        // One controller of the two involved serves everything: a full
        // bind concentrates to 1000 regardless of node count.
        assert_eq!(m.get(MetricId::ImcSkew), Some(1000));
        assert_eq!(m.get(MetricId::WorkSkew), Some(0));
    }

    #[test]
    fn idle_nodes_do_not_fake_imbalance() {
        // Two threads on an eight-node machine, all local: six idle
        // nodes must not turn into "imbalance".
        let mut nodes = vec![node(1000, 400, 0, 400), node(1000, 400, 0, 400)];
        nodes.extend(std::iter::repeat_n(node(0, 0, 0, 0), 6));
        let ind = Indicators {
            nodes,
            wall_cycles: 4000,
        };
        let m = derive(&ind);
        assert_eq!(m.get(MetricId::ImcSkew), Some(0));
        assert_eq!(m.get(MetricId::WorkSkew), Some(0));
        assert_eq!(m.get(MetricId::RemoteRatio), Some(0));
    }

    #[test]
    fn work_skew_sees_the_hub_thread() {
        let ind = Indicators {
            nodes: vec![node(6000, 100, 0, 100), node(1000, 100, 0, 100)],
            wall_cycles: 20000,
        };
        let m = derive(&ind);
        // mean 3500 of max 6000 -> 1000 - 583 = 417.
        assert_eq!(m.get(MetricId::WorkSkew), Some(417));
    }

    #[test]
    fn empty_denominators_are_unavailable_not_zero() {
        let ind = Indicators {
            nodes: vec![NodeVector::default(); 2],
            wall_cycles: 0,
        };
        let m = derive(&ind);
        assert_eq!(m.get(MetricId::RemoteRatio), Some(0));
        assert_eq!(m.get(MetricId::DramPerKcycle), None);
        assert_eq!(m.get(MetricId::HitmPerKop), None);
        assert_eq!(m.get(MetricId::DtlbMpki), None);
        assert_eq!(m.get(MetricId::WorkSkew), None);
    }

    #[test]
    fn counts_past_u64_max_over_1000_do_not_overflow() {
        let big = u64::MAX / 2;
        assert_eq!(per_mille(big, big), Some(1000));
        assert_eq!(per_mille(u64::MAX, 1), Some(u64::MAX), "saturates");
        assert_eq!(skew_pm(&[big, big]), 0);
        assert_eq!(skew_pm(&[u64::MAX, 0]), 500);
        assert_eq!(concentration_pm(&[u64::MAX, 0]), 1000);
        assert_eq!(concentration_pm(&[big, big, big]), 0);
        // A hostile capture's counts: every metric derives, none panics.
        let big = u64::MAX / 4;
        let ind = Indicators {
            nodes: vec![node(big, big, big, u64::MAX), node(big, big, big, 0)],
            wall_cycles: u64::MAX,
        };
        let m = derive(&ind);
        assert_eq!(m.get(MetricId::RemoteRatio), Some(500));
        assert_eq!(m.get(MetricId::ImcSkew), Some(1000));
        assert_eq!(m.get(MetricId::WorkSkew), Some(0));
    }

    #[test]
    fn skew_is_scale_free() {
        assert_eq!(skew_pm(&[100, 100, 100, 100]), 0);
        assert_eq!(skew_pm(&[1000, 0]), 500);
        assert_eq!(skew_pm(&[7]), 0, "one node is even by definition");
        // Scaling all values leaves the coefficient unchanged.
        assert_eq!(skew_pm(&[300, 100]), skew_pm(&[3000, 1000]));
    }

    #[test]
    fn concentration_is_count_invariant() {
        // A full bind scores 1000 on two nodes and on eight.
        assert_eq!(concentration_pm(&[900, 0]), 1000);
        assert_eq!(concentration_pm(&[900, 0, 0, 0, 0, 0, 0, 0]), 1000);
        // Even traffic scores 0 at any width.
        assert_eq!(concentration_pm(&[250; 8]), 0);
        // An uneven interleave stays mid-range: the hottest of eight
        // controllers serving ~2x its share is nowhere near a bind.
        assert!(concentration_pm(&[200, 100, 100, 100, 100, 100, 100, 100]) < 800);
        assert_eq!(concentration_pm(&[7]), 0);
        assert_eq!(concentration_pm(&[0, 0]), 0);
    }
}

//! Happens-before data-race detection over barrier supersteps.
//!
//! Barriers are the IR's only synchronisation, and the engine releases
//! them in global lockstep: every unfinished thread participates in every
//! release. That makes "number of barriers passed" a globally comparable
//! superstep index — an access in a thread's superstep `k` happens-before
//! everything in superstep `k + 1` of *any* thread, and is unordered
//! against other threads' accesses inside the same superstep. Accesses
//! after a thread's last barrier stay unordered against everything that
//! follows (interval `[k, ∞)`), because nothing synchronises with that
//! thread again.
//!
//! Two accesses race when they come from different threads, target the
//! same byte, at least one is a store, and their superstep intervals
//! overlap. The simulator itself schedules deterministically, so a
//! "race" here is not engine nondeterminism — it is the paper-level
//! diagnosis that the program's outcome depends on relative thread timing
//! on a real machine.

use crate::cfg::ProgramCfg;
use np_simulator::program::{Op, Program};

/// A pair of unordered conflicting access ranges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaceFinding {
    /// First thread (lower index).
    pub thread_a: usize,
    /// Second thread.
    pub thread_b: usize,
    /// Whether thread A's conflicting accesses include a store.
    pub a_writes: bool,
    /// Whether thread B's conflicting accesses include a store.
    pub b_writes: bool,
    /// Overlapping byte range `[lo, hi)`.
    pub addr_lo: u64,
    /// Exclusive end of the overlap.
    pub addr_hi: u64,
    /// Superstep in which the threads are unordered (A's interval start).
    pub superstep: usize,
}

impl std::fmt::Display for RaceFinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match (self.a_writes, self.b_writes) {
            (true, true) => "write/write",
            _ => "read/write",
        };
        write!(
            f,
            "{kind} race: threads {} and {} touch [{:#x}, {:#x}) in superstep {} without an ordering barrier",
            self.thread_a, self.thread_b, self.addr_lo, self.addr_hi, self.superstep
        )
    }
}

/// Merged, sorted byte ranges of one thread's loads/stores per superstep.
#[derive(Debug, Default, Clone)]
struct StepAccesses {
    loads: Vec<(u64, u64)>,
    stores: Vec<(u64, u64)>,
}

/// Sorts and merges touching/overlapping `[lo, hi)` ranges in place.
fn normalize(ranges: &mut Vec<(u64, u64)>) {
    ranges.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(ranges.len().min(64));
    for &(lo, hi) in ranges.iter() {
        match out.last_mut() {
            Some(last) if lo <= last.1 => last.1 = last.1.max(hi),
            _ => out.push((lo, hi)),
        }
    }
    *ranges = out;
}

/// First overlap between two normalized range lists, if any.
fn first_overlap(a: &[(u64, u64)], b: &[(u64, u64)]) -> Option<(u64, u64)> {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let lo = a[i].0.max(b[j].0);
        let hi = a[i].1.min(b[j].1);
        if lo < hi {
            return Some((lo, hi));
        }
        if a[i].1 <= b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    None
}

/// Detects cross-thread conflicting accesses not ordered by a barrier.
/// One finding is reported per `(thread pair, superstep, direction)`.
pub fn find_races(program: &Program, cfg: &ProgramCfg) -> Vec<RaceFinding> {
    // Bucket every access by (thread, supersteps passed before it).
    let per_thread: Vec<Vec<StepAccesses>> = program
        .threads()
        .iter()
        .enumerate()
        .map(|(ti, t)| {
            let n_barriers = cfg.threads[ti].barrier_seq.len();
            let mut steps = vec![StepAccesses::default(); n_barriers + 1];
            let mut step = 0usize;
            for op in t.ops() {
                match op {
                    Op::Barrier(_) => step += 1,
                    Op::Load { addr, .. } => steps[step].loads.push((addr, addr + 1)),
                    Op::Store { addr } => steps[step].stores.push((addr, addr + 1)),
                    _ => {}
                }
            }
            for s in &mut steps {
                normalize(&mut s.loads);
                normalize(&mut s.stores);
            }
            steps
        })
        .collect();

    let mut findings = Vec::new();
    for a in 0..per_thread.len() {
        for b in (a + 1)..per_thread.len() {
            let (sa, sb) = (&per_thread[a], &per_thread[b]);
            for (ka, stepa) in sa.iter().enumerate() {
                if stepa.loads.is_empty() && stepa.stores.is_empty() {
                    continue;
                }
                // A's interval is [ka, ka+1), open-ended after the last
                // barrier; same for B. Enumerate B's overlapping steps.
                let a_final = ka + 1 == sa.len();
                for (kb, stepb) in sb.iter().enumerate() {
                    let b_final = kb + 1 == sb.len();
                    let overlaps = ka == kb || (a_final && kb >= ka) || (b_final && ka >= kb);
                    if !overlaps {
                        continue;
                    }
                    // store/store, then store/load in both directions.
                    let checks = [
                        (&stepa.stores, &stepb.stores, true, true),
                        (&stepa.stores, &stepb.loads, true, false),
                        (&stepa.loads, &stepb.stores, false, true),
                    ];
                    for (ra, rb, aw, bw) in checks {
                        if let Some((lo, hi)) = first_overlap(ra, rb) {
                            findings.push(RaceFinding {
                                thread_a: a,
                                thread_b: b,
                                a_writes: aw,
                                b_writes: bw,
                                addr_lo: lo,
                                addr_hi: hi,
                                superstep: ka.max(kb),
                            });
                        }
                    }
                }
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_simulator::program::ProgramBuilder;
    use np_simulator::topology::Topology;
    use np_simulator::AllocPolicy;

    fn topo() -> Topology {
        Topology::fully_interconnected(2, 4, 1 << 30)
    }

    #[test]
    fn unsynchronised_store_store_is_flagged() {
        let t = topo();
        let mut b = ProgramBuilder::new(&t, 4096);
        let buf = b.alloc(4096, AllocPolicy::FirstTouch);
        let t0 = b.add_thread(0);
        let t1 = b.add_thread(1);
        b.store(t0, buf + 8);
        b.store(t1, buf + 8);
        let p = b.build();
        let races = find_races(&p, &ProgramCfg::build(&p));
        assert_eq!(races.len(), 1);
        assert!(races[0].a_writes && races[0].b_writes);
        assert_eq!((races[0].addr_lo, races[0].addr_hi), (buf + 8, buf + 9));
    }

    #[test]
    fn barrier_orders_producer_consumer() {
        let t = topo();
        let mut b = ProgramBuilder::new(&t, 4096);
        let buf = b.alloc(4096, AllocPolicy::FirstTouch);
        let t0 = b.add_thread(0);
        let t1 = b.add_thread(1);
        b.store(t0, buf);
        b.barrier(t0, 1);
        b.barrier(t1, 1);
        b.load(t1, buf);
        let p = b.build();
        assert!(find_races(&p, &ProgramCfg::build(&p)).is_empty());
    }

    #[test]
    fn same_superstep_read_write_races() {
        let t = topo();
        let mut b = ProgramBuilder::new(&t, 4096);
        let buf = b.alloc(4096, AllocPolicy::FirstTouch);
        let t0 = b.add_thread(0);
        let t1 = b.add_thread(1);
        b.barrier(t0, 1);
        b.store(t0, buf);
        b.barrier(t1, 1);
        b.load(t1, buf);
        let p = b.build();
        let races = find_races(&p, &ProgramCfg::build(&p));
        assert_eq!(races.len(), 1);
        assert!(!(races[0].a_writes && races[0].b_writes));
    }

    #[test]
    fn disjoint_partitions_do_not_race() {
        let t = topo();
        let mut b = ProgramBuilder::new(&t, 4096);
        let buf = b.alloc(8192, AllocPolicy::FirstTouch);
        let t0 = b.add_thread(0);
        let t1 = b.add_thread(1);
        for i in 0..64 {
            b.store(t0, buf + i);
            b.store(t1, buf + 4096 + i);
        }
        let p = b.build();
        assert!(find_races(&p, &ProgramCfg::build(&p)).is_empty());
    }

    #[test]
    fn post_final_barrier_accesses_stay_unordered() {
        // Thread 0 keeps writing after its last barrier; thread 1 reads the
        // same byte two supersteps later — still unordered against t0.
        let t = topo();
        let mut b = ProgramBuilder::new(&t, 4096);
        let buf = b.alloc(4096, AllocPolicy::FirstTouch);
        let t0 = b.add_thread(0);
        let t1 = b.add_thread(1);
        b.barrier(t0, 1);
        b.store(t0, buf);
        b.barrier(t1, 1);
        b.barrier(t1, 2);
        b.load(t1, buf);
        let p = b.build();
        let races = find_races(&p, &ProgramCfg::build(&p));
        assert_eq!(races.len(), 1);
        assert_eq!(races[0].superstep, 2);
    }

    #[test]
    fn reads_never_race_with_reads() {
        let t = topo();
        let mut b = ProgramBuilder::new(&t, 4096);
        let buf = b.alloc(4096, AllocPolicy::FirstTouch);
        let t0 = b.add_thread(0);
        let t1 = b.add_thread(1);
        b.load(t0, buf);
        b.load(t1, buf);
        let p = b.build();
        assert!(find_races(&p, &ProgramCfg::build(&p)).is_empty());
    }
}

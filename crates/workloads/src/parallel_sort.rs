//! Listing 3: parallel `std::sort` (GNU libstdc++ parallel mode) with a
//! thread-count parameter — the workload behind Fig. 9's correlations.
//!
//! The generated program models a parallel sample sort, which is what GNU
//! parallel mode uses for large inputs:
//!
//! 1. **Fill** (main thread): the LCG multiply-add of Listing 3 plus
//!    sequential stores — all pages land on the main thread's node by
//!    first touch, exactly as `data.emplace_back` would.
//! 2. **Local sort** superstep: each thread makes `sort_passes` passes
//!    over its chunk with data-dependent compare branches (LCG-driven, so
//!    the predictor sees sorting-like entropy).
//! 3. **Exchange** superstep: contiguous runs are copied between chunks.
//!    During processing every thread periodically *polls the progress words
//!    of all peers* (work-stealing/termination detection) with dependent
//!    loads — with more threads these lines ping-pong in Modified state,
//!    the polls stall the pipeline and the speculation window starves:
//!    this is the organic mechanism behind the paper's *negative*
//!    threads↔speculative-jumps correlation.
//! 4. Each superstep boundary frees runtime temp buffers, which delivers a
//!    TLB shootdown to every participating core; every thread then re-walks
//!    its fixed-size runtime bookkeeping working set (deques, splitters).
//!    Total page walks therefore grow ~linearly with the thread count —
//!    the paper's *positive* threads↔L1d-locked correlation ("the L1D
//!    cache is locked due to TLB page walks by the uncore, which manages
//!    the core interplay").

use crate::lcg::BsdLcg;
use crate::{spread_cores, Workload};
use np_simulator::{AllocPolicy, MachineConfig, Program, ProgramBuilder};

/// Source-region ids declared by [`ParallelSortKernel::build`].
pub mod regions {
    /// The LCG fill loop of Listing 3.
    pub const FILL: u32 = 1;
    /// The per-thread local sort superstep.
    pub const LOCAL_SORT: u32 = 2;
    /// The exchange superstep (gather + scatter + peer polling).
    pub const EXCHANGE: u32 = 3;
    /// The final merge superstep.
    pub const MERGE: u32 = 4;
    /// Runtime overhead at superstep boundaries (barriers, shootdowns,
    /// bookkeeping walks).
    pub const RUNTIME: u32 = 5;
}

/// The parallel-sort kernel of Listing 3.
#[derive(Debug, Clone)]
pub struct ParallelSortKernel {
    /// Number of `uint` elements (the paper uses `1024*1024` = 4 MiB).
    pub elements: usize,
    /// `omp_set_num_threads(numThreads)`.
    pub threads: usize,
    /// Modelled passes over each chunk during local sort.
    pub sort_passes: usize,
    /// Pages of per-thread runtime bookkeeping re-walked after shootdowns.
    pub bookkeeping_pages: usize,
    /// Elements processed between peer-progress polls.
    pub poll_interval: usize,
}

impl ParallelSortKernel {
    /// A kernel with the paper's array size.
    pub fn paper_size(threads: usize) -> Self {
        Self::new(1024 * 1024, threads)
    }

    /// A kernel with custom element count.
    pub fn new(elements: usize, threads: usize) -> Self {
        ParallelSortKernel {
            elements,
            threads: threads.max(1),
            sort_passes: 3,
            bookkeeping_pages: 192,
            poll_interval: 32,
        }
    }
}

impl Workload for ParallelSortKernel {
    fn name(&self) -> String {
        format!("parallel-sort/{}el/{}thr", self.elements, self.threads)
    }

    fn build(&self, machine: &MachineConfig) -> Program {
        let p = self.threads;
        let cores = spread_cores(machine, p);
        let mut b = ProgramBuilder::new(&machine.topology, machine.page_bytes);

        let data_bytes = (self.elements * 4) as u64;
        let data = b.alloc(data_bytes, AllocPolicy::FirstTouch);
        let out = b.alloc(data_bytes, AllocPolicy::FirstTouch);
        // Shared runtime state: one cache line of progress per thread, plus
        // the bookkeeping region every thread walks after shootdowns.
        let progress = b.alloc((p * 64) as u64, AllocPolicy::FirstTouch);
        let bookkeeping = b.alloc(
            (self.bookkeeping_pages as u64) * machine.page_bytes,
            AllocPolicy::FirstTouch,
        );

        let threads: Vec<usize> = cores.iter().map(|&c| b.add_thread(c)).collect();
        let main = threads[0];

        // --- Fill (Listing 3's loop, on the main thread) ---
        b.label(main, regions::FILL);
        b.reserve(main, 2 * data_bytes);
        for i in 0..self.elements {
            b.exec(main, 2); // lcg = lcg * a + c
            b.store(main, data + (i * 4) as u64);
        }

        let mut barrier_id = 1u32;
        let chunk = self.elements / p;
        let mut rngs: Vec<BsdLcg> = (0..p).map(|t| BsdLcg::with_seed(1337 + t as u32)).collect();

        let superstep_boundary = |b: &mut ProgramBuilder, barrier_id: &mut u32| {
            for (t, &th) in threads.iter().enumerate() {
                b.label(th, regions::RUNTIME);
                b.barrier(th, *barrier_id);
                // Temp buffers freed => shootdown IPI on every core.
                b.tlb_flush(th);
                // Re-walk the runtime bookkeeping working set.
                for pg in 0..self.bookkeeping_pages {
                    b.load(
                        th,
                        bookkeeping + (pg as u64) * machine.page_bytes + (t as u64 % 64) * 64,
                    );
                }
            }
            *barrier_id += 1;
        };

        superstep_boundary(&mut b, &mut barrier_id);

        // --- Local sort: passes with compare branches ---
        for (t, &th) in threads.iter().enumerate() {
            b.label(th, regions::LOCAL_SORT);
            let lo = t * chunk;
            for pass in 0..self.sort_passes {
                for i in 0..chunk {
                    let addr = data + ((lo + i) * 4) as u64;
                    b.load(th, addr);
                    // Compare-and-maybe-swap: data-dependent direction.
                    b.branch(th, 100 + pass as u32, rngs[t].next_bool());
                    b.exec(th, 1);
                    if rngs[t].next_bool() {
                        b.store(th, addr);
                    }
                }
            }
        }

        superstep_boundary(&mut b, &mut barrier_id);

        // --- Exchange: a gather over the sorted chunk (element positions
        // are data-dependent) feeding contiguous runs; peers polled ---
        for (t, &th) in threads.iter().enumerate() {
            b.label(th, regions::EXCHANGE);
            let lo = t * chunk;
            for i in 0..chunk {
                // Gather: the source position depends on the splitter
                // comparison — a dependent, cache-resident lookup.
                let pos = lo + rngs[t].next_bounded(chunk as u32) as usize;
                let src = data + (pos * 4) as u64;
                // Destination run: contiguous region in the output owned by
                // the receiving thread (sample sort moves whole runs).
                let dst_thread = (t + 1 + (i / chunk.max(1))) % p;
                let dst = out + ((dst_thread * chunk + i) * 4) as u64;
                b.load_dependent(th, src);
                b.store(th, dst);
                if i % self.poll_interval == 0 {
                    // Work-stealing sweep: read every peer's deque top and
                    // CAS a steal attempt. The CAS leaves the line Modified
                    // in the stealer's cache, so the next thread's read is
                    // a guaranteed HITM — the lines ping-pong, and each
                    // dependent read drains the pipeline.
                    for peer in 0..p {
                        if peer != t {
                            b.load_dependent(th, progress + (peer * 64) as u64);
                            b.store(th, progress + (peer * 64) as u64);
                        }
                    }
                    // Decide whether to steal, publish own progress
                    // (invalidating the stealers).
                    b.branch(th, 200, rngs[t].next_bool());
                    b.store(th, progress + (t * 64) as u64);
                }
                b.branch(th, 201 + t as u32 % 8, rngs[t].next_bool());
                b.exec(th, 1);
            }
        }

        superstep_boundary(&mut b, &mut barrier_id);

        // --- Final merge: sequential consume with compare branches ---
        for (t, &th) in threads.iter().enumerate() {
            b.label(th, regions::MERGE);
            let lo = t * chunk;
            for i in 0..chunk {
                b.load(th, out + ((lo + i) * 4) as u64);
                b.branch(th, 300, rngs[t].next_bool());
                b.exec(th, 1);
            }
        }

        b.release(main, data_bytes);
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_simulator::{HwEvent, MachineSim};

    fn quiet() -> MachineSim {
        let mut cfg = MachineConfig::two_socket_small();
        cfg.noise.timer_interval = 0;
        cfg.noise.dram_jitter = 0.0;
        MachineSim::new(cfg)
    }

    fn run_events(threads: usize) -> np_simulator::RunResult {
        let sim = quiet();
        let k = ParallelSortKernel::new(16 * 1024, threads);
        sim.run(&k.build(sim.config()), 7).expect("valid program")
    }

    #[test]
    fn l1d_locked_grows_with_threads() {
        let vals: Vec<u64> = [1, 2, 4, 8]
            .iter()
            .map(|&t| run_events(t).total(HwEvent::L1dLocked))
            .collect();
        assert!(
            vals.windows(2).all(|w| w[0] < w[1]),
            "L1dLocked should grow monotonically with threads: {vals:?}"
        );
        // Roughly linear: the 8-thread value should far exceed 2x the
        // 2-thread value.
        assert!(vals[3] > 2 * vals[1], "{vals:?}");
    }

    #[test]
    fn spec_jumps_fall_with_threads() {
        let vals: Vec<u64> = [1, 2, 4, 8]
            .iter()
            .map(|&t| run_events(t).total(HwEvent::SpecJumpsRetired))
            .collect();
        assert!(
            vals.windows(2).all(|w| w[0] > w[1]),
            "SpecJumpsRetired should fall monotonically with threads: {vals:?}"
        );
    }

    #[test]
    fn hitm_polls_grow_with_threads() {
        let h2 = run_events(2).total(HwEvent::HitmTransfer);
        let h8 = run_events(8).total(HwEvent::HitmTransfer);
        assert!(h8 > 2 * h2.max(1), "HITM: 2thr {h2} vs 8thr {h8}");
        // Single-threaded: polls hit the own line, no HITM from polling.
        let h1 = run_events(1).total(HwEvent::HitmTransfer);
        assert!(h1 < h2, "1thr {h1} vs 2thr {h2}");
    }

    #[test]
    fn remote_accesses_appear_with_cross_node_threads() {
        let r1 = run_events(1).total(HwEvent::RemoteDramAccess);
        let r4 = run_events(4).total(HwEvent::RemoteDramAccess);
        // Data is first-touched by thread 0 (node 0); spread threads on
        // node 1 must reach across.
        assert!(r4 > r1, "remote: 1thr {r1} vs 4thr {r4}");
    }

    #[test]
    fn total_branches_roughly_constant_in_threads() {
        let b1 = run_events(1).total(HwEvent::BranchRetired) as f64;
        let b8 = run_events(8).total(HwEvent::BranchRetired) as f64;
        // Poll branches add a small P-dependent term; the bulk is constant.
        assert!(
            (b8 - b1).abs() / b1 < 0.25,
            "branches 1thr {b1} vs 8thr {b8}"
        );
    }

    #[test]
    fn work_is_partitioned() {
        let sim = quiet();
        let k = ParallelSortKernel::new(8 * 1024, 4);
        let p = k.build(sim.config());
        assert_eq!(p.threads().len(), 4);
        // Each worker got a non-trivial op stream.
        for t in p.threads() {
            assert!(t.len() > 1000);
        }
    }
}

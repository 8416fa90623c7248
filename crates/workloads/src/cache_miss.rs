//! Listings 1 & 2: the cache-miss micro-benchmark pair of §V-A-1.
//!
//! Both kernels allocate a `size × size` array of `f32`, fill it, and
//! compute an alternating sum. Example A (Listing 1) reads row-major —
//! "hitting cache lines fairly often"; example B (Listing 2) reads
//! column-major — "causing many more cache misses than before". The only
//! difference between the generated programs is the loop order of the read
//! phase, exactly like the listings, so every counter difference EvSel
//! reports is attributable to the access order.

use crate::Workload;
use np_simulator::{AllocPolicy, MachineConfig, Program, ProgramBuilder};

/// Read-phase traversal order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOrder {
    /// Listing 1: `for y { for x { … array[y][x] … } }` — contiguous.
    RowMajor,
    /// Listing 2: `for x { for y { … array[y][x] … } }` — page-strided.
    ColumnMajor,
}

/// The cache-miss micro-benchmark kernel.
#[derive(Debug, Clone)]
pub struct CacheMissKernel {
    /// Array edge length (the paper uses 1024 → 4 MiB of `f32`).
    pub size: usize,
    /// Read-phase traversal order.
    pub order: AccessOrder,
}

impl CacheMissKernel {
    /// Listing 1 (example A).
    pub fn row_major(size: usize) -> Self {
        CacheMissKernel {
            size,
            order: AccessOrder::RowMajor,
        }
    }

    /// Listing 2 (example B).
    pub fn column_major(size: usize) -> Self {
        CacheMissKernel {
            size,
            order: AccessOrder::ColumnMajor,
        }
    }

    /// The paper's configuration: `const size_t size = 1024`.
    pub fn paper_size(order: AccessOrder) -> Self {
        CacheMissKernel { size: 1024, order }
    }

    fn element_addr(&self, base: u64, y: usize, x: usize) -> u64 {
        base + ((y * self.size + x) * 4) as u64
    }
}

/// Source-region ids declared by [`CacheMissKernel::build`], usable with
/// `np-core`'s annotation tooling.
pub mod regions {
    /// The fill loop ("fill array with random values").
    pub const FILL: u32 = 1;
    /// The alternating-sum read loops.
    pub const READ: u32 = 2;
}

impl Workload for CacheMissKernel {
    fn name(&self) -> String {
        match self.order {
            AccessOrder::RowMajor => format!("cache-miss/row-major/{}", self.size),
            AccessOrder::ColumnMajor => format!("cache-miss/column-major/{}", self.size),
        }
    }

    fn build(&self, machine: &MachineConfig) -> Program {
        let mut b = ProgramBuilder::new(&machine.topology, machine.page_bytes);
        let bytes = (self.size * self.size * 4) as u64;
        let base = b.alloc(bytes, AllocPolicy::FirstTouch);
        let t = b.add_thread(0);
        b.reserve(t, bytes); // `new float[size][size]`

        // Fill phase — identical in both listings ("fill array with random
        // values"): row-major stores plus the RNG multiply-add.
        b.label(t, regions::FILL);
        for y in 0..self.size {
            for x in 0..self.size {
                b.exec(t, 1);
                b.store(t, self.element_addr(base, y, x));
            }
        }

        // Read phase — the only difference between A and B.
        // Per element: the `outer % 2` branch (site 1, direction flips per
        // outer iteration — highly predictable), the load, and the add.
        b.label(t, regions::READ);
        match self.order {
            AccessOrder::RowMajor => {
                for y in 0..self.size {
                    for x in 0..self.size {
                        b.branch(t, 1, y % 2 == 0);
                        b.load(t, self.element_addr(base, y, x));
                        b.exec(t, 1);
                    }
                }
            }
            AccessOrder::ColumnMajor => {
                for x in 0..self.size {
                    for y in 0..self.size {
                        b.branch(t, 1, x % 2 == 0);
                        b.load(t, self.element_addr(base, y, x));
                        b.exec(t, 1);
                    }
                }
            }
        }
        // `std::cout << altsum` — a little serial tail work.
        b.exec(t, 64);
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

    #[test]
    fn programs_differ_only_in_read_order() {
        let m = MachineConfig::two_socket_small();
        let a = CacheMissKernel::row_major(32).build(&m);
        let b = CacheMissKernel::column_major(32).build(&m);
        assert_eq!(a.total_ops(), b.total_ops());
        // Same multiset of loaded addresses.
        let addrs = |p: &Program| {
            let mut v: Vec<u64> = p.threads()[0]
                .ops()
                .filter_map(|op| match op {
                    np_simulator::Op::Load { addr, .. } => Some(addr),
                    _ => None,
                })
                .collect();
            v.sort_unstable();
            v
        };
        assert_eq!(addrs(&a), addrs(&b));
    }

    #[test]
    fn column_major_misses_l1_far_more() {
        let sim = quiet();
        let size = 128; // 64 KiB array: beyond L1, inside L2
        let ra = sim
            .run(&CacheMissKernel::row_major(size).build(sim.config()), 1)
            .expect("valid program");
        let rb = sim
            .run(&CacheMissKernel::column_major(size).build(sim.config()), 1)
            .expect("valid program");
        let a = ra.total(HwEvent::L1dMiss) as f64;
        let b = rb.total(HwEvent::L1dMiss) as f64;
        assert!(b > 5.0 * a, "L1 misses: column {b} vs row {a}");
    }

    #[test]
    fn column_major_defeats_prefetcher() {
        let sim = quiet();
        let size = 1024; // row = exactly one page: column stride = page stride
        let ra = sim
            .run(&CacheMissKernel::row_major(size).build(sim.config()), 1)
            .expect("valid program");
        let rb = sim
            .run(&CacheMissKernel::column_major(size).build(sim.config()), 1)
            .expect("valid program");
        let a = ra.total(HwEvent::L2PrefetchReq) as f64;
        let b = rb.total(HwEvent::L2PrefetchReq) as f64;
        // Paper: "L2 prefetch requests dropped by 90%". The fill phase is
        // identical (prefetch-friendly); only the read phase differs.
        assert!(b < 0.6 * a, "prefetch requests: column {b} vs row {a}");
    }

    #[test]
    fn column_major_explodes_fill_buffer_rejects() {
        let sim = quiet();
        let size = 1024;
        let ra = sim
            .run(&CacheMissKernel::row_major(size).build(sim.config()), 1)
            .expect("valid program");
        let rb = sim
            .run(&CacheMissKernel::column_major(size).build(sim.config()), 1)
            .expect("valid program");
        let a = ra.total(HwEvent::FillBufferReject);
        let b = rb.total(HwEvent::FillBufferReject);
        assert!(b > 50 * a.max(1), "rejects: column {b} vs row {a}");
    }

    #[test]
    fn cycles_difference_explained_by_stalls() {
        let sim = quiet();
        let size = 256;
        let ra = sim
            .run(&CacheMissKernel::row_major(size).build(sim.config()), 1)
            .expect("valid program");
        let rb = sim
            .run(&CacheMissKernel::column_major(size).build(sim.config()), 1)
            .expect("valid program");
        assert!(rb.cycles > ra.cycles, "column must be slower");
        // Instructions nearly identical (same op streams).
        let ia = ra.total(HwEvent::Instructions) as f64;
        let ib = rb.total(HwEvent::Instructions) as f64;
        assert!((ia - ib).abs() / ia < 0.02, "instructions {ia} vs {ib}");
    }

    #[test]
    fn branch_misses_nearly_equal() {
        let sim = quiet();
        let size = 256;
        let ra = sim
            .run(&CacheMissKernel::row_major(size).build(sim.config()), 1)
            .expect("valid program");
        let rb = sim
            .run(&CacheMissKernel::column_major(size).build(sim.config()), 1)
            .expect("valid program");
        let a = ra.total(HwEvent::BranchMiss) as f64;
        let b = rb.total(HwEvent::BranchMiss) as f64;
        // Same branch pattern: flip once per outer iteration.
        assert!(
            (a - b).abs() <= 0.1 * a.max(10.0),
            "branch misses {a} vs {b}"
        );
    }
}

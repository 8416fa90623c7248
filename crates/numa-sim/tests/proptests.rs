//! Property-based tests for the simulator's structural invariants.

use np_simulator::cache::SetAssocCache;
use np_simulator::config::{CacheGeometry, MachineConfig};
use np_simulator::event::HwEvent;
use np_simulator::mem::{AddressSpace, AllocPolicy};
use np_simulator::program::{Op, ProgramBuilder};
use np_simulator::topology::Topology;
use np_simulator::MachineSim;
use proptest::prelude::*;

fn quiet_machine() -> MachineSim {
    let mut cfg = MachineConfig::two_socket_small();
    cfg.noise.timer_interval = 0;
    cfg.noise.dram_jitter = 0.0;
    MachineSim::new(cfg)
}

/// A `u64` operand: anywhere in its range, edges included.
fn operand() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        Just((1u64 << 28) - 1),
        Just(1u64 << 28),
        Just(u64::MAX),
        0u64..(1 << 28),
        (1u64 << 28)..u64::MAX,
    ]
}

/// A `u32` field, edges included.
fn field() -> impl Strategy<Value = u32> {
    prop_oneof![Just(0u32), Just(u32::MAX), 0u32..u32::MAX]
}

/// Any op, with every variant and both values of each `bool`.
fn any_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        operand().prop_map(|addr| Op::Load {
            addr,
            dependent: false
        }),
        operand().prop_map(|addr| Op::Load {
            addr,
            dependent: true
        }),
        operand().prop_map(|addr| Op::Store { addr }),
        field().prop_map(Op::Exec),
        field().prop_map(|site| Op::Branch { site, taken: false }),
        field().prop_map(|site| Op::Branch { site, taken: true }),
        field().prop_map(Op::Barrier),
        Just(Op::TlbFlush),
        field().prop_map(Op::Label),
        operand().prop_map(Op::Reserve),
        operand().prop_map(Op::Release),
    ]
}

/// A load's or store's step from its thread's previous address, as a
/// wrapping `u64`: the largest step back (−2^27) and forward (2^27 − 1)
/// that a packed word holds, one past each, or a small stride.
fn step() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(-(1i64 << 27)),
        Just((1i64 << 27) - 1),
        Just(-(1i64 << 27) - 1),
        Just(1i64 << 27),
        -256i64..257,
    ]
    .prop_map(|s| s as u64)
}

/// A non-memory operand at the edge of the 28-bit packed field: the
/// largest that fits, the smallest that does not, `u32::MAX`, or small.
fn edge() -> impl Strategy<Value = u32> {
    prop_oneof![
        Just((1u32 << 28) - 1),
        Just(1u32 << 28),
        Just(u32::MAX),
        0u32..64,
    ]
}

/// Any op at the edges of the packed word. A load's or store's `addr`
/// holds its [`step`]; [`place`] turns it into an address.
fn stepped_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        step().prop_map(|addr| Op::Load {
            addr,
            dependent: false
        }),
        step().prop_map(|addr| Op::Load {
            addr,
            dependent: true
        }),
        step().prop_map(|addr| Op::Store { addr }),
        edge().prop_map(Op::Exec),
        edge().prop_map(|site| Op::Branch { site, taken: false }),
        edge().prop_map(|site| Op::Branch { site, taken: true }),
        edge().prop_map(Op::Barrier),
        Just(Op::TlbFlush),
        edge().prop_map(Op::Label),
        edge().prop_map(|b| Op::Reserve(b.into())),
        edge().prop_map(|b| Op::Release(b.into())),
    ]
}

/// Moves `cursor`, a thread's previous address, by a stepped load's or
/// store's step and returns the op at the address it lands on.
fn place(op: Op, cursor: &mut u64) -> Op {
    match op {
        Op::Load { addr, dependent } => {
            *cursor = cursor.wrapping_add(addr);
            Op::Load {
                addr: *cursor,
                dependent,
            }
        }
        Op::Store { addr } => {
            *cursor = cursor.wrapping_add(addr);
            Op::Store { addr: *cursor }
        }
        op => op,
    }
}

/// Appends `op` through the builder method for its variant.
fn push(b: &mut ProgramBuilder, thread: usize, op: Op) {
    match op {
        Op::Load {
            addr,
            dependent: false,
        } => b.load(thread, addr),
        Op::Load {
            addr,
            dependent: true,
        } => b.load_dependent(thread, addr),
        Op::Store { addr } => b.store(thread, addr),
        Op::Exec(n) => b.exec(thread, n),
        Op::Branch { site, taken } => b.branch(thread, site, taken),
        Op::Barrier(id) => b.barrier(thread, id),
        Op::TlbFlush => b.tlb_flush(thread),
        Op::Label(id) => b.label(thread, id),
        Op::Reserve(bytes) => b.reserve(thread, bytes),
        Op::Release(bytes) => b.release(thread, bytes),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn packed_ops_read_back_identical_and_in_order(
        first in proptest::collection::vec(any_op(), 0..200),
        second in proptest::collection::vec(any_op(), 0..200),
    ) {
        let topo = Topology::fully_interconnected(2, 4, 1 << 30);
        let mut b = ProgramBuilder::new(&topo, 4096);
        let t0 = b.add_thread(0);
        let t1 = b.add_thread(1);
        // Interleaved, so one thread's side table cannot serve the other.
        for i in 0..first.len().max(second.len()) {
            if let Some(&op) = first.get(i) {
                push(&mut b, t0, op);
            }
            if let Some(&op) = second.get(i) {
                push(&mut b, t1, op);
            }
        }
        let p = b.build();
        prop_assert_eq!(p.total_ops(), first.len() + second.len());
        prop_assert_eq!(p.threads()[0].ops().collect::<Vec<_>>(), first);
        prop_assert_eq!(p.threads()[1].ops().collect::<Vec<_>>(), second);
    }

    #[test]
    fn ops_at_the_packed_edges_read_back_identical_and_in_order(
        first in proptest::collection::vec(stepped_op(), 0..200),
        second in proptest::collection::vec(stepped_op(), 0..200),
    ) {
        let topo = Topology::fully_interconnected(2, 4, 1 << 30);
        let mut b = ProgramBuilder::new(&topo, 4096);
        let t0 = b.add_thread(0);
        let t1 = b.add_thread(1);
        let (mut cursor0, mut cursor1) = (0, 0);
        let (mut placed0, mut placed1) = (Vec::new(), Vec::new());
        // Interleaved, so one thread's address cursor cannot serve the
        // other.
        for i in 0..first.len().max(second.len()) {
            if let Some(&op) = first.get(i) {
                let op = place(op, &mut cursor0);
                push(&mut b, t0, op);
                placed0.push(op);
            }
            if let Some(&op) = second.get(i) {
                let op = place(op, &mut cursor1);
                push(&mut b, t1, op);
                placed1.push(op);
            }
        }
        let p = b.build();
        prop_assert_eq!(p.total_ops(), first.len() + second.len());
        prop_assert_eq!(p.threads()[0].ops().collect::<Vec<_>>(), placed0);
        prop_assert_eq!(p.threads()[1].ops().collect::<Vec<_>>(), placed1);
    }

    #[test]
    fn cache_occupancy_never_exceeds_capacity(addrs in proptest::collection::vec(0u64..1_000_000, 1..300)) {
        let mut c = SetAssocCache::new(CacheGeometry { size_bytes: 4096, ways: 4, line_bytes: 64 });
        for a in &addrs {
            c.install(*a, false, false);
        }
        prop_assert!(c.occupancy() <= c.capacity_lines());
    }

    #[test]
    fn installed_line_is_resident_until_evicted(addr in 0u64..1_000_000) {
        let mut c = SetAssocCache::new(CacheGeometry { size_bytes: 4096, ways: 4, line_bytes: 64 });
        c.install(addr, false, false);
        prop_assert!(c.contains(addr));
    }

    #[test]
    fn page_policies_place_every_touched_page(
        policy_pick in 0usize..3,
        touch_node in 0usize..2,
        pages in 1u64..32,
    ) {
        let topo = Topology::fully_interconnected(2, 4, 1 << 30);
        let mut s = AddressSpace::new(&topo, 4096);
        let policy = match policy_pick {
            0 => AllocPolicy::FirstTouch,
            1 => AllocPolicy::Bind(1),
            _ => AllocPolicy::Interleave,
        };
        let base = s.alloc(pages * 4096, policy);
        for p in 0..pages {
            let node = s.node_of_access(base + p * 4096, touch_node);
            match policy {
                AllocPolicy::FirstTouch => prop_assert_eq!(node, touch_node),
                AllocPolicy::Bind(n) => prop_assert_eq!(node, n),
                AllocPolicy::Interleave => prop_assert_eq!(node, (p % 2) as usize),
            }
            // Placement is sticky.
            prop_assert_eq!(s.node_of_access(base + p * 4096, 1 - touch_node), node);
        }
    }

    #[test]
    fn event_conservation_laws_hold(
        stride in prop_oneof![Just(8u64), Just(64), Just(256), Just(4096)],
        count in 100usize..800,
        seed in 0u64..50,
    ) {
        let sim = quiet_machine();
        let mut b = ProgramBuilder::new(&sim.config().topology, 4096);
        let buf = b.alloc(8 << 20, AllocPolicy::FirstTouch);
        let t = b.add_thread(0);
        for i in 0..count as u64 {
            b.load(t, buf + (i * stride) % (8 << 20));
        }
        let r = sim.run(&b.build(), seed).expect("valid program");

        // Load accounting: every retired load hit or missed L1.
        prop_assert_eq!(
            r.total(HwEvent::L1dHit) + r.total(HwEvent::L1dMiss),
            r.total(HwEvent::LoadRetired)
        );
        // L1 misses split into L2 hits and misses.
        prop_assert_eq!(
            r.total(HwEvent::L2Hit) + r.total(HwEvent::L2Miss),
            r.total(HwEvent::L1dMiss)
        );
        // Demand L3 traffic equals demand L2 misses.
        prop_assert_eq!(r.total(HwEvent::L3Access), r.total(HwEvent::L2Miss));
        // Every demand DRAM access is local or remote and was an L3 miss.
        prop_assert!(
            r.total(HwEvent::LocalDramAccess) + r.total(HwEvent::RemoteDramAccess)
                <= r.total(HwEvent::L3Miss)
        );
        // TLB: every load consults the TLB exactly once.
        prop_assert_eq!(
            r.total(HwEvent::DtlbHit) + r.total(HwEvent::DtlbMiss),
            r.total(HwEvent::LoadRetired)
        );
        // Walk cycles are walk-latency times misses.
        prop_assert_eq!(
            r.total(HwEvent::PageWalkCycles),
            r.total(HwEvent::DtlbMiss) * sim.config().latency.page_walk
        );
        // Cycles dominate instructions at IPC <= 1 for pure-load programs.
        prop_assert!(r.cycles >= r.total(HwEvent::LoadRetired));
    }

    #[test]
    fn determinism_across_identical_runs(
        seed in 0u64..1000,
        count in 50usize..300,
    ) {
        let sim = quiet_machine();
        let mut b = ProgramBuilder::new(&sim.config().topology, 4096);
        let buf = b.alloc(1 << 20, AllocPolicy::FirstTouch);
        let t0 = b.add_thread(0);
        let t1 = b.add_thread(4);
        for i in 0..count as u64 {
            b.load(t0, buf + (i * 2654435761) % (1 << 20));
            b.store(t1, buf + (i * 40503) % (1 << 20));
        }
        b.barrier(t0, 1);
        b.barrier(t1, 1);
        let p = b.build();
        let r1 = sim.run(&p, seed).expect("valid program");
        let r2 = sim.run(&p, seed).expect("valid program");
        prop_assert_eq!(r1.counters, r2.counters);
        prop_assert_eq!(r1.cycles, r2.cycles);
    }

    #[test]
    fn footprint_never_negative_and_matches_reserves(
        chunks in proptest::collection::vec(1u64..64, 1..20),
    ) {
        let sim = quiet_machine();
        let mut b = ProgramBuilder::new(&sim.config().topology, 4096);
        let t = b.add_thread(0);
        let mut expected: u64 = 0;
        for (i, c) in chunks.iter().enumerate() {
            let bytes = c * 4096;
            if i % 3 == 2 {
                b.release(t, bytes);
                expected = expected.saturating_sub(bytes);
            } else {
                b.reserve(t, bytes);
                expected += bytes;
            }
        }
        let r = sim.run(&b.build(), 0).expect("valid program");
        prop_assert_eq!(r.footprint.last().unwrap().1, expected);
        // Monotone time stamps.
        for w in r.footprint.windows(2) {
            prop_assert!(w[0].0 <= w[1].0);
        }
    }
}

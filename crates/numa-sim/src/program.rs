//! Abstract programs: per-thread instruction streams over a shared address
//! space.
//!
//! Workload generators (`np-workloads`) compile the paper's benchmarks —
//! the row/column-major sums of Listings 1–2, the parallel sort of
//! Listing 3, the SIFT pyramid, `mlc`-style pointer chases — into these op
//! streams; the engine then executes them with full microarchitectural
//! accounting. Keeping programs as data (rather than callbacks into the
//! engine) is what makes every run exactly replayable, which the
//! measurement layer depends on: EvSel repeats *identically configured*
//! program runs to batch counter registers (§IV-A-1).

use crate::mem::{AddressSpace, AllocPolicy};
use crate::topology::{CoreId, Topology};

/// One simulated instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// A load from `addr`. `dependent` loads serialise on the miss (pointer
    /// chase); independent loads overlap through the fill buffers.
    Load {
        /// Virtual byte address.
        addr: u64,
        /// True for address-dependent chains (e.g. `mlc` pointer chases).
        dependent: bool,
    },
    /// A store to `addr` (write-allocate, posted through the store buffer).
    Store {
        /// Virtual byte address.
        addr: u64,
    },
    /// `n` ALU instructions at one cycle each.
    Exec(u32),
    /// A conditional branch at static site `site` with outcome `taken`.
    Branch {
        /// Static branch identifier (hashes into the predictor table).
        site: u32,
        /// Actual direction.
        taken: bool,
    },
    /// Synchronises all threads of the program.
    Barrier(u32),
    /// Flushes this core's data TLB — the effect of a shootdown IPI, e.g.
    /// when a parallel runtime frees per-superstep temporary buffers.
    TlbFlush,
    /// Marks the start of source region `id` on this thread: subsequent
    /// events are attributed to it until the next label. This implements
    /// the §VI outlook item — "the mapping from events to lines of code …
    /// is important to developers when searching for performance
    /// bottlenecks" — at the granularity of workload-declared regions.
    Label(u32),
    /// Grows the runtime memory footprint (visible to procfs sampling) and
    /// pays the page-fault/zeroing cost.
    Reserve(u64),
    /// Shrinks the runtime memory footprint.
    Release(u64),
}

/// The instruction stream of one thread, pinned to a core.
///
/// Ops are stored packed, one `u32` word each: the top 4 bits hold the
/// kind and the low 28 bits the operand. A dependent load and each branch
/// direction are kinds of their own, so no flag needs a bit. A load's or
/// store's operand is the signed step from the same thread's previous load
/// or store address (the first steps from 0), so decoding carries that
/// address as a cursor from op to op. A step below −2^27 or above
/// 2^27 − 1, or any other operand of 2^28 or more, does not fit: the whole
/// op, kind and full value, goes to a per-thread side table and the word
/// holds its index there, so every operand round-trips exactly. No
/// registry program puts an op in the side table (DESIGN.md §6).
/// [`ThreadProgram::ops`] decodes the words back into [`Op`]s, in order.
#[derive(Debug, Clone)]
pub struct ThreadProgram {
    core: CoreId,
    words: Vec<u32>,
    wide: Vec<Op>,
    /// The first `Load`/`Store` outside every allocated region, as
    /// `(op index, address)`. While building it is the first one
    /// unmapped when pushed; [`ProgramBuilder::build`] checks again from
    /// there against the final regions.
    unmapped: Option<(usize, u64)>,
    /// The first of the thread's largest `Reserve`s, as
    /// `(op index, bytes)`.
    largest_reserve: Option<(usize, u64)>,
}

const KIND_SHIFT: u32 = 28;
const OPERAND_MASK: u32 = (1 << KIND_SHIFT) - 1;
/// A load's or store's operand is its step from the previous address plus
/// this bias, so the steps that fit are `-2^27..2^27`.
const STEP_BIAS: u64 = 1 << (KIND_SHIFT - 1);
// Op kinds.
const LOAD: u32 = 0;
const LOAD_DEP: u32 = 1;
const STORE: u32 = 2;
const RESERVE: u32 = 3;
const RELEASE: u32 = 4;
const EXEC: u32 = 5;
const BRANCH_NOT_TAKEN: u32 = 6;
const BRANCH_TAKEN: u32 = 7;
const BARRIER: u32 = 8;
const TLB_FLUSH: u32 = 9;
const LABEL: u32 = 10;
/// The operand is the index of the whole op in the side table.
const WIDE: u32 = 11;

/// Packs `op` into one word, or `None` when its operand does not fit.
/// `cursor` is the thread's previous load or store address; a load or
/// store moves it to its own address either way.
#[inline]
fn encode(op: Op, cursor: &mut u64) -> Option<u32> {
    let mut step = |addr: u64| {
        let from = std::mem::replace(cursor, addr);
        addr.wrapping_sub(from).wrapping_add(STEP_BIAS)
    };
    let (kind, operand) = match op {
        Op::Load {
            addr,
            dependent: false,
        } => (LOAD, step(addr)),
        Op::Load {
            addr,
            dependent: true,
        } => (LOAD_DEP, step(addr)),
        Op::Store { addr } => (STORE, step(addr)),
        Op::Reserve(bytes) => (RESERVE, bytes),
        Op::Release(bytes) => (RELEASE, bytes),
        Op::Exec(n) => (EXEC, n.into()),
        Op::Branch { site, taken: false } => (BRANCH_NOT_TAKEN, site.into()),
        Op::Branch { site, taken: true } => (BRANCH_TAKEN, site.into()),
        Op::Barrier(id) => (BARRIER, id.into()),
        Op::TlbFlush => (TLB_FLUSH, 0),
        Op::Label(id) => (LABEL, id.into()),
    };
    let operand = u32::try_from(operand).ok().filter(|&o| o <= OPERAND_MASK)?;
    Some(kind << KIND_SHIFT | operand)
}

/// Decodes one packed word; `wide` is its thread's side table and
/// `cursor` its previous load or store address, which a load or store
/// moves to its own.
#[inline(always)]
fn decode(word: u32, wide: &[Op], cursor: &mut u64) -> Op {
    let kind = word >> KIND_SHIFT;
    let operand = word & OPERAND_MASK;
    let mut step = || {
        *cursor = cursor.wrapping_add(operand.into()).wrapping_sub(STEP_BIAS);
        *cursor
    };
    match kind {
        LOAD | LOAD_DEP => Op::Load {
            addr: step(),
            dependent: kind == LOAD_DEP,
        },
        STORE => Op::Store { addr: step() },
        RESERVE => Op::Reserve(operand.into()),
        RELEASE => Op::Release(operand.into()),
        EXEC => Op::Exec(operand),
        BRANCH_NOT_TAKEN | BRANCH_TAKEN => Op::Branch {
            site: operand,
            taken: kind == BRANCH_TAKEN,
        },
        BARRIER => Op::Barrier(operand),
        TLB_FLUSH => Op::TlbFlush,
        LABEL => Op::Label(operand),
        _ => decode_wide(wide[operand as usize], cursor), // WIDE, the last kind
    }
}

/// A side-table op, whole; a load or store moves `cursor` to its address.
#[cold]
fn decode_wide(op: Op, cursor: &mut u64) -> Op {
    if let Op::Load { addr, .. } | Op::Store { addr } = op {
        *cursor = addr;
    }
    op
}

/// The ops of one thread, decoded in order. The iterator carries the
/// address cursor from op to op, so it only runs forward. Its methods are
/// `#[inline]` so that callers in other crates (np-analysis walks every
/// op) inline the decode.
struct Ops<'a> {
    words: std::slice::Iter<'a, u32>,
    wide: &'a [Op],
    cursor: u64,
}

impl Iterator for Ops<'_> {
    type Item = Op;

    #[inline]
    fn next(&mut self) -> Option<Op> {
        let &word = self.words.next()?;
        Some(decode(word, self.wide, &mut self.cursor))
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.words.size_hint()
    }
}

impl ExactSizeIterator for Ops<'_> {}

impl ThreadProgram {
    /// The core this thread is pinned to.
    pub fn core(&self) -> CoreId {
        self.core
    }

    /// Number of ops.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the thread has no ops.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// The ops in execution order, decoded.
    pub fn ops(&self) -> impl ExactSizeIterator<Item = Op> + '_ {
        Ops {
            words: self.words.iter(),
            wide: &self.wide,
            cursor: 0,
        }
    }

    /// Op `pc` (below [`Self::len`]), decoded. `cursor` must hold the
    /// address of the thread's last load or store before `pc` (0 before
    /// the first); a load or store moves it to its own address.
    #[inline(always)]
    pub(crate) fn op(&self, pc: usize, cursor: &mut u64) -> Op {
        decode(self.words[pc], &self.wide, cursor)
    }
}

/// A complete program: an address space plus one stream per thread.
#[derive(Debug, Clone)]
pub struct Program {
    space: AddressSpace,
    threads: Vec<ThreadProgram>,
}

/// Why a [`Program`] failed validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValidateError {
    /// The program has no threads.
    NoThreads,
    /// A thread is pinned to a core the topology does not have.
    CoreOutOfRange {
        /// Index of the offending thread.
        thread: usize,
        /// The core it asked for.
        core: CoreId,
        /// Cores the topology actually has.
        total_cores: usize,
    },
    /// Two threads are pinned to the same core.
    CorePinnedTwice {
        /// Index of the second thread claiming the core.
        thread: usize,
        /// The doubly-claimed core.
        core: CoreId,
    },
    /// A `Load`/`Store` addresses memory outside every allocated region.
    AddressOutOfRange {
        /// Index of the offending thread.
        thread: usize,
        /// Index of the offending op within the thread.
        op: usize,
        /// The unmapped address.
        addr: u64,
    },
    /// A `Reserve` asks for more bytes than the machine's DRAM holds.
    ReserveExceedsMemory {
        /// Index of the offending thread.
        thread: usize,
        /// Index of the offending op within the thread.
        op: usize,
        /// The bytes it reserves.
        bytes: u64,
        /// DRAM the topology has over all nodes.
        dram_bytes: u64,
    },
}

impl std::fmt::Display for ValidateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidateError::NoThreads => write!(f, "program has no threads"),
            ValidateError::CoreOutOfRange {
                thread,
                core,
                total_cores,
            } => write!(
                f,
                "thread {thread}: core {core} out of range (machine has {total_cores} cores)"
            ),
            ValidateError::CorePinnedTwice { thread, core } => {
                write!(f, "thread {thread}: core {core} pinned twice")
            }
            ValidateError::AddressOutOfRange { thread, op, addr } => write!(
                f,
                "thread {thread}, op {op}: address {addr:#x} outside every allocated region"
            ),
            ValidateError::ReserveExceedsMemory {
                thread,
                op,
                bytes,
                dram_bytes,
            } => write!(
                f,
                "thread {thread}, op {op}: reserve of {bytes} bytes exceeds the machine's \
                 {dram_bytes} bytes of DRAM"
            ),
        }
    }
}

impl std::error::Error for ValidateError {}

impl Program {
    /// The address space with region/page-policy layout.
    pub fn space(&self) -> &AddressSpace {
        &self.space
    }

    /// Per-thread instruction streams, in thread-index order.
    pub fn threads(&self) -> &[ThreadProgram] {
        &self.threads
    }

    /// Total number of ops across all threads.
    pub fn total_ops(&self) -> usize {
        self.threads.iter().map(ThreadProgram::len).sum()
    }

    /// Validates core pinning (distinct, in range for `topology`), that
    /// every `Load`/`Store` targets an allocated region and that no
    /// `Reserve` asks for more than the topology's DRAM. This is the same
    /// front door the static analyzer (`np-analysis`) uses before it
    /// reasons about a program. Addresses and reserves were checked when
    /// the program was built, so this reads no op: its cost is per thread.
    pub fn validate(&self, topology: &Topology) -> Result<(), ValidateError> {
        if self.threads.is_empty() {
            return Err(ValidateError::NoThreads);
        }
        let dram_bytes = topology.dram_per_node.saturating_mul(topology.nodes as u64);
        let mut seen = std::collections::HashSet::new();
        for (i, t) in self.threads.iter().enumerate() {
            if t.core >= topology.total_cores() {
                return Err(ValidateError::CoreOutOfRange {
                    thread: i,
                    core: t.core,
                    total_cores: topology.total_cores(),
                });
            }
            if !seen.insert(t.core) {
                return Err(ValidateError::CorePinnedTwice {
                    thread: i,
                    core: t.core,
                });
            }
            if let Some((op, addr)) = t.unmapped {
                return Err(ValidateError::AddressOutOfRange {
                    thread: i,
                    op,
                    addr,
                });
            }
            if let Some((op, bytes)) = t.largest_reserve.filter(|&(_, b)| b > dram_bytes) {
                return Err(ValidateError::ReserveExceedsMemory {
                    thread: i,
                    op,
                    bytes,
                    dram_bytes,
                });
            }
        }
        Ok(())
    }
}

/// Builder for [`Program`]s: allocate regions, then append ops per thread.
///
/// Each `Load`/`Store` address is checked against the regions allocated
/// so far when it is pushed. Regions only ever grow the mapped range, so
/// an address mapped then stays mapped; a thread with an op pushed before
/// its region existed is checked again from that op at [`Self::build`].
/// Each thread's largest `Reserve` is noted as it is pushed.
pub struct ProgramBuilder {
    space: AddressSpace,
    threads: Vec<ThreadProgram>,
    /// Each thread's last load or store address, the encoder's cursor.
    cursors: Vec<u64>,
}

impl ProgramBuilder {
    /// Starts a program for a machine with `topology` and `page_bytes`
    /// pages.
    pub fn new(topology: &Topology, page_bytes: u64) -> Self {
        ProgramBuilder {
            space: AddressSpace::new(topology, page_bytes),
            threads: Vec::new(),
            cursors: Vec::new(),
        }
    }

    /// Reserves a region; see [`AddressSpace::alloc`].
    pub fn alloc(&mut self, bytes: u64, policy: AllocPolicy) -> u64 {
        self.space.alloc(bytes, policy)
    }

    /// Adds a thread pinned to `core`; returns its index for the append
    /// methods.
    pub fn add_thread(&mut self, core: CoreId) -> usize {
        self.threads.push(ThreadProgram {
            core,
            words: Vec::new(),
            wide: Vec::new(),
            unmapped: None,
            largest_reserve: None,
        });
        self.cursors.push(0);
        self.threads.len() - 1
    }

    /// Appends `op` to `thread` as a packed word, checking a load's or
    /// store's address against the regions allocated so far and noting a
    /// reserve larger than any before it. Inlined into each append
    /// method, where the op's kind is a constant and both matches on it
    /// fold away; as a call it builds programs about 1.5× slower.
    #[inline(always)]
    fn push(&mut self, thread: usize, op: Op) {
        let t = &mut self.threads[thread];
        let index = t.words.len();
        match op {
            Op::Load { addr, .. } | Op::Store { addr }
                if t.unmapped.is_none() && !self.space.contains(addr) =>
            {
                t.unmapped = Some((index, addr));
            }
            Op::Reserve(bytes) if t.largest_reserve.is_none_or(|(_, most)| bytes > most) => {
                t.largest_reserve = Some((index, bytes));
            }
            _ => {}
        }
        let word = encode(op, &mut self.cursors[thread]).unwrap_or_else(|| {
            let slot = t.wide.len();
            assert!(
                slot <= OPERAND_MASK as usize,
                "thread {thread}: more than 2^28 ops in the side table"
            );
            t.wide.push(op);
            WIDE << KIND_SHIFT | slot as u32
        });
        t.words.push(word);
    }

    /// Appends a load.
    pub fn load(&mut self, thread: usize, addr: u64) {
        self.push(
            thread,
            Op::Load {
                addr,
                dependent: false,
            },
        );
    }

    /// Appends a dependent (serialising) load.
    pub fn load_dependent(&mut self, thread: usize, addr: u64) {
        self.push(
            thread,
            Op::Load {
                addr,
                dependent: true,
            },
        );
    }

    /// Appends a store.
    pub fn store(&mut self, thread: usize, addr: u64) {
        self.push(thread, Op::Store { addr });
    }

    /// Appends `n` ALU instructions.
    pub fn exec(&mut self, thread: usize, n: u32) {
        self.push(thread, Op::Exec(n));
    }

    /// Appends a branch.
    pub fn branch(&mut self, thread: usize, site: u32, taken: bool) {
        self.push(thread, Op::Branch { site, taken });
    }

    /// Appends a barrier (one id per superstep).
    pub fn barrier(&mut self, thread: usize, id: u32) {
        self.push(thread, Op::Barrier(id));
    }

    /// Appends a TLB flush (shootdown delivery).
    pub fn tlb_flush(&mut self, thread: usize) {
        self.push(thread, Op::TlbFlush);
    }

    /// Marks the start of source region `id` on `thread`.
    pub fn label(&mut self, thread: usize, id: u32) {
        self.push(thread, Op::Label(id));
    }

    /// Appends a footprint reservation.
    pub fn reserve(&mut self, thread: usize, bytes: u64) {
        self.push(thread, Op::Reserve(bytes));
    }

    /// Appends a footprint release.
    pub fn release(&mut self, thread: usize, bytes: u64) {
        self.push(thread, Op::Release(bytes));
    }

    /// Finishes the program, fixing each thread's first unmapped access
    /// against the final regions.
    pub fn build(self) -> Program {
        let ProgramBuilder {
            space, mut threads, ..
        } = self;
        for t in &mut threads {
            let Some((from, _)) = t.unmapped else {
                continue;
            };
            let first = t.ops().enumerate().skip(from).find_map(|(i, op)| match op {
                Op::Load { addr, .. } | Op::Store { addr } if !space.contains(addr) => {
                    Some((i, addr))
                }
                _ => None,
            });
            t.unmapped = first;
        }
        Program { space, threads }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;

    fn topo() -> Topology {
        Topology::fully_interconnected(2, 4, 1 << 30)
    }

    #[test]
    fn builder_assembles_program() {
        let t = topo();
        let mut b = ProgramBuilder::new(&t, 4096);
        let buf = b.alloc(8192, AllocPolicy::FirstTouch);
        let t0 = b.add_thread(0);
        let t1 = b.add_thread(4);
        b.load(t0, buf);
        b.store(t0, buf + 64);
        b.exec(t0, 10);
        b.branch(t1, 7, true);
        b.barrier(t0, 1);
        b.barrier(t1, 1);
        b.reserve(t1, 4096);
        b.release(t1, 4096);
        let p = b.build();
        assert_eq!(p.threads().len(), 2);
        assert_eq!(p.total_ops(), 8);
        p.validate(&t).unwrap();
        assert_eq!(
            p.threads()[0].ops().next(),
            Some(Op::Load {
                addr: buf,
                dependent: false
            })
        );
    }

    #[test]
    fn a_stored_op_is_one_u32_word() {
        let t = topo();
        let mut b = ProgramBuilder::new(&t, 4096);
        b.alloc(1 << 29, AllocPolicy::Bind(0)); // from 4096 up
        let th = b.add_thread(0);
        let forward = (1 << 27) - 1; // the largest step forward
        b.load(th, forward); // from 0
        b.load_dependent(th, 2 * forward);
        b.store(th, 2 * forward - (1 << 27)); // the largest step back
        b.exec(th, OPERAND_MASK);
        b.branch(th, OPERAND_MASK, true);
        b.branch(th, 0, false);
        b.barrier(th, OPERAND_MASK);
        b.tlb_flush(th);
        b.label(th, OPERAND_MASK);
        b.reserve(th, OPERAND_MASK.into());
        b.release(th, OPERAND_MASK.into());
        let p = b.build();
        p.validate(&t).unwrap();
        let stream = &p.threads()[0];
        assert_eq!(stream.len(), 11);
        assert_eq!(std::mem::size_of_val(stream.words.as_slice()), 4 * 11);
        assert!(stream.wide.is_empty(), "every operand fits 28 bits");
        assert_eq!(stream.ops().len(), 11);
        assert_eq!(
            stream.ops().take(3).collect::<Vec<_>>(),
            vec![
                Op::Load {
                    addr: forward,
                    dependent: false
                },
                Op::Load {
                    addr: 2 * forward,
                    dependent: true
                },
                Op::Store {
                    addr: 2 * forward - (1 << 27)
                },
            ]
        );
    }

    #[test]
    fn wide_operands_go_to_the_side_table() {
        let t = topo();
        let mut b = ProgramBuilder::new(&t, 4096);
        let th = b.add_thread(0);
        let wide = [
            Op::Load {
                addr: 1 << 27, // one past the largest step forward from 0
                dependent: false,
            },
            Op::Load {
                addr: u64::MAX,
                dependent: true,
            },
            Op::Store {
                addr: (1 << 60) + 5,
            },
            Op::Reserve(1 << 28),
            Op::Release(u64::MAX),
            Op::Exec(1 << 28),
            Op::Branch {
                site: u32::MAX,
                taken: false,
            },
            Op::Branch {
                site: 1 << 28,
                taken: true,
            },
            Op::Barrier(u32::MAX),
            Op::Label(1 << 28),
        ];
        for &op in &wide {
            b.push(th, op);
            b.exec(th, 1);
        }
        // One step back from the last wide store: narrow again.
        b.load(th, (1 << 60) + 4);
        // A step of exactly -2^27 - 1 from there is one past the largest
        // step back.
        b.store(th, (1 << 60) + 3 - (1 << 27));
        let p = b.build();
        let stream = &p.threads()[0];
        let mut expected = wide.to_vec();
        expected.push(Op::Store {
            addr: (1 << 60) + 3 - (1 << 27),
        });
        assert_eq!(stream.wide, expected);
        let mut ops = Vec::new();
        for &op in &wide {
            ops.push(op);
            ops.push(Op::Exec(1));
        }
        ops.push(Op::Load {
            addr: (1 << 60) + 4,
            dependent: false,
        });
        ops.push(Op::Store {
            addr: (1 << 60) + 3 - (1 << 27),
        });
        assert_eq!(stream.len(), ops.len());
        assert_eq!(stream.ops().collect::<Vec<_>>(), ops);
    }

    #[test]
    fn the_largest_reserve_is_checked_against_the_machines_dram() {
        let t = topo(); // 2 nodes of 1 GiB
        let mut b = ProgramBuilder::new(&t, 4096);
        let t0 = b.add_thread(0);
        let t1 = b.add_thread(1);
        b.reserve(t0, 2 << 30); // exactly the machine's DRAM
        b.reserve(t1, 1 << 30);
        b.exec(t1, 1);
        b.reserve(t1, (2 << 30) + 1);
        b.reserve(t1, (2 << 30) + 1); // as large, but later
        b.reserve(t1, 4096);
        let err = b.build().validate(&t).unwrap_err();
        assert_eq!(
            err,
            ValidateError::ReserveExceedsMemory {
                thread: 1,
                op: 2,
                bytes: (2 << 30) + 1,
                dram_bytes: 2 << 30,
            }
        );
        assert!(err.to_string().contains("exceeds the machine's"));
    }

    #[test]
    fn validate_rejects_duplicate_core() {
        let t = topo();
        let mut b = ProgramBuilder::new(&t, 4096);
        b.add_thread(1);
        b.add_thread(1);
        assert!(b.build().validate(&t).is_err());
    }

    #[test]
    fn validate_rejects_out_of_range_core() {
        let t = topo();
        let mut b = ProgramBuilder::new(&t, 4096);
        b.add_thread(99);
        assert!(b.build().validate(&t).is_err());
    }

    #[test]
    fn validate_rejects_empty_program() {
        let t = topo();
        let b = ProgramBuilder::new(&t, 4096);
        assert!(b.build().validate(&t).is_err());
    }

    #[test]
    fn validate_rejects_unmapped_address() {
        let t = topo();
        let mut b = ProgramBuilder::new(&t, 4096);
        let buf = b.alloc(4096, AllocPolicy::Bind(0));
        let th = b.add_thread(0);
        b.load(th, buf);
        b.store(th, buf + 4096); // one byte past the region
        let err = b.build().validate(&t).unwrap_err();
        assert_eq!(
            err,
            ValidateError::AddressOutOfRange {
                thread: 0,
                op: 1,
                addr: buf + 4096
            }
        );
        assert!(err.to_string().contains("outside every allocated region"));
    }

    #[test]
    fn validate_errors_are_typed() {
        let t = topo();
        let b = ProgramBuilder::new(&t, 4096);
        assert_eq!(
            b.build().validate(&t).unwrap_err(),
            ValidateError::NoThreads
        );

        let mut b = ProgramBuilder::new(&t, 4096);
        b.add_thread(99);
        assert!(matches!(
            b.build().validate(&t).unwrap_err(),
            ValidateError::CoreOutOfRange {
                thread: 0,
                core: 99,
                ..
            }
        ));

        let mut b = ProgramBuilder::new(&t, 4096);
        b.add_thread(1);
        b.add_thread(1);
        assert!(matches!(
            b.build().validate(&t).unwrap_err(),
            ValidateError::CorePinnedTwice { thread: 1, core: 1 }
        ));
    }

    #[test]
    fn dependent_load_flag_preserved() {
        let t = topo();
        let mut b = ProgramBuilder::new(&t, 4096);
        let a = b.alloc(4096, AllocPolicy::Bind(0));
        let th = b.add_thread(0);
        b.load_dependent(th, a);
        let p = b.build();
        assert_eq!(
            p.threads()[0].ops().next(),
            Some(Op::Load {
                addr: a,
                dependent: true
            })
        );
    }

    #[test]
    fn a_load_pushed_before_its_region_validates() {
        let t = topo();
        let mut b = ProgramBuilder::new(&t, 4096);
        let th = b.add_thread(0);
        // Regions are carved from `page_bytes` up, so the next region's
        // base is known before it is allocated.
        b.load(th, 4096 + 8);
        b.store(th, 4096 + 4095);
        let buf = b.alloc(4096, AllocPolicy::FirstTouch);
        assert_eq!(buf, 4096);
        b.load(th, buf);
        b.build().validate(&t).unwrap();
    }

    #[test]
    fn an_early_op_still_unmapped_at_build_is_named() {
        let t = topo();
        let mut b = ProgramBuilder::new(&t, 4096);
        let th = b.add_thread(0);
        b.load(th, 4096); // mapped by the alloc below
        b.exec(th, 1);
        b.load(th, 3 * 4096); // past it
        b.alloc(4096, AllocPolicy::FirstTouch);
        b.load(th, 0); // never mapped either, but later
        assert_eq!(
            b.build().validate(&t).unwrap_err(),
            ValidateError::AddressOutOfRange {
                thread: 0,
                op: 2,
                addr: 3 * 4096
            }
        );
    }

    #[test]
    fn an_unmapped_address_above_2_60_names_its_thread_op_and_address() {
        let t = topo();
        let mut b = ProgramBuilder::new(&t, 4096);
        let buf = b.alloc(4096, AllocPolicy::Bind(0));
        let t0 = b.add_thread(0);
        let t1 = b.add_thread(1);
        b.load(t0, buf);
        b.exec(t1, 3);
        b.store(t1, buf);
        b.load_dependent(t1, u64::MAX - 7);
        b.store(t1, 1 << 61);
        let p = b.build();
        assert_eq!(
            p.threads()[1].ops().nth(2),
            Some(Op::Load {
                addr: u64::MAX - 7,
                dependent: true
            })
        );
        assert_eq!(
            p.validate(&t).unwrap_err(),
            ValidateError::AddressOutOfRange {
                thread: 1,
                op: 2,
                addr: u64::MAX - 7
            }
        );
    }

    #[test]
    fn an_address_error_on_thread_0_precedes_a_core_error_on_thread_1() {
        let t = topo();
        let mut b = ProgramBuilder::new(&t, 4096);
        let buf = b.alloc(4096, AllocPolicy::Bind(0));
        let t0 = b.add_thread(2);
        b.add_thread(99);
        b.load(t0, buf);
        b.store(t0, buf + 4096);
        assert_eq!(
            b.build().validate(&t).unwrap_err(),
            ValidateError::AddressOutOfRange {
                thread: 0,
                op: 1,
                addr: buf + 4096
            }
        );
    }
}

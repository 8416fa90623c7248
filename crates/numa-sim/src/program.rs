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
/// Ops are stored packed, one `u64` word each: the top 4 bits hold the
/// kind and the low 60 bits the operand. A dependent load and each branch
/// direction are kinds of their own, so no flag needs a bit. An address or
/// byte count too wide for 60 bits goes to a per-thread side table and the
/// word holds its index there, so every `u64` operand round-trips exactly.
/// [`ThreadProgram::ops`] decodes the words back into [`Op`]s.
#[derive(Debug, Clone)]
pub struct ThreadProgram {
    core: CoreId,
    words: Vec<u64>,
    wide: Vec<u64>,
    /// The first `Load`/`Store` outside every allocated region, as
    /// `(op index, address)`. While building it is the first one
    /// unmapped when pushed; [`ProgramBuilder::build`] checks again from
    /// there against the final regions.
    unmapped: Option<(usize, u64)>,
}

const KIND_SHIFT: u32 = 60;
const OPERAND_MASK: u64 = (1 << KIND_SHIFT) - 1;
// Op kinds. Loads and stores come first, so `kind <= STORE` is a memory
// access; the first five carry a `u64` operand that may be wide.
const LOAD: u64 = 0;
const LOAD_DEP: u64 = 1;
const STORE: u64 = 2;
const RESERVE: u64 = 3;
const RELEASE: u64 = 4;
const EXEC: u64 = 5;
const BRANCH_NOT_TAKEN: u64 = 6;
const BRANCH_TAKEN: u64 = 7;
const BARRIER: u64 = 8;
const TLB_FLUSH: u64 = 9;
const LABEL: u64 = 10;
/// Kind `WIDE + k` is kind `k` whose operand is a side-table index.
const WIDE: u64 = 11;

/// Decodes one packed word; `wide` is its thread's side table.
#[inline(always)]
fn decode(word: u64, wide: &[u64]) -> Op {
    let mut kind = word >> KIND_SHIFT;
    let mut operand = word & OPERAND_MASK;
    if kind >= WIDE {
        kind -= WIDE;
        operand = wide[operand as usize];
    }
    match kind {
        LOAD | LOAD_DEP => Op::Load {
            addr: operand,
            dependent: kind == LOAD_DEP,
        },
        STORE => Op::Store { addr: operand },
        RESERVE => Op::Reserve(operand),
        RELEASE => Op::Release(operand),
        EXEC => Op::Exec(operand as u32),
        BRANCH_NOT_TAKEN | BRANCH_TAKEN => Op::Branch {
            site: operand as u32,
            taken: kind == BRANCH_TAKEN,
        },
        BARRIER => Op::Barrier(operand as u32),
        TLB_FLUSH => Op::TlbFlush,
        _ => Op::Label(operand as u32), // LABEL, the last kind
    }
}

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
        self.words.iter().map(|&w| decode(w, &self.wide))
    }

    /// Op `pc` (below [`Self::len`]), decoded.
    #[inline(always)]
    pub(crate) fn op(&self, pc: usize) -> Op {
        decode(self.words[pc], &self.wide)
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

    /// Validates core pinning (distinct, in range for `topology`) and that
    /// every `Load`/`Store` targets an allocated region. This is the same
    /// front door the static analyzer (`np-analysis`) uses before it
    /// reasons about a program. Addresses were checked when the program
    /// was built, so this reads no op: its cost is per thread.
    pub fn validate(&self, topology: &Topology) -> Result<(), ValidateError> {
        if self.threads.is_empty() {
            return Err(ValidateError::NoThreads);
        }
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
pub struct ProgramBuilder {
    space: AddressSpace,
    threads: Vec<ThreadProgram>,
}

impl ProgramBuilder {
    /// Starts a program for a machine with `topology` and `page_bytes`
    /// pages.
    pub fn new(topology: &Topology, page_bytes: u64) -> Self {
        ProgramBuilder {
            space: AddressSpace::new(topology, page_bytes),
            threads: Vec::new(),
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
        });
        self.threads.len() - 1
    }

    /// Appends one op to `thread` as a packed word, checking a load's or
    /// store's address against the regions allocated so far.
    fn push(&mut self, thread: usize, kind: u64, operand: u64) {
        let t = &mut self.threads[thread];
        if kind <= STORE && t.unmapped.is_none() && !self.space.contains(operand) {
            t.unmapped = Some((t.words.len(), operand));
        }
        let word = if operand <= OPERAND_MASK {
            kind << KIND_SHIFT | operand
        } else {
            t.wide.push(operand);
            (WIDE + kind) << KIND_SHIFT | (t.wide.len() - 1) as u64
        };
        t.words.push(word);
    }

    /// Appends a load.
    pub fn load(&mut self, thread: usize, addr: u64) {
        self.push(thread, LOAD, addr);
    }

    /// Appends a dependent (serialising) load.
    pub fn load_dependent(&mut self, thread: usize, addr: u64) {
        self.push(thread, LOAD_DEP, addr);
    }

    /// Appends a store.
    pub fn store(&mut self, thread: usize, addr: u64) {
        self.push(thread, STORE, addr);
    }

    /// Appends `n` ALU instructions.
    pub fn exec(&mut self, thread: usize, n: u32) {
        self.push(thread, EXEC, n.into());
    }

    /// Appends a branch.
    pub fn branch(&mut self, thread: usize, site: u32, taken: bool) {
        let kind = if taken {
            BRANCH_TAKEN
        } else {
            BRANCH_NOT_TAKEN
        };
        self.push(thread, kind, site.into());
    }

    /// Appends a barrier (one id per superstep).
    pub fn barrier(&mut self, thread: usize, id: u32) {
        self.push(thread, BARRIER, id.into());
    }

    /// Appends a TLB flush (shootdown delivery).
    pub fn tlb_flush(&mut self, thread: usize) {
        self.push(thread, TLB_FLUSH, 0);
    }

    /// Marks the start of source region `id` on `thread`.
    pub fn label(&mut self, thread: usize, id: u32) {
        self.push(thread, LABEL, id.into());
    }

    /// Appends a footprint reservation.
    pub fn reserve(&mut self, thread: usize, bytes: u64) {
        self.push(thread, RESERVE, bytes);
    }

    /// Appends a footprint release.
    pub fn release(&mut self, thread: usize, bytes: u64) {
        self.push(thread, RELEASE, bytes);
    }

    /// Finishes the program, fixing each thread's first unmapped access
    /// against the final regions.
    pub fn build(self) -> Program {
        let ProgramBuilder { space, mut threads } = self;
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
    fn a_stored_op_is_one_u64_word() {
        let t = topo();
        let mut b = ProgramBuilder::new(&t, 4096);
        let buf = b.alloc(4096, AllocPolicy::Bind(0));
        let th = b.add_thread(0);
        b.load(th, buf);
        b.load_dependent(th, buf);
        b.store(th, buf);
        b.exec(th, u32::MAX);
        b.branch(th, u32::MAX, true);
        b.branch(th, 0, false);
        b.barrier(th, u32::MAX);
        b.tlb_flush(th);
        b.label(th, u32::MAX);
        b.reserve(th, OPERAND_MASK);
        b.release(th, OPERAND_MASK);
        let p = b.build();
        let stream = &p.threads()[0];
        assert_eq!(stream.len(), 11);
        assert_eq!(std::mem::size_of_val(stream.words.as_slice()), 8 * 11);
        assert!(stream.wide.is_empty(), "every operand fits 60 bits");
        assert_eq!(stream.ops().len(), 11);
    }

    #[test]
    fn wide_operands_go_to_the_side_table() {
        let t = topo();
        let mut b = ProgramBuilder::new(&t, 4096);
        let th = b.add_thread(0);
        b.reserve(th, 1 << 60);
        b.exec(th, 1);
        b.release(th, u64::MAX);
        let p = b.build();
        let stream = &p.threads()[0];
        assert_eq!(stream.words.len(), 3);
        assert_eq!(stream.wide, vec![1 << 60, u64::MAX]);
        assert_eq!(
            stream.ops().collect::<Vec<_>>(),
            vec![Op::Reserve(1 << 60), Op::Exec(1), Op::Release(u64::MAX)]
        );
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

//! Per-thread control-flow graphs over the sim IR.
//!
//! The IR ([`Op`]) has no jumps — `Branch` records a predicted direction
//! but both outcomes fall through — so each thread's CFG is a straight
//! chain of basic blocks. Blocks are still worth cutting: barriers are the
//! only synchronisation edges (the race detector numbers supersteps by
//! them), branches are the only speculation points, and labels delimit the
//! source regions the annotate tool attributes events to. Every other
//! analysis in this crate walks these blocks rather than raw op vectors.

use np_simulator::program::{Op, Program};
use np_simulator::topology::CoreId;

/// A maximal straight-line run of ops, plus the op that terminated it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Block {
    /// Index of the first straight-line op.
    pub start: usize,
    /// One past the last straight-line op (== index of the terminator when
    /// there is one).
    pub end: usize,
    /// Index of the `Barrier`/`Branch`/`Label` op ending the block, if the
    /// block was not ended by the end of the thread.
    pub terminator: Option<usize>,
}

impl Block {
    /// The ops of this block (terminator excluded), out of `ops`.
    pub fn ops<'a>(&self, ops: &'a [Op]) -> &'a [Op] {
        &ops[self.start..self.end]
    }
}

/// The CFG of one thread: a chain of blocks (block `i` falls through to
/// block `i + 1`) and the thread's barrier trace.
#[derive(Debug, Clone)]
pub struct ThreadCfg {
    /// The core the thread is pinned to.
    pub core: CoreId,
    /// Blocks in program order, tiling the whole op stream.
    pub blocks: Vec<Block>,
    /// `(op index, barrier id)` for every `Barrier` op, in program order.
    pub barrier_seq: Vec<(usize, u32)>,
}

/// CFGs for every thread of a program.
#[derive(Debug, Clone)]
pub struct ProgramCfg {
    /// One CFG per thread, same order as `Program::threads`.
    pub threads: Vec<ThreadCfg>,
}

impl ProgramCfg {
    /// Segments `program` into per-thread basic blocks.
    pub fn build(program: &Program) -> Self {
        let threads = program
            .threads()
            .iter()
            .map(|t| {
                let mut blocks = Vec::new();
                let mut barrier_seq = Vec::new();
                let mut start = 0usize;
                for (i, op) in t.ops().enumerate() {
                    let is_boundary = match op {
                        Op::Barrier(id) => {
                            barrier_seq.push((i, id));
                            true
                        }
                        Op::Branch { .. } | Op::Label(_) => true,
                        _ => false,
                    };
                    if is_boundary {
                        blocks.push(Block {
                            start,
                            end: i,
                            terminator: Some(i),
                        });
                        start = i + 1;
                    }
                }
                if start < t.len() || blocks.is_empty() {
                    blocks.push(Block {
                        start,
                        end: t.len(),
                        terminator: None,
                    });
                }
                ThreadCfg {
                    core: t.core(),
                    blocks,
                    barrier_seq,
                }
            })
            .collect();
        ProgramCfg { threads }
    }

    /// Total number of basic blocks.
    pub fn block_count(&self) -> usize {
        self.threads.iter().map(|t| t.blocks.len()).sum()
    }
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
    fn blocks_tile_the_stream_and_record_barriers() {
        let t = topo();
        let mut b = ProgramBuilder::new(&t, 4096);
        let buf = b.alloc(4096, AllocPolicy::Bind(0));
        let th = b.add_thread(0);
        b.load(th, buf);
        b.exec(th, 3);
        b.barrier(th, 7); // op 2
        b.store(th, buf);
        b.branch(th, 1, true); // op 4
        b.load(th, buf + 8);
        let p = b.build();
        let cfg = ProgramCfg::build(&p);
        let tc = &cfg.threads[0];
        assert_eq!(tc.barrier_seq, vec![(2, 7)]);
        assert_eq!(
            tc.blocks,
            vec![
                Block {
                    start: 0,
                    end: 2,
                    terminator: Some(2)
                },
                Block {
                    start: 3,
                    end: 4,
                    terminator: Some(4)
                },
                Block {
                    start: 5,
                    end: 6,
                    terminator: None
                },
            ]
        );
        // The blocks cover every op exactly once.
        let covered: usize = tc
            .blocks
            .iter()
            .map(|bl| bl.end - bl.start + usize::from(bl.terminator.is_some()))
            .sum();
        assert_eq!(covered, p.threads()[0].len());
    }

    #[test]
    fn empty_thread_gets_one_empty_block() {
        let t = topo();
        let mut b = ProgramBuilder::new(&t, 4096);
        b.add_thread(0);
        let cfg = ProgramCfg::build(&b.build());
        assert_eq!(cfg.threads[0].blocks.len(), 1);
        assert_eq!(cfg.block_count(), 1);
    }
}

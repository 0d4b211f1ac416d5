//! The [`Program`] container: instruction arena, basic blocks, and CFG.

use std::collections::BTreeMap;
use std::fmt;

use crate::error::{ProgramError, ValidateError};
use crate::instr::{Instr, InstrId, InstrKind};

/// Stable identity of a basic block within a [`Program`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct BlockId(pub u32);

impl BlockId {
    /// Arena index of this block.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// Why control flows along a CFG edge.
///
/// The distinction matters to the trace simulator (branch behaviour policies)
/// and to the target/wrong-path hardware prefetcher baselines, which treat
/// taken branches differently from fall-through.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum EdgeKind {
    /// Execution falls through to the next block in layout order.
    Fallthrough,
    /// A branch (or switch arm) transfers control away from layout order.
    Taken,
}

/// A basic block: a maximal straight-line instruction sequence.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BasicBlock {
    id: BlockId,
    instrs: Vec<InstrId>,
}

impl BasicBlock {
    /// Identity of this block.
    #[inline]
    pub fn id(&self) -> BlockId {
        self.id
    }

    /// Instructions in program order.
    #[inline]
    pub fn instrs(&self) -> &[InstrId] {
        &self.instrs
    }

    /// Number of instructions in the block.
    #[inline]
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the block holds no instructions.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }
}

/// A whole program: instruction arena, basic blocks, CFG, and loop bounds.
///
/// Instruction and block ids are arena indices and remain stable across
/// mutation; in particular the prefetch optimizer can insert instructions
/// without invalidating outstanding ids. Byte addresses are *not* stored
/// here — compute them with [`Layout::of`](crate::Layout::of), which is how
/// relocation after an insertion is observed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Program {
    name: String,
    instr_kinds: Vec<InstrKind>,
    /// For each instruction: the block that contains it.
    instr_block: Vec<BlockId>,
    blocks: Vec<BasicBlock>,
    entry: BlockId,
    /// Blocks in code-layout order (addresses are assigned in this order).
    layout_order: Vec<BlockId>,
    succs: Vec<Vec<(BlockId, EdgeKind)>>,
    preds: Vec<Vec<BlockId>>,
    /// Iteration bounds, keyed by natural-loop header. A bound of `n` means
    /// the loop body headed there executes at most `n` times per entry of
    /// the loop from outside.
    loop_bounds: BTreeMap<BlockId, u32>,
}

impl Program {
    /// Creates an empty program with a single (empty) entry block.
    pub fn new(name: impl Into<String>) -> Self {
        let mut p = Program {
            name: name.into(),
            instr_kinds: Vec::new(),
            instr_block: Vec::new(),
            blocks: Vec::new(),
            entry: BlockId(0),
            layout_order: Vec::new(),
            succs: Vec::new(),
            preds: Vec::new(),
            loop_bounds: BTreeMap::new(),
        };
        let entry = p.add_block();
        p.entry = entry;
        p
    }

    /// Program name (used in reports and experiment output).
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The entry block.
    #[inline]
    pub fn entry(&self) -> BlockId {
        self.entry
    }

    /// Appends a fresh, empty basic block (also appended to layout order).
    pub fn add_block(&mut self) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(BasicBlock {
            id,
            instrs: Vec::new(),
        });
        self.succs.push(Vec::new());
        self.preds.push(Vec::new());
        self.layout_order.push(id);
        id
    }

    /// Number of basic blocks.
    #[inline]
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Number of instructions.
    #[inline]
    pub fn instr_count(&self) -> usize {
        self.instr_kinds.len()
    }

    /// Number of software prefetch instructions.
    pub fn prefetch_count(&self) -> usize {
        self.instr_kinds.iter().filter(|k| k.is_prefetch()).count()
    }

    /// All block ids, in arena order.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> + '_ {
        (0..self.blocks.len() as u32).map(BlockId)
    }

    /// Borrow a block.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a block of this program.
    #[inline]
    pub fn block(&self, id: BlockId) -> &BasicBlock {
        &self.blocks[id.index()]
    }

    /// The instruction with identity `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not an instruction of this program.
    #[inline]
    pub fn instr(&self, id: InstrId) -> Instr {
        Instr {
            id,
            kind: self.instr_kinds[id.index()],
        }
    }

    /// The block containing instruction `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not an instruction of this program.
    #[inline]
    pub fn block_of(&self, id: InstrId) -> BlockId {
        self.instr_block[id.index()]
    }

    /// Position of `id` inside its block.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not an instruction of this program.
    pub fn pos_in_block(&self, id: InstrId) -> usize {
        let bb = self.block_of(id);
        self.blocks[bb.index()]
            .instrs
            .iter()
            .position(|&i| i == id)
            .expect("instr_block out of sync")
    }

    /// Appends an instruction to `block`, returning its stable id.
    ///
    /// # Errors
    ///
    /// Returns [`ProgramError::UnknownBlock`] if `block` does not exist.
    pub fn push_instr(&mut self, block: BlockId, kind: InstrKind) -> Result<InstrId, ProgramError> {
        self.check_block(block)?;
        let pos = self.blocks[block.index()].instrs.len();
        self.insert_instr(block, pos, kind)
    }

    /// Inserts an instruction at `pos` within `block` (0 = block start),
    /// returning its stable id. Existing ids are unaffected; addresses
    /// change only through [`Layout`](crate::Layout) recomputation.
    ///
    /// # Errors
    ///
    /// Returns an error if the block does not exist or `pos` is past the end.
    pub fn insert_instr(
        &mut self,
        block: BlockId,
        pos: usize,
        kind: InstrKind,
    ) -> Result<InstrId, ProgramError> {
        self.check_block(block)?;
        let len = self.blocks[block.index()].instrs.len();
        if pos > len {
            return Err(ProgramError::PositionOutOfRange { block, pos, len });
        }
        if let InstrKind::Prefetch { target } = kind {
            self.check_instr(target)?;
        }
        let id = InstrId(self.instr_kinds.len() as u32);
        self.instr_kinds.push(kind);
        self.instr_block.push(block);
        self.blocks[block.index()].instrs.insert(pos, id);
        Ok(id)
    }

    /// Removes instruction `id`, which must be the newest in the arena —
    /// the exact inverse of the latest [`insert_instr`](Program::insert_instr).
    /// This lets a caller try an insertion in place and revert it
    /// without cloning the program. No other instruction may reference
    /// `id` as a prefetch target.
    ///
    /// # Errors
    ///
    /// Returns [`ProgramError::UnknownInstr`] if `id` is not the newest
    /// instruction.
    pub fn remove_newest_instr(&mut self, id: InstrId) -> Result<(), ProgramError> {
        if id.index() + 1 != self.instr_kinds.len() {
            return Err(ProgramError::UnknownInstr(id));
        }
        debug_assert!(
            !self
                .instr_kinds
                .iter()
                .any(|k| matches!(k, InstrKind::Prefetch { target } if *target == id)),
            "removing a prefetch target would dangle"
        );
        let block = self.instr_block[id.index()];
        self.instr_kinds.pop();
        self.instr_block.pop();
        let instrs = &mut self.blocks[block.index()].instrs;
        let pos = instrs
            .iter()
            .position(|&i| i == id)
            .expect("instruction listed in its block");
        instrs.remove(pos);
        Ok(())
    }

    /// Adds a CFG edge `from -> to`.
    ///
    /// Duplicate edges are ignored (the CFG is a simple graph).
    ///
    /// # Errors
    ///
    /// Returns [`ProgramError::UnknownBlock`] for an unknown endpoint.
    pub fn add_edge(
        &mut self,
        from: BlockId,
        to: BlockId,
        kind: EdgeKind,
    ) -> Result<(), ProgramError> {
        self.check_block(from)?;
        self.check_block(to)?;
        if self.succs[from.index()].iter().any(|&(s, _)| s == to) {
            return Ok(());
        }
        self.succs[from.index()].push((to, kind));
        self.preds[to.index()].push(from);
        Ok(())
    }

    /// Successors of `block` with their edge kinds.
    ///
    /// # Panics
    ///
    /// Panics if `block` is not a block of this program.
    #[inline]
    pub fn succs(&self, block: BlockId) -> &[(BlockId, EdgeKind)] {
        &self.succs[block.index()]
    }

    /// Predecessors of `block`.
    ///
    /// # Panics
    ///
    /// Panics if `block` is not a block of this program.
    #[inline]
    pub fn preds(&self, block: BlockId) -> &[BlockId] {
        &self.preds[block.index()]
    }

    /// Blocks with no successors (program exits).
    pub fn exits(&self) -> Vec<BlockId> {
        self.block_ids()
            .filter(|b| self.succs[b.index()].is_empty())
            .collect()
    }

    /// Records the iteration bound of the natural loop headed by `header`.
    ///
    /// The bound counts body executions per entry from outside the loop
    /// (i.e. a `for (i = 0; i < n; i++)` loop has bound `n`).
    ///
    /// # Errors
    ///
    /// Returns [`ProgramError::UnknownBlock`] if `header` does not exist.
    pub fn set_loop_bound(&mut self, header: BlockId, bound: u32) -> Result<(), ProgramError> {
        self.check_block(header)?;
        self.loop_bounds.insert(header, bound);
        Ok(())
    }

    /// The iteration bound recorded for `header`, if any.
    #[inline]
    pub fn loop_bound(&self, header: BlockId) -> Option<u32> {
        self.loop_bounds.get(&header).copied()
    }

    /// All recorded loop bounds, keyed by header.
    #[inline]
    pub fn loop_bounds(&self) -> &BTreeMap<BlockId, u32> {
        &self.loop_bounds
    }

    /// Blocks in code-layout order. [`Layout`](crate::Layout) assigns
    /// addresses by walking this order.
    #[inline]
    pub fn layout_order(&self) -> &[BlockId] {
        &self.layout_order
    }

    /// Total executed-code size in bytes under the current layout.
    pub fn code_bytes(&self) -> u64 {
        self.instr_count() as u64 * crate::INSTR_BYTES
    }

    /// Checks structural invariants: reachability, loop bounds present for
    /// every natural loop, reducibility, and prefetch target validity.
    ///
    /// # Errors
    ///
    /// Returns the first [`ValidateError`] found.
    pub fn validate(&self) -> Result<(), ValidateError> {
        if self.blocks.is_empty() {
            return Err(ValidateError::NoEntry);
        }
        // Reachability from entry.
        let order = crate::cfg::reverse_postorder(self);
        let mut reachable = vec![false; self.blocks.len()];
        for &b in &order {
            reachable[b.index()] = true;
        }
        for b in self.block_ids() {
            if !reachable[b.index()] {
                return Err(ValidateError::Unreachable(b));
            }
        }
        // Dead ends: every non-exit block must have successors; exits are
        // allowed anywhere. (Nothing to check: "no successors" *defines* an
        // exit here; instead require at least one exit overall.)
        if self.exits().is_empty() {
            return Err(ValidateError::DeadEnd(self.entry));
        }
        // Loops: every back edge must target a dominating header with bound.
        let dom = crate::dom::Dominators::compute(self);
        let loops = crate::loops::LoopForest::compute(self, &dom)
            .map_err(|e| ValidateError::Irreducible(e.block()))?;
        for l in loops.loops() {
            match self.loop_bound(l.header) {
                None => return Err(ValidateError::MissingLoopBound { header: l.header }),
                Some(0) => return Err(ValidateError::ZeroLoopBound { header: l.header }),
                Some(_) => {}
            }
        }
        // Prefetch targets.
        for (idx, kind) in self.instr_kinds.iter().enumerate() {
            if let InstrKind::Prefetch { target } = kind {
                if target.index() >= self.instr_kinds.len() {
                    return Err(ValidateError::DanglingPrefetch(InstrId(idx as u32)));
                }
            }
        }
        Ok(())
    }

    fn check_block(&self, b: BlockId) -> Result<(), ProgramError> {
        if b.index() < self.blocks.len() {
            Ok(())
        } else {
            Err(ProgramError::UnknownBlock(b))
        }
    }

    fn check_instr(&self, i: InstrId) -> Result<(), ProgramError> {
        if i.index() < self.instr_kinds.len() {
            Ok(())
        } else {
            Err(ProgramError::UnknownInstr(i))
        }
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "program {} ({} blocks, {} instrs)",
            self.name,
            self.block_count(),
            self.instr_count()
        )?;
        for &b in &self.layout_order {
            let bb = self.block(b);
            let succ: Vec<String> = self.succs(b).iter().map(|(s, _)| s.to_string()).collect();
            writeln!(f, "  {b} ({} instrs) -> [{}]", bb.len(), succ.join(", "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Program {
        // bb0 -> bb1 -> bb3, bb0 -> bb2 -> bb3
        let mut p = Program::new("diamond");
        let b0 = p.entry();
        let b1 = p.add_block();
        let b2 = p.add_block();
        let b3 = p.add_block();
        for b in [b0, b1, b2, b3] {
            for t in 0..3 {
                p.push_instr(b, InstrKind::Compute(t)).unwrap();
            }
        }
        p.add_edge(b0, b1, EdgeKind::Fallthrough).unwrap();
        p.add_edge(b0, b2, EdgeKind::Taken).unwrap();
        p.add_edge(b1, b3, EdgeKind::Fallthrough).unwrap();
        p.add_edge(b2, b3, EdgeKind::Fallthrough).unwrap();
        p
    }

    #[test]
    fn new_program_has_entry() {
        let p = Program::new("p");
        assert_eq!(p.block_count(), 1);
        assert_eq!(p.entry(), BlockId(0));
        assert_eq!(p.instr_count(), 0);
    }

    #[test]
    fn diamond_validates() {
        assert_eq!(diamond().validate(), Ok(()));
    }

    #[test]
    fn ids_are_stable_across_insertion() {
        let mut p = diamond();
        let b1 = BlockId(1);
        let before: Vec<InstrId> = p.block(b1).instrs().to_vec();
        let inserted = p
            .insert_instr(b1, 1, InstrKind::Prefetch { target: before[0] })
            .unwrap();
        let after = p.block(b1).instrs();
        assert_eq!(after.len(), before.len() + 1);
        assert_eq!(after[1], inserted);
        assert_eq!(after[0], before[0]);
        assert_eq!(after[2], before[1]);
        assert_eq!(p.block_of(inserted), b1);
        assert_eq!(p.pos_in_block(inserted), 1);
    }

    #[test]
    fn duplicate_edges_are_ignored() {
        let mut p = Program::new("p");
        let b0 = p.entry();
        let b1 = p.add_block();
        p.add_edge(b0, b1, EdgeKind::Fallthrough).unwrap();
        p.add_edge(b0, b1, EdgeKind::Fallthrough).unwrap();
        assert_eq!(p.succs(b0).len(), 1);
        assert_eq!(p.preds(b1).len(), 1);
    }

    #[test]
    fn unreachable_block_is_rejected() {
        let mut p = Program::new("p");
        let b0 = p.entry();
        p.push_instr(b0, InstrKind::Compute(0)).unwrap();
        let orphan = p.add_block();
        assert_eq!(p.validate(), Err(ValidateError::Unreachable(orphan)));
    }

    #[test]
    fn loop_without_bound_is_rejected() {
        let mut p = Program::new("p");
        let b0 = p.entry();
        let body = p.add_block();
        let exit = p.add_block();
        p.add_edge(b0, body, EdgeKind::Fallthrough).unwrap();
        p.add_edge(body, body, EdgeKind::Taken).unwrap();
        p.add_edge(body, exit, EdgeKind::Fallthrough).unwrap();
        assert_eq!(
            p.validate(),
            Err(ValidateError::MissingLoopBound { header: body })
        );
        p.set_loop_bound(body, 10).unwrap();
        assert_eq!(p.validate(), Ok(()));
    }

    #[test]
    fn position_out_of_range() {
        let mut p = Program::new("p");
        let b0 = p.entry();
        let err = p.insert_instr(b0, 5, InstrKind::Compute(0)).unwrap_err();
        assert!(matches!(err, ProgramError::PositionOutOfRange { .. }));
    }

    #[test]
    fn prefetch_count_counts_only_prefetches() {
        let mut p = diamond();
        assert_eq!(p.prefetch_count(), 0);
        let t = p.block(p.entry()).instrs()[0];
        p.push_instr(p.entry(), InstrKind::Prefetch { target: t })
            .unwrap();
        assert_eq!(p.prefetch_count(), 1);
    }
}

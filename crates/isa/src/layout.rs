//! Byte-address assignment and the relocation model.
//!
//! Addresses determine memory-block membership (`addr / block_bytes`), which
//! is everything the cache analyses observe. The paper's optimizer analyses
//! the program *in reverse* and therefore anchors the already-analysed
//! suffix when it inserts a prefetch: the code **before** the insertion
//! point shifts down by one instruction slot while everything after keeps
//! its address (physically realised by linking the final binary at
//! `base - 4 * inserted_count`). [`Layout::anchored`] implements exactly
//! this view; [`Layout::of`] is the ordinary base-anchored layout.

use std::fmt;

use crate::instr::{InstrId, INSTR_BYTES};
use crate::program::Program;

/// Default base address for program text (1 MiB), high enough that the
/// prefix-shift relocation model never underflows.
pub const DEFAULT_BASE: u64 = 0x0010_0000;

/// Identity of a memory block: `address / block_bytes`.
///
/// Memory blocks are the unit of transfer between the level-two memory and
/// the instruction cache.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct MemBlockId(pub u64);

impl fmt::Display for MemBlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A concrete address assignment for every instruction of a program.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Layout {
    addrs: Vec<u64>,
    base: u64,
}

impl Layout {
    /// Lays the program out contiguously from [`DEFAULT_BASE`], following
    /// [`Program::layout_order`] and instruction order within each block.
    pub fn of(p: &Program) -> Self {
        Self::with_base(p, DEFAULT_BASE)
    }

    /// Lays the program out contiguously from `base`.
    pub fn with_base(p: &Program, base: u64) -> Self {
        let mut addrs = vec![0u64; p.instr_count()];
        let mut cur = base;
        for &b in p.layout_order() {
            for &i in p.block(b).instrs() {
                addrs[i.index()] = cur;
                cur += INSTR_BYTES;
            }
        }
        Layout { addrs, base }
    }

    /// Lays the program out such that `anchor` sits at `anchor_addr`.
    ///
    /// This realises the paper's `relocate_upwards`: after inserting a
    /// prefetch, anchoring the first unmodified downstream instruction keeps
    /// every already-analysed address stable while the upstream code shifts
    /// down by one slot.
    ///
    /// # Panics
    ///
    /// Panics if `anchor` is not an instruction of `p`, or if the resulting
    /// base would underflow address zero.
    pub fn anchored(p: &Program, anchor: InstrId, anchor_addr: u64) -> Self {
        // Lay out once from zero, then shift: every instruction sits in a
        // block of the layout order, so every address moves by `base`.
        let mut layout = Self::with_base(p, 0);
        let base = anchor_addr
            .checked_sub(layout.addrs[anchor.index()])
            .expect("anchored layout underflows address zero");
        for a in &mut layout.addrs {
            *a += base;
        }
        layout.base = base;
        layout
    }

    /// Builds a layout from an explicit address assignment, one address
    /// per instruction indexed by [`InstrId`].
    ///
    /// Intended for tools that audit or replay externally produced
    /// layouts (e.g. from a linker map); nothing is checked here —
    /// [`Layout::of`] remains the canonical contiguous constructor, and
    /// `rtpf-audit` lints arbitrary assignments for overlap and gaps.
    pub fn from_addrs(addrs: Vec<u64>, base: u64) -> Self {
        Layout { addrs, base }
    }

    /// Base address of the text segment.
    #[inline]
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Address of instruction `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` was allocated after this layout was computed.
    #[inline]
    pub fn addr(&self, i: InstrId) -> u64 {
        self.addrs[i.index()]
    }

    /// Memory block containing instruction `i`, for a given block size.
    ///
    /// # Panics
    ///
    /// Panics if `block_bytes` is zero or `i` is unknown to this layout.
    #[inline]
    pub fn block_of(&self, i: InstrId, block_bytes: u32) -> MemBlockId {
        assert!(block_bytes > 0, "block size must be positive");
        MemBlockId(self.addrs[i.index()] / u64::from(block_bytes))
    }

    /// Number of instructions covered by this layout.
    #[inline]
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// Whether the layout covers no instructions.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::InstrKind;
    use crate::program::EdgeKind;

    fn two_block_program() -> (Program, Vec<InstrId>) {
        let mut p = Program::new("p");
        let b0 = p.entry();
        let b1 = p.add_block();
        p.add_edge(b0, b1, EdgeKind::Fallthrough).unwrap();
        let mut ids = Vec::new();
        for _ in 0..3 {
            ids.push(p.push_instr(b0, InstrKind::Compute(0)).unwrap());
        }
        for _ in 0..2 {
            ids.push(p.push_instr(b1, InstrKind::Compute(0)).unwrap());
        }
        (p, ids)
    }

    #[test]
    fn contiguous_four_byte_layout() {
        let (p, ids) = two_block_program();
        let l = Layout::of(&p);
        for (k, &i) in ids.iter().enumerate() {
            assert_eq!(l.addr(i), DEFAULT_BASE + 4 * k as u64);
        }
        assert_eq!(l.len(), 5);
    }

    #[test]
    fn block_mapping_uses_block_bytes() {
        let (p, ids) = two_block_program();
        let l = Layout::with_base(&p, 32);
        // 16-byte blocks: 4 instructions per block.
        assert_eq!(l.block_of(ids[0], 16), MemBlockId(2));
        assert_eq!(l.block_of(ids[3], 16), MemBlockId(2));
        assert_eq!(l.block_of(ids[4], 16), MemBlockId(3));
    }

    #[test]
    fn insertion_with_anchor_shifts_prefix_only() {
        let (mut p, ids) = two_block_program();
        let before = Layout::of(&p);
        // Insert a prefetch between ids[2] (end of bb0) and ids[3].
        let b1 = p.block_of(ids[3]);
        let pf = p
            .insert_instr(b1, 0, InstrKind::Prefetch { target: ids[0] })
            .unwrap();
        // Anchor the first unmodified downstream instruction.
        let after = Layout::anchored(&p, ids[3], before.addr(ids[3]));
        // Suffix unchanged.
        assert_eq!(after.addr(ids[3]), before.addr(ids[3]));
        assert_eq!(after.addr(ids[4]), before.addr(ids[4]));
        // Prefetch occupies the slot just before the anchor.
        assert_eq!(after.addr(pf), before.addr(ids[3]) - 4);
        // Prefix shifted down by exactly one slot.
        for &i in &ids[..3] {
            assert_eq!(after.addr(i), before.addr(i) - 4);
        }
        assert_eq!(after.base(), before.base() - 4);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn anchored_underflow_panics() {
        let (p, ids) = two_block_program();
        let _ = Layout::anchored(&p, ids[4], 8);
    }
}

//! Stable 128-bit content hashing for artifact keys.
//!
//! The artifact store keys every cached value by *content*: the program,
//! the [`EngineConfig`](crate::EngineConfig), and the stage version all
//! feed a [`Fingerprint`]. The hash must be stable across processes and
//! runs (it is persisted next to on-disk artifacts), so it is built from
//! two independent multiply-xor streams with fixed constants rather than
//! `std`'s randomized `DefaultHasher`.

use rtpf_isa::{EdgeKind, InstrKind, Program};

/// A 128-bit content hash, rendered as 32 hex characters on disk.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Fingerprint(pub u64, pub u64);

impl Fingerprint {
    /// Lowercase hex rendering (32 characters), the on-disk format.
    pub fn hex(&self) -> String {
        format!("{:016x}{:016x}", self.0, self.1)
    }

    /// Parses the [`hex`](Fingerprint::hex) rendering back.
    pub fn from_hex(s: &str) -> Option<Fingerprint> {
        let s = s.trim();
        if s.len() != 32 {
            return None;
        }
        let a = u64::from_str_radix(&s[..16], 16).ok()?;
        let b = u64::from_str_radix(&s[16..], 16).ok()?;
        Some(Fingerprint(a, b))
    }
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.hex())
    }
}

/// Incremental fingerprint builder: FNV-1a and a Murmur-style stream,
/// mixed per byte. Not cryptographic — collision resistance only needs to
/// beat accidental reuse of a stale artifact.
#[derive(Clone, Debug)]
pub struct FpHasher {
    a: u64,
    b: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
const MUR_OFFSET: u64 = 0x6c62_272e_07bb_0142;
const MUR_PRIME: u64 = 0xc6a4_a793_5bd1_e995;

impl Default for FpHasher {
    fn default() -> Self {
        FpHasher::new()
    }
}

impl FpHasher {
    /// Fresh hasher with the fixed offset bases.
    pub fn new() -> FpHasher {
        FpHasher {
            a: FNV_OFFSET,
            b: MUR_OFFSET,
        }
    }

    /// Absorbs one byte into both streams.
    #[inline]
    pub fn write_u8(&mut self, v: u8) {
        self.a = (self.a ^ u64::from(v)).wrapping_mul(FNV_PRIME);
        self.b = (self.b ^ u64::from(v))
            .wrapping_mul(MUR_PRIME)
            .rotate_left(17);
    }

    /// Absorbs a byte slice.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &v in bytes {
            self.write_u8(v);
        }
    }

    /// Absorbs a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Absorbs a `u32` (little-endian).
    pub fn write_u32(&mut self, v: u32) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Absorbs a length-prefixed string (prefixing prevents ambiguity
    /// between `"ab" + "c"` and `"a" + "bc"`).
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    /// Absorbs a previously computed fingerprint.
    pub fn write_fp(&mut self, fp: Fingerprint) {
        self.write_u64(fp.0);
        self.write_u64(fp.1);
    }

    /// Final avalanche and extraction.
    pub fn finish(&self) -> Fingerprint {
        let mix = |mut x: u64| {
            x ^= x >> 33;
            x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
            x ^= x >> 33;
            x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
            x ^ (x >> 33)
        };
        Fingerprint(mix(self.a ^ self.b.rotate_left(32)), mix(self.b ^ self.a))
    }
}

/// Content hash of a program: name, CFG shape, instruction stream, loop
/// bounds, and layout order — everything the analyses can observe. Two
/// structurally identical programs hash identically; any edit (an extra
/// prefetch, a changed bound, a reordered block) changes the hash.
///
/// The program is serialized into one contiguous byte buffer which is
/// absorbed in a single [`FpHasher::write_bytes`] pass. Both hash streams
/// are byte-serial, so this produces the same fingerprint as the old
/// field-at-a-time writes — persisted artifact keys stay valid — while
/// keeping the serializer a straight-line memory walk.
pub fn program_fingerprint(p: &Program) -> Fingerprint {
    // Rough upper bound: ~9 bytes per instruction plus block/edge framing.
    let mut buf = Vec::with_capacity(64 + 16 * p.instr_count());
    write_program_bytes(p, &mut buf);
    let mut h = FpHasher::new();
    h.write_bytes(&buf);
    h.finish()
}

/// Serializes everything [`program_fingerprint`] observes into `buf`,
/// using the same framing as the incremental `FpHasher` writers
/// (`write_str` = u64 length prefix + bytes, integers little-endian).
fn write_program_bytes(p: &Program, buf: &mut Vec<u8>) {
    let push_u64 = |buf: &mut Vec<u8>, v: u64| buf.extend_from_slice(&v.to_le_bytes());
    let push_u32 = |buf: &mut Vec<u8>, v: u32| buf.extend_from_slice(&v.to_le_bytes());
    push_u64(buf, p.name().len() as u64);
    buf.extend_from_slice(p.name().as_bytes());
    push_u64(buf, p.entry().index() as u64);
    push_u64(buf, p.block_count() as u64);
    for b in p.block_ids() {
        let block = p.block(b);
        push_u64(buf, b.index() as u64);
        push_u64(buf, block.len() as u64);
        for &i in block.instrs() {
            match p.instr(i).kind {
                InstrKind::Compute(tag) => {
                    buf.push(0);
                    push_u32(buf, u32::from(tag));
                }
                InstrKind::Branch => buf.push(1),
                InstrKind::Call => buf.push(2),
                InstrKind::Return => buf.push(3),
                InstrKind::Prefetch { target } => {
                    buf.push(4);
                    push_u32(buf, target.0);
                }
            }
        }
        for &(succ, kind) in p.succs(b) {
            push_u64(buf, succ.index() as u64);
            buf.push(match kind {
                EdgeKind::Fallthrough => 0,
                EdgeKind::Taken => 1,
            });
        }
    }
    for (&header, &bound) in p.loop_bounds() {
        push_u64(buf, header.index() as u64);
        push_u32(buf, bound);
    }
    for &b in p.layout_order() {
        push_u64(buf, b.index() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtpf_isa::shape::Shape;

    fn demo() -> Program {
        Shape::seq([
            Shape::code(10),
            Shape::loop_(5, Shape::if_else(2, Shape::code(6), Shape::code(4))),
        ])
        .compile("demo")
    }

    #[test]
    fn batched_buffer_matches_incremental_field_writes() {
        // The pre-batching implementation hashed field by field. Replay
        // those writes here and check the contiguous-buffer path produces
        // the identical fingerprint, so persisted artifact keys survive.
        let p = demo();
        let mut h = FpHasher::new();
        h.write_str(p.name());
        h.write_u64(p.entry().index() as u64);
        h.write_u64(p.block_count() as u64);
        for b in p.block_ids() {
            let block = p.block(b);
            h.write_u64(b.index() as u64);
            h.write_u64(block.len() as u64);
            for &i in block.instrs() {
                match p.instr(i).kind {
                    InstrKind::Compute(tag) => {
                        h.write_u8(0);
                        h.write_u32(u32::from(tag));
                    }
                    InstrKind::Branch => h.write_u8(1),
                    InstrKind::Call => h.write_u8(2),
                    InstrKind::Return => h.write_u8(3),
                    InstrKind::Prefetch { target } => {
                        h.write_u8(4);
                        h.write_u32(target.0);
                    }
                }
            }
            for &(succ, kind) in p.succs(b) {
                h.write_u64(succ.index() as u64);
                h.write_u8(match kind {
                    EdgeKind::Fallthrough => 0,
                    EdgeKind::Taken => 1,
                });
            }
        }
        for (&header, &bound) in p.loop_bounds() {
            h.write_u64(header.index() as u64);
            h.write_u32(bound);
        }
        for &b in p.layout_order() {
            h.write_u64(b.index() as u64);
        }
        assert_eq!(h.finish(), program_fingerprint(&p));
    }

    #[test]
    fn fingerprint_is_stable_and_roundtrips_hex() {
        let p = demo();
        let f1 = program_fingerprint(&p);
        let f2 = program_fingerprint(&p);
        assert_eq!(f1, f2);
        assert_eq!(Fingerprint::from_hex(&f1.hex()), Some(f1));
        assert_eq!(Fingerprint::from_hex("zz"), None);
    }

    #[test]
    fn structural_edits_change_the_fingerprint() {
        let p = demo();
        let base = program_fingerprint(&p);
        let renamed = Shape::seq([
            Shape::code(10),
            Shape::loop_(5, Shape::if_else(2, Shape::code(6), Shape::code(4))),
        ])
        .compile("demo2");
        assert_ne!(base, program_fingerprint(&renamed));
        let rebound = Shape::seq([
            Shape::code(10),
            Shape::loop_(6, Shape::if_else(2, Shape::code(6), Shape::code(4))),
        ])
        .compile("demo");
        assert_ne!(base, program_fingerprint(&rebound));
        let resized = Shape::seq([
            Shape::code(11),
            Shape::loop_(5, Shape::if_else(2, Shape::code(6), Shape::code(4))),
        ])
        .compile("demo");
        assert_ne!(base, program_fingerprint(&resized));
    }
}

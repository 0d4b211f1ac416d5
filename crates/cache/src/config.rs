//! Cache geometry.

use std::error::Error;
use std::fmt;

use rtpf_isa::MemBlockId;

use crate::policy::ReplacementPolicy;

/// The set `block` maps to in a cache of `n_sets` sets: the low bits of
/// the block number, a mask because [`CacheConfig::new`] admits only
/// power-of-two geometries. The one set-index rule of every cache model.
#[inline]
pub(crate) fn set_index(block: MemBlockId, n_sets: u32) -> usize {
    (block.0 & (u64::from(n_sets) - 1)) as usize
}

/// Error returned for an inconsistent cache geometry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ConfigError {
    /// A parameter was zero.
    Zero,
    /// A parameter was not a power of two.
    NotPowerOfTwo,
    /// `capacity < associativity * block_bytes` (fewer than one set).
    TooSmall,
    /// The replacement policy cannot drive this geometry (tree-PLRU keeps
    /// its direction bits in one 64-bit word per set, capping it at 64
    /// ways).
    PolicyUnsupported,
    /// The per-level geometries do not form a valid (monotone) hierarchy —
    /// see [`HierarchyViolation`] for the specific rule broken.
    HierarchyInvalid(HierarchyViolation),
}

/// Error returned by [`CacheConfig::parse_spec`] for a malformed
/// `a:b:c[:policy]` geometry spec.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SpecError {
    /// Not three or four colon-separated fields.
    Shape(String),
    /// A numeric field that did not parse as `u32`.
    Number(String),
    /// An unknown replacement-policy name.
    Policy(String),
    /// The fields parsed but describe an invalid geometry.
    Config(ConfigError),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Shape(v) => write!(f, "cache spec wants a:b:c[:policy], got {v}"),
            SpecError::Number(v) => write!(f, "bad number {v:?} in cache spec"),
            SpecError::Policy(v) => write!(f, "unknown replacement policy {v:?}"),
            SpecError::Config(e) => write!(f, "{e}"),
        }
    }
}

impl Error for SpecError {}

/// The specific way a multi-level hierarchy was inconsistent.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HierarchyViolation {
    /// No levels at all.
    Empty,
    /// More levels than the analysis model supports (L1 + L2).
    TooManyLevels,
    /// A level's capacity is not strictly larger than the level above it
    /// (an L2 no bigger than L1 filters every access and models nothing).
    CapacityNotLarger,
    /// Levels disagree on the block (line) size; the per-level filter
    /// assumes one address-to-block map for the whole hierarchy.
    BlockMismatch,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Zero => write!(f, "cache parameters must be positive"),
            ConfigError::NotPowerOfTwo => {
                write!(f, "cache parameters must be powers of two")
            }
            ConfigError::TooSmall => {
                write!(
                    f,
                    "capacity smaller than one set (associativity * block size)"
                )
            }
            ConfigError::PolicyUnsupported => {
                write!(f, "replacement policy unsupported for this associativity")
            }
            ConfigError::HierarchyInvalid(v) => match v {
                HierarchyViolation::Empty => write!(f, "hierarchy has no levels"),
                HierarchyViolation::TooManyLevels => {
                    write!(f, "hierarchy has more levels than supported (L1 + L2)")
                }
                HierarchyViolation::CapacityNotLarger => {
                    write!(f, "L2 capacity must be strictly larger than L1 capacity")
                }
                HierarchyViolation::BlockMismatch => {
                    write!(f, "all hierarchy levels must share one block size")
                }
            },
        }
    }
}

impl Error for ConfigError {}

/// Instruction-cache configuration: geometry `(a, b, c)` in the paper's
/// Table 2 notation — associativity, block size in bytes, capacity in
/// bytes — plus the [`ReplacementPolicy`] the sets run under (LRU unless
/// overridden via [`with_policy`](CacheConfig::with_policy)).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CacheConfig {
    assoc: u32,
    block_bytes: u32,
    capacity_bytes: u32,
    policy: ReplacementPolicy,
}

impl CacheConfig {
    /// Creates an LRU geometry after validating it.
    ///
    /// `const` (hence the manual validation loop): a geometry known at
    /// compile time can seed `static` sentinel states — see
    /// [`no_info`](crate::no_info).
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if any parameter is zero, not a power of
    /// two, or the capacity holds less than one full set.
    pub const fn new(
        assoc: u32,
        block_bytes: u32,
        capacity_bytes: u32,
    ) -> Result<Self, ConfigError> {
        let params = [assoc, block_bytes, capacity_bytes];
        let mut i = 0;
        while i < params.len() {
            if params[i] == 0 {
                return Err(ConfigError::Zero);
            }
            if !params[i].is_power_of_two() {
                return Err(ConfigError::NotPowerOfTwo);
            }
            i += 1;
        }
        if capacity_bytes < assoc * block_bytes {
            return Err(ConfigError::TooSmall);
        }
        Ok(CacheConfig {
            assoc,
            block_bytes,
            capacity_bytes,
            policy: ReplacementPolicy::Lru,
        })
    }

    /// The same geometry under another replacement policy.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::PolicyUnsupported`] when the policy cannot
    /// drive this geometry (tree-PLRU beyond 64 ways).
    pub const fn with_policy(mut self, policy: ReplacementPolicy) -> Result<Self, ConfigError> {
        if matches!(policy, ReplacementPolicy::Plru) && self.assoc > 64 {
            return Err(ConfigError::PolicyUnsupported);
        }
        self.policy = policy;
        Ok(self)
    }

    /// The replacement policy.
    #[inline]
    pub const fn policy(&self) -> ReplacementPolicy {
        self.policy
    }

    /// Associativity (`a`).
    #[inline]
    pub const fn assoc(&self) -> u32 {
        self.assoc
    }

    /// Block (line) size in bytes (`b`).
    #[inline]
    pub const fn block_bytes(&self) -> u32 {
        self.block_bytes
    }

    /// Total capacity in bytes (`c`).
    #[inline]
    pub const fn capacity_bytes(&self) -> u32 {
        self.capacity_bytes
    }

    /// Number of sets (`c / (a * b)`).
    #[inline]
    pub const fn n_sets(&self) -> u32 {
        self.capacity_bytes / (self.assoc * self.block_bytes)
    }

    /// The set a memory block maps to.
    #[inline]
    pub fn set_of(&self, block: MemBlockId) -> usize {
        set_index(block, self.n_sets())
    }

    /// A configuration with the same block size, associativity, and
    /// policy but `capacity / divisor` bytes, as used by the paper's
    /// Figure 5 (running optimized programs on 1/2 and 1/4 capacity).
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the shrunken capacity is not a valid
    /// geometry (e.g. fewer than one set would remain).
    pub fn shrink(&self, divisor: u32) -> Result<Self, ConfigError> {
        Self::new(
            self.assoc,
            self.block_bytes,
            self.capacity_bytes / divisor.max(1),
        )?
        .with_policy(self.policy)
    }

    /// The 36 configurations of the paper's Table 2 (`k1..k36`), in order:
    /// Parses the `a:b:c[:policy]` geometry spec shared by every front
    /// end (`--l2`, the smoke drill, the bench bins, and `rtpfd`
    /// requests): associativity, block bytes, capacity bytes, and an
    /// optional replacement policy name, colon-separated.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] naming which part of the spec was
    /// malformed, or wrapping the [`ConfigError`] of an invalid geometry.
    pub fn parse_spec(v: &str) -> Result<CacheConfig, SpecError> {
        let parts: Vec<&str> = v.split(':').collect();
        if parts.len() < 3 || parts.len() > 4 {
            return Err(SpecError::Shape(v.to_string()));
        }
        let mut nums = [0u32; 3];
        for (slot, p) in nums.iter_mut().zip(&parts) {
            *slot = p
                .trim()
                .parse()
                .map_err(|_| SpecError::Number((*p).to_string()))?;
        }
        let mut cfg = CacheConfig::new(nums[0], nums[1], nums[2]).map_err(SpecError::Config)?;
        if let Some(name) = parts.get(3) {
            let policy = ReplacementPolicy::parse(name)
                .ok_or_else(|| SpecError::Policy((*name).to_string()))?;
            cfg = cfg.with_policy(policy).map_err(SpecError::Config)?;
        }
        Ok(cfg)
    }

    /// capacities 256 B to 8 KiB, block sizes 16/32 B, associativities
    /// 1/2/4.
    pub fn paper_configs() -> Vec<(String, CacheConfig)> {
        let mut out = Vec::with_capacity(36);
        let mut k = 1;
        for capacity in [256u32, 512, 1024, 2048, 4096, 8192] {
            for block in [16u32, 32] {
                for assoc in [1u32, 2, 4] {
                    let cfg = CacheConfig::new(assoc, block, capacity)
                        .expect("table 2 configurations are valid");
                    out.push((format!("k{k}"), cfg));
                    k += 1;
                }
            }
        }
        out
    }
}

impl fmt::Display for CacheConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // LRU keeps the paper's bare `(a, b, c)` notation (unchanged from
        // when the crate was LRU-only); other policies are named.
        match self.policy {
            ReplacementPolicy::Lru => write!(
                f,
                "({}, {}, {})",
                self.assoc, self.block_bytes, self.capacity_bytes
            ),
            p => write!(
                f,
                "({}, {}, {}, {p})",
                self.assoc, self.block_bytes, self.capacity_bytes
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_geometry() {
        let c = CacheConfig::new(2, 16, 256).unwrap();
        assert_eq!(c.n_sets(), 8);
        assert_eq!(c.to_string(), "(2, 16, 256)");
    }

    #[test]
    fn rejects_bad_geometry() {
        assert_eq!(CacheConfig::new(0, 16, 256), Err(ConfigError::Zero));
        assert_eq!(
            CacheConfig::new(3, 16, 256),
            Err(ConfigError::NotPowerOfTwo)
        );
        assert_eq!(CacheConfig::new(4, 32, 64), Err(ConfigError::TooSmall));
    }

    #[test]
    fn set_mapping_is_modular() {
        let c = CacheConfig::new(1, 16, 64).unwrap(); // 4 sets
        assert_eq!(c.set_of(MemBlockId(0)), 0);
        assert_eq!(c.set_of(MemBlockId(5)), 1);
        assert_eq!(c.set_of(MemBlockId(7)), 3);
    }

    #[test]
    fn paper_configs_match_table2() {
        let cfgs = CacheConfig::paper_configs();
        assert_eq!(cfgs.len(), 36);
        assert_eq!(cfgs[0].0, "k1");
        assert_eq!(cfgs[0].1, CacheConfig::new(1, 16, 256).unwrap());
        assert_eq!(cfgs[35].0, "k36");
        assert_eq!(cfgs[35].1, CacheConfig::new(4, 32, 8192).unwrap());
        // All distinct.
        for i in 0..cfgs.len() {
            for j in i + 1..cfgs.len() {
                assert_ne!(cfgs[i].1, cfgs[j].1);
            }
        }
    }

    #[test]
    fn shrink_preserves_shape() {
        let c = CacheConfig::new(4, 32, 8192).unwrap();
        let h = c.shrink(2).unwrap();
        assert_eq!(h.capacity_bytes(), 4096);
        assert_eq!(h.assoc(), 4);
        assert!(CacheConfig::new(4, 32, 128).unwrap().shrink(4).is_err());
    }

    #[test]
    fn policy_defaults_to_lru_and_threads_through() {
        let c = CacheConfig::new(2, 16, 256).unwrap();
        assert_eq!(c.policy(), ReplacementPolicy::Lru);
        let f = c.with_policy(ReplacementPolicy::Fifo).unwrap();
        assert_eq!(f.policy(), ReplacementPolicy::Fifo);
        // The policy is part of identity (and thus of fingerprints/keys).
        assert_ne!(c, f);
        // shrink keeps the policy.
        assert_eq!(f.shrink(2).unwrap().policy(), ReplacementPolicy::Fifo);
        // Display: LRU keeps the paper notation, others are named.
        assert_eq!(c.to_string(), "(2, 16, 256)");
        assert_eq!(f.to_string(), "(2, 16, 256, fifo)");
    }

    #[test]
    fn plru_rejects_unrepresentable_widths() {
        let wide = CacheConfig::new(128, 16, 4096).unwrap();
        assert_eq!(
            wide.with_policy(ReplacementPolicy::Plru),
            Err(ConfigError::PolicyUnsupported)
        );
        assert!(wide.with_policy(ReplacementPolicy::Fifo).is_ok());
        let ok = CacheConfig::new(64, 16, 2048).unwrap();
        assert!(ok.with_policy(ReplacementPolicy::Plru).is_ok());
    }
}

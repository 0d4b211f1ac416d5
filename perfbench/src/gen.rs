//! Seeded input generators: the unit lists of the two sweeps, the
//! verdict samples, and the request stream of `serve`.
//!
//! Every generator is a pure function of its arguments, so the same seed
//! always yields the same inputs. The seed orders the work; the *set* of
//! units, samples and requests is fixed per workload. A seeded choice of
//! configurations would swing a run's throughput far beyond any usable
//! regression bound: one FIFO unit of the same program takes from 35 ms
//! to 4.2 s.

use rtpf_cache::{CacheConfig, ReplacementPolicy};
use rtpf_engine::{ConfigSpec, ProgramSource, ServiceOp, ServiceRequest};
use rtpf_suite::Benchmark;

/// SplitMix64: a small, fast, well-mixed 64-bit generator.
#[derive(Clone, Debug)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng { state: seed }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// A subset of the inputs, for tests: only these programs and
/// configurations (Table 2 `k` names for the sweeps and `verdict`,
/// [`SERVE_CACHE`] for `serve`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Slice {
    /// Program names.
    pub programs: Vec<String>,
    /// Configuration names.
    pub configs: Vec<String>,
}

impl Slice {
    /// A slice over the given program and configuration names.
    pub fn new(programs: &[&str], configs: &[&str]) -> Slice {
        Slice {
            programs: programs.iter().map(|s| s.to_string()).collect(),
            configs: configs.iter().map(|s| s.to_string()).collect(),
        }
    }

    fn keeps(&self, program: &str, config: &str) -> bool {
        self.programs.iter().any(|p| p == program) && self.configs.iter().any(|c| c == config)
    }
}

/// One `(program, configuration)` evaluation unit of a sweep.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepUnit {
    /// Index of the program in the suite catalog.
    pub program: usize,
    /// Table 2 configuration name (`k1`..`k36`).
    pub k: String,
    /// The configuration under the sweep's policy.
    pub config: CacheConfig,
}

/// Whether Table 2 configuration `c` (0-based) is in the stratified
/// third of program `p`: one associativity per (capacity, block) group,
/// rotating with the group and the program, so every program gets four
/// configurations of each associativity.
fn in_third(p: usize, c: usize) -> bool {
    c % 3 == (p + c / 3) % 3
}

/// The units of one sweep pass. LRU runs the full 37 × 36 grid, the
/// paper's batch job, in Table 2 order: its seed is unused. FIFO runs a
/// fixed stratified third of the grid (444 units), each program's
/// configurations in seeded order. Programs run largest first, so the
/// grid's tail holds the smallest units and both workers finish
/// together.
pub fn sweep_units(
    suite: &[Benchmark],
    policy: ReplacementPolicy,
    slice: Option<&Slice>,
    seed: u64,
) -> Vec<SweepUnit> {
    let configs = rtpf_experiments::paper_configs_for(policy);
    let mut order: Vec<usize> = (0..suite.len()).collect();
    order.sort_by_key(|&p| {
        (
            std::cmp::Reverse(suite[p].program.instr_count()),
            suite[p].name,
        )
    });
    let mut rng = Rng::new(seed);
    let mut units = Vec::new();
    for p in order {
        let mut mine: Vec<SweepUnit> = configs
            .iter()
            .enumerate()
            .filter(|&(c, (k, _))| match slice {
                Some(s) => s.keeps(suite[p].name, k),
                None => policy == ReplacementPolicy::Lru || in_third(p, c),
            })
            .map(|(_, (k, config))| SweepUnit {
                program: p,
                k: k.clone(),
                config: *config,
            })
            .collect();
        if policy != ReplacementPolicy::Lru {
            rng.shuffle(&mut mine);
        }
        units.extend(mine);
    }
    units
}

/// The L2 a verdict sample gets when its geometry admits one.
pub fn verdict_l2() -> CacheConfig {
    CacheConfig::new(8, 16, 16384).expect("valid L2 geometry")
}

/// One time-to-verdict sample.
#[derive(Clone, Debug, PartialEq)]
pub struct VerdictSample {
    /// Index of the program in the suite catalog.
    pub program: usize,
    /// Table 2 configuration name.
    pub k: String,
    /// The L1 configuration (LRU).
    pub config: CacheConfig,
    /// Whether the sample runs with the [`verdict_l2`] behind its L1.
    pub l2: bool,
}

/// Every sample `verdict` can draw, which is what its golden file
/// covers: each program × each Table 2 configuration, plus an L2 twin of
/// every configuration whose block size matches the L2's.
pub fn verdict_space(suite: &[Benchmark]) -> Vec<VerdictSample> {
    let configs = CacheConfig::paper_configs();
    let mut out = Vec::new();
    for p in 0..suite.len() {
        for (k, config) in &configs {
            for l2 in [false, true] {
                if !l2 || config.block_bytes() == verdict_l2().block_bytes() {
                    out.push(VerdictSample {
                        program: p,
                        k: k.clone(),
                        config: *config,
                        l2,
                    });
                }
            }
        }
    }
    out
}

/// The samples of one verdict pass: every program at one configuration
/// per capacity (block size and associativity rotating with program and
/// capacity), 222 samples; every second of them whose block size admits
/// it gets the L2. The seed orders the pass.
pub fn verdict_samples(
    suite: &[Benchmark],
    slice: Option<&Slice>,
    seed: u64,
) -> Vec<VerdictSample> {
    let configs = CacheConfig::paper_configs();
    let mut chosen: Vec<(usize, usize)> = Vec::new();
    for (p, b) in suite.iter().enumerate() {
        match slice {
            Some(s) => chosen.extend(
                (0..configs.len())
                    .filter(|&c| s.keeps(b.name, &configs[c].0))
                    .map(|c| (p, c)),
            ),
            // Table 2 is capacity-major, then block size, then
            // associativity: six configurations per capacity.
            None => {
                chosen.extend((0..6).map(|cap| (p, cap * 6 + (p + cap) % 2 * 3 + (p + cap) % 3)))
            }
        }
    }
    let mut samples: Vec<VerdictSample> = chosen
        .into_iter()
        .enumerate()
        .map(|(i, (p, c))| {
            let (k, config) = &configs[c];
            VerdictSample {
                program: p,
                k: k.clone(),
                config: *config,
                l2: i % 2 == 1 && config.block_bytes() == verdict_l2().block_bytes(),
            }
        })
        .collect();
    Rng::new(seed).shuffle(&mut samples);
    samples
}

/// The cache every `serve` request names: the one Table 2 geometry of
/// `loadgen`, the only existing caller of `rtpfd`.
pub const SERVE_CACHE: &str = "2:16:512";

/// The operations `serve` sends for every program, as `loadgen` does.
pub const SERVE_OPS: [ServiceOp; 4] = [
    ServiceOp::Analyze,
    ServiceOp::Optimize,
    ServiceOp::Audit,
    ServiceOp::Simulate,
];

/// The configuration every `serve` request names: [`SERVE_CACHE`] and
/// the service defaults.
pub fn serve_config() -> ConfigSpec {
    ConfigSpec {
        cache: SERVE_CACHE.to_string(),
        ..ConfigSpec::default()
    }
}

/// The service request for `op` on suite program `program`.
pub fn serve_request(program: &str, op: ServiceOp) -> ServiceRequest {
    ServiceRequest {
        op,
        program: ProgramSource::Spec(format!("suite:{program}")),
        config: serve_config(),
    }
}

/// The programs `serve` requests, in catalog order; a slice keeps those
/// it names with the configuration [`SERVE_CACHE`].
pub fn serve_programs(suite: &[Benchmark], slice: Option<&Slice>) -> Vec<String> {
    suite
        .iter()
        .filter(|b| slice.is_none_or(|s| s.keeps(b.name, SERVE_CACHE)))
        .map(|b| b.name.to_string())
        .collect()
}

/// `loadgen`'s request list — every operation of [`SERVE_OPS`] on each
/// of `programs` programs — sent `copies` times, each copy in its own
/// seeded order. Items are `(op, program index)`. The first copy finds
/// the store cold; the rest are served from it.
pub fn serve_stream(programs: usize, copies: usize, seed: u64) -> Vec<(ServiceOp, usize)> {
    let list: Vec<(ServiceOp, usize)> = (0..programs)
        .flat_map(|p| SERVE_OPS.map(|op| (op, p)))
        .collect();
    let mut rng = Rng::new(seed);
    let mut stream = Vec::with_capacity(list.len() * copies);
    for _ in 0..copies {
        let mut copy = list.clone();
        rng.shuffle(&mut copy);
        stream.extend(copy);
    }
    stream
}

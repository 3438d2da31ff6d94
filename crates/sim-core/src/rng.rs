//! Deterministic, named random-number streams.
//!
//! Every stochastic component of the simulator (channel shadowing, fast
//! fading, mobility jitter, MAC backoff, traffic generation, …) draws from its
//! own named stream. Streams are derived from a single master seed with a
//! SplitMix64 mixer, so:
//!
//! * two runs with the same master seed produce identical results;
//! * adding draws to one component does not perturb any other component
//!   (streams are independent);
//! * experiment "rounds" can derive per-round sub-seeds without correlation.

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

/// SplitMix64 step — used to derive stream seeds from a master seed and a
/// stream label hash. This is the standard seeding mixer recommended for
/// xoshiro-family generators.
///
/// Also the tiny generator behind fault plans and the fleet supervisor's
/// backoff jitter (re-exported by `vanet-faults`), so those stay pure
/// functions of their seeds.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The FNV-1a 64-bit offset basis: the hash of no bytes.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// FNV-1a over raw bytes — the workspace's one *specified* hash.
///
/// Unlike `std`'s hashers, whose algorithm may change between releases,
/// FNV-1a's output is pinned forever, which everything durable keys on:
/// RNG stream labels here, schema fingerprints in `vanet-scenarios`, and
/// journal checksums in `vanet-cache`. One shared implementation keeps
/// those from drifting apart.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_chain(FNV_OFFSET, bytes)
}

/// Folds more bytes into an FNV-1a state — lets one hash span several
/// buffers without concatenating them.
pub fn fnv1a64_chain(state: u64, bytes: &[u8]) -> u64 {
    let mut hash = state;
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// [`fnv1a64`] of every part: element `i` is exactly `fnv1a64(parts[i])`.
///
/// FNV-1a is one serial multiply chain per input, so hashing one buffer is
/// bound by the multiplier's latency, not its throughput. This kernel runs
/// four chains side by side: four lanes each hash one part, and a lane
/// whose part ends takes the next pending one, so parts of unequal length
/// keep all four busy. Once fewer than four parts are left, the idle lanes
/// re-hash a live lane's bytes into a discarded state, which keeps one
/// loop shape and costs nothing the live chain does not already wait for.
pub fn fnv1a64_each(parts: &[&[u8]]) -> Vec<u64> {
    let mut hashes = vec![FNV_OFFSET; parts.len()];
    // An empty part hashes to the offset basis and never takes a lane.
    let mut pending = parts.iter().enumerate().filter(|(_, part)| !part.is_empty());
    let mut lanes: [Option<(usize, &[u8], u64)>; 4] =
        std::array::from_fn(|_| pending.next().map(|(i, part)| (i, *part, FNV_OFFSET)));
    // Every pass runs all four lanes for the shortest live remainder.
    while let Some(step) = lanes.iter().flatten().map(|(_, rest, _)| rest.len()).min() {
        let filler = lanes.iter().flatten().map(|(_, rest, _)| &rest[..step]).next();
        let filler = filler.expect("a step implies a live lane");
        let [(s0, mut h0), (s1, mut h1), (s2, mut h2), (s3, mut h3)] =
            lanes.map(|lane| lane.map_or((filler, 0), |(_, rest, hash)| (&rest[..step], hash)));
        for (((b0, b1), b2), b3) in s0.iter().zip(s1).zip(s2).zip(s3) {
            h0 = (h0 ^ u64::from(*b0)).wrapping_mul(FNV_PRIME);
            h1 = (h1 ^ u64::from(*b1)).wrapping_mul(FNV_PRIME);
            h2 = (h2 ^ u64::from(*b2)).wrapping_mul(FNV_PRIME);
            h3 = (h3 ^ u64::from(*b3)).wrapping_mul(FNV_PRIME);
        }
        for (slot, hash) in lanes.iter_mut().zip([h0, h1, h2, h3]) {
            let Some((i, rest, state)) = slot else { continue };
            *rest = &rest[step..];
            *state = hash;
            if rest.is_empty() {
                hashes[*i] = hash;
                *slot = pending.next().map(|(i, part)| (i, *part, FNV_OFFSET));
            }
        }
    }
    hashes
}

/// FNV-1a hash of a label, used to turn stream names into seed material.
fn fnv1a(label: &str) -> u64 {
    fnv1a64(label.as_bytes())
}

/// A deterministic random stream identified by a master seed and a label.
///
/// `StreamRng` is a thin wrapper over [`SmallRng`] that remembers how it was
/// derived, which helps debugging ("which stream produced this draw?").
///
/// # Examples
///
/// ```
/// use sim_core::StreamRng;
/// use rand::Rng;
///
/// let mut a = StreamRng::derive(42, "channel.shadowing");
/// let mut b = StreamRng::derive(42, "channel.shadowing");
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>());   // same seed + label => same stream
///
/// let mut c = StreamRng::derive(42, "mac.backoff");
/// assert_ne!(a.gen::<u64>(), c.gen::<u64>());   // different label => independent stream
/// ```
#[derive(Debug, Clone)]
pub struct StreamRng {
    label: String,
    master_seed: u64,
    rng: SmallRng,
}

impl StreamRng {
    /// Derives a stream from `master_seed` and a textual `label`.
    pub fn derive(master_seed: u64, label: impl Into<String>) -> Self {
        let label = label.into();
        let mut state = master_seed ^ fnv1a(&label);
        let mut seed = [0u8; 32];
        for chunk in seed.chunks_mut(8) {
            chunk.copy_from_slice(&splitmix64(&mut state).to_le_bytes());
        }
        StreamRng { label, master_seed, rng: SmallRng::from_seed(seed) }
    }

    /// Derives a sub-stream, e.g. one per experiment round or per node.
    ///
    /// ```
    /// use sim_core::StreamRng;
    /// use rand::Rng;
    /// let mut round0 = StreamRng::derive(7, "urban").substream(0);
    /// let mut round1 = StreamRng::derive(7, "urban").substream(1);
    /// assert_ne!(round0.gen::<u64>(), round1.gen::<u64>());
    /// ```
    pub fn substream(&self, index: u64) -> StreamRng {
        StreamRng::derive(
            self.master_seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            format!("{}#{}", self.label, index),
        )
    }

    /// The label this stream was derived with.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The master seed this stream was derived from.
    pub fn master_seed(&self) -> u64 {
        self.master_seed
    }

    /// Draws a standard normal (mean 0, variance 1) variate using the
    /// Box–Muller transform. Avoids a dependency on `rand_distr`.
    pub fn standard_normal(&mut self) -> f64 {
        // Draw u1 in (0, 1] to keep ln() finite.
        let u1: f64 = 1.0 - self.rng.gen::<f64>();
        let u2: f64 = self.rng.gen();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Draws a normal variate with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.standard_normal()
    }

    /// Draws an exponential variate with the given rate parameter `lambda`.
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is not strictly positive.
    pub fn exponential(&mut self, lambda: f64) -> f64 {
        assert!(lambda > 0.0, "lambda must be positive");
        let u: f64 = 1.0 - self.rng.gen::<f64>();
        -u.ln() / lambda
    }

    /// Bernoulli draw with success probability `p` (clamped to `[0,1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        self.rng.gen::<f64>() < p
    }

    /// Uniform draw in `[low, high)`.
    ///
    /// # Panics
    ///
    /// Panics if `low >= high`.
    pub fn uniform(&mut self, low: f64, high: f64) -> f64 {
        assert!(low < high, "uniform range must be non-empty");
        self.rng.gen_range(low..high)
    }
}

impl RngCore for StreamRng {
    fn next_u32(&mut self) -> u32 {
        self.rng.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.rng.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.rng.fill_bytes(dest)
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.rng.try_fill_bytes(dest)
    }
}

/// Convenience trait for things that can hand out derived RNG streams.
pub trait SeedableStream {
    /// Returns the stream registered under `label`, creating it on first use.
    fn stream(&mut self, label: &str) -> &mut StreamRng;
}

/// A directory of named RNG streams sharing one master seed.
///
/// # Examples
///
/// ```
/// use sim_core::{RngDirectory, SeedableStream};
/// use rand::Rng;
///
/// let mut dir = RngDirectory::new(1234);
/// let x: f64 = dir.stream("fading").gen();
/// let y: f64 = dir.stream("fading").gen();
/// assert_ne!(x, y); // successive draws from the same stream advance it
/// ```
#[derive(Debug, Clone)]
pub struct RngDirectory {
    master_seed: u64,
    streams: Vec<(String, StreamRng)>,
}

impl RngDirectory {
    /// Creates a directory deriving all streams from `master_seed`.
    pub fn new(master_seed: u64) -> Self {
        RngDirectory { master_seed, streams: Vec::new() }
    }

    /// The master seed.
    pub fn master_seed(&self) -> u64 {
        self.master_seed
    }

    /// Number of streams created so far.
    pub fn len(&self) -> usize {
        self.streams.len()
    }

    /// Whether no stream has been created yet.
    pub fn is_empty(&self) -> bool {
        self.streams.is_empty()
    }
}

impl SeedableStream for RngDirectory {
    fn stream(&mut self, label: &str) -> &mut StreamRng {
        if let Some(idx) = self.streams.iter().position(|(l, _)| l == label) {
            return &mut self.streams[idx].1;
        }
        self.streams.push((label.to_owned(), StreamRng::derive(self.master_seed, label)));
        &mut self.streams.last_mut().expect("just pushed").1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::{prop_assert, proptest};

    #[test]
    fn same_seed_same_stream() {
        let mut a = StreamRng::derive(99, "x");
        let mut b = StreamRng::derive(99, "x");
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_labels_diverge() {
        let mut a = StreamRng::derive(99, "x");
        let mut b = StreamRng::derive(99, "y");
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2, "streams with different labels should be independent");
    }

    #[test]
    fn directory_returns_same_stream_for_same_label() {
        let mut dir = RngDirectory::new(5);
        let first: u64 = dir.stream("a").next_u64();
        // Fresh derivation of the same label from the same seed would repeat
        // the first draw; the directory must instead return the advanced stream.
        let second: u64 = dir.stream("a").next_u64();
        assert_ne!(first, second);
        assert_eq!(dir.len(), 1);
        dir.stream("b");
        assert_eq!(dir.len(), 2);
        assert!(!dir.is_empty());
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut rng = StreamRng::derive(7, "normal");
        let n = 20_000;
        let draws: Vec<f64> = (0..n).map(|_| rng.normal(3.0, 2.0)).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn exponential_mean_is_inverse_rate() {
        let mut rng = StreamRng::derive(8, "exp");
        let n = 20_000;
        let mean = (0..n).map(|_| rng.exponential(2.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn chance_extremes() {
        let mut rng = StreamRng::derive(9, "chance");
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-5.0));
        assert!(rng.chance(7.0));
    }

    #[test]
    fn substreams_are_reproducible_and_distinct() {
        let base = StreamRng::derive(11, "rounds");
        let mut r0a = base.substream(0);
        let mut r0b = base.substream(0);
        let mut r1 = base.substream(1);
        assert_eq!(r0a.next_u64(), r0b.next_u64());
        assert_ne!(r0a.next_u64(), r1.next_u64());
        assert_eq!(r0a.label(), "rounds#0");
    }

    /// Asserts the four-lane kernel against the one-lane hash, part by part.
    fn assert_each_matches(parts: &[&[u8]]) {
        let each = fnv1a64_each(parts);
        assert_eq!(each.len(), parts.len());
        for (i, (part, hash)) in parts.iter().zip(&each).enumerate() {
            assert_eq!(*hash, fnv1a64(part), "part {i} of {} (len {})", parts.len(), part.len());
        }
    }

    #[test]
    fn fnv1a64_known_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(
            fnv1a64_each(&[b"a", b"", b"a"]),
            [0xaf63_dc4c_8601_ec8c, FNV_OFFSET, 0xaf63_dc4c_8601_ec8c]
        );
    }

    #[test]
    fn fnv1a64_each_matches_fnv1a64_for_any_part_count() {
        // Unequal lengths, so lanes finish at different steps and refill.
        let bytes: Vec<u8> =
            (0..4096u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
        let lens = [7usize, 0, 31, 1, 64, 3, 0, 129, 2, 17, 250];
        for count in 0..=lens.len() {
            let mut offset = 0;
            let parts: Vec<&[u8]> = lens[..count]
                .iter()
                .map(|&len| {
                    offset += 13;
                    &bytes[offset..offset + len]
                })
                .collect();
            assert_each_matches(&parts);
        }
    }

    #[test]
    fn fnv1a64_each_handles_empty_and_lopsided_parts() {
        let long: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        let empty: &[u8] = &[];
        assert_each_matches(&[]);
        assert_each_matches(&[empty]);
        assert_each_matches(&[empty; 9]);
        // Leading and trailing empty parts around live ones.
        assert_each_matches(&[empty, empty, b"xy", b"z", empty, b"carq", empty]);
        // One part far longer than the rest, first, middle and last.
        let short: [&[u8]; 6] = [b"a", b"bc", b"def", b"", b"ghij", b"k"];
        for at in [0, 3, 6] {
            let mut parts = short.to_vec();
            parts.insert(at, &long);
            assert_each_matches(&parts);
        }
        // More long parts than lanes, every one a different length.
        let many: Vec<&[u8]> = (0..11).map(|i| &long[i * 37..i * 37 + 5_000 + i * 911]).collect();
        assert_each_matches(&many);
    }

    proptest! {
        #[test]
        fn prop_fnv1a64_each_matches_fnv1a64(lens in proptest::collection::vec(0usize..300, 0..12), seed in 0u64..1000) {
            let mut state = seed;
            let bytes: Vec<u8> = (0..3_600).map(|_| splitmix64(&mut state) as u8).collect();
            let parts: Vec<&[u8]> = lens.iter().enumerate().map(|(i, &len)| &bytes[i * 300..i * 300 + len]).collect();
            let each = fnv1a64_each(&parts);
            prop_assert!(each.len() == parts.len());
            for (part, hash) in parts.iter().zip(&each) {
                prop_assert!(*hash == fnv1a64(part));
            }
        }

        #[test]
        fn prop_uniform_within_bounds(low in -1e6f64..1e6, width in 1e-3f64..1e6, seed in 0u64..1000) {
            let mut rng = StreamRng::derive(seed, "uniform");
            let high = low + width;
            for _ in 0..50 {
                let x = rng.uniform(low, high);
                prop_assert!(x >= low && x < high);
            }
        }

        #[test]
        fn prop_chance_frequency_tracks_p(p in 0.0f64..1.0, seed in 0u64..500) {
            let mut rng = StreamRng::derive(seed, "freq");
            let n = 4_000;
            let hits = (0..n).filter(|_| rng.chance(p)).count() as f64 / n as f64;
            prop_assert!((hits - p).abs() < 0.06);
        }
    }
}

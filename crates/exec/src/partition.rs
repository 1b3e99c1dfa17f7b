//! Partitioning a relation by hash values (§3.3).
//!
//! A partition of R *compatible with h* assigns every tuple to a subset
//! determined only by `h(key)`, so partitioning R and S by the same split
//! of the hash-value space reduces joining R with S to joining `R_i` with
//! `S_i` pairwise (Babb's and Goodman's observation, cited in §3.3).

use mmdb_types::Value;

/// A deterministic 64-bit hash of a join key. All §3 algorithms share it so
/// R and S are always partitioned compatibly.
pub fn hash_key(v: &Value) -> u64 {
    // FNV-1a over an explicit little-endian encoding of the value, so the
    // hash is the same on every run, host and toolchain (std's SipHash is
    // randomly keyed per process, and `Hash` writes native-endian bytes).
    // Ints hash as the float they compare equal to.
    let fnv = |h: u64, bytes: &[u8]| {
        bytes.iter().fold(h, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        })
    };
    let h = 0xcbf2_9ce4_8422_2325;
    let h = match v {
        Value::Null => fnv(h, &[0]),
        Value::Int(i) => fnv(fnv(h, &[1]), &(*i as f64).to_bits().to_le_bytes()),
        Value::Float(x) => fnv(fnv(h, &[1]), &x.to_bits().to_le_bytes()),
        Value::Str(s) => fnv(fnv(fnv(h, &[2]), s.as_bytes()), &[0xff]),
    };
    mix(h)
}

/// One xorshift-multiply round, spreading FNV's weak low bits; also what
/// finishes a whole tuple's hash.
pub(crate) fn mix(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x
}

/// A level-salted variant of [`hash_key`] for **recursive** partitioning
/// (§3.3: "we can always apply the hybrid hash join recursively"). Tuples
/// that collided into one partition at level `k` share a hash class under
/// the level-`k` function, so the recursion must re-partition them with an
/// *independent* function — salting by level provides one.
pub fn hash_key_level(v: &Value, level: u32) -> u64 {
    let mut x = hash_key(v) ^ (level as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// Splits the hash-value space `[0, 2^64)` into one in-memory class (the
/// first `q` fraction) plus `disk_partitions` equal classes — the hybrid
/// join's partitioning (§3.7). Class 0 is the memory-resident `R0/S0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HybridSplit {
    /// Fraction of the hash space kept in memory (`q = |R0|/|R|`).
    pub in_memory_fraction: f64,
    /// Number of on-disk partitions (`B`).
    pub disk_partitions: usize,
}

impl HybridSplit {
    /// Class of a hash value: `0` for the in-memory class, `1..=B` for the
    /// disk partitions.
    pub fn classify(&self, hash: u64) -> usize {
        let u = hash as f64 / u64::MAX as f64;
        if u < self.in_memory_fraction || self.disk_partitions == 0 {
            return 0;
        }
        let rest = (u - self.in_memory_fraction) / (1.0 - self.in_memory_fraction).max(1e-12);
        let idx = (rest * self.disk_partitions as f64).floor() as usize;
        1 + idx.min(self.disk_partitions - 1)
    }
}

/// Uniformly splits the hash space into `n` classes — GRACE's partitioning
/// (§3.6, "sets of approximately equal size" via the central limit
/// theorem).
pub fn uniform_class(hash: u64, n: usize) -> usize {
    debug_assert!(n > 0);
    // Multiply-shift avoids the modulo bias of `hash % n` on weak bits.
    ((hash as u128 * n as u128) >> 64) as usize
}

/// The simple-hash join's per-pass acceptance test: a tuple is "in range"
/// when its hash falls in the first `fraction` of the space (§3.5 step 1).
pub fn in_first_fraction(hash: u64, fraction: f64) -> bool {
    (hash as f64 / u64::MAX as f64) < fraction
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashes_are_pinned() {
        // What `Value`'s `Hash` fed FNV on a little-endian host, so no
        // partition, spill file or golden moved when the encoding was
        // made explicit.
        let pins = [
            (Value::Null, 0x9091_d607_2657_4ae6),
            (Value::Int(0), 0xb873_c1e5_05bf_b4a8),
            (Value::Int(-7), 0x72f2_052d_537c_ed70),
            (Value::Int(1 << 40), 0x45f6_cc41_dbbe_cf9c),
            (Value::Float(2.5), 0xeb72_93d6_b41b_ff85),
            (Value::Float(-0.0), 0x26f5_366c_091c_f3ec),
            (Value::Str(String::new()), 0x42c4_47b6_7dc5_b232),
            (Value::Str("customers".into()), 0xf46b_3ba4_443a_551b),
        ];
        for (v, pin) in pins {
            assert_eq!(hash_key(&v), pin, "{v:?}");
        }
    }

    #[test]
    fn hash_is_deterministic_and_spread() {
        let a = hash_key(&Value::Int(42));
        assert_eq!(a, hash_key(&Value::Int(42)));
        assert_ne!(a, hash_key(&Value::Int(43)));
        // Equal-comparing int/float hash equal (needed for mixed joins).
        assert_eq!(hash_key(&Value::Int(7)), hash_key(&Value::Float(7.0)));
    }

    #[test]
    fn uniform_class_is_balanced() {
        let n = 16;
        let mut counts = vec![0usize; n];
        for i in 0..80_000i64 {
            counts[uniform_class(hash_key(&Value::Int(i)), n)] += 1;
        }
        let expected = 80_000 / n;
        for (c, &count) in counts.iter().enumerate() {
            assert!(
                (count as f64 - expected as f64).abs() < expected as f64 * 0.15,
                "class {c} has {count}, expected ≈ {expected}"
            );
        }
    }

    #[test]
    fn hybrid_split_fractions_match_q() {
        let split = HybridSplit {
            in_memory_fraction: 0.3,
            disk_partitions: 4,
        };
        let mut counts = [0usize; 5];
        let n = 100_000i64;
        for i in 0..n {
            counts[split.classify(hash_key(&Value::Int(i)))] += 1;
        }
        let q_measured = counts[0] as f64 / n as f64;
        assert!((q_measured - 0.3).abs() < 0.02, "q = {q_measured}");
        // Disk partitions split the remainder evenly.
        let per = (n as f64 * 0.7) / 4.0;
        for &c in &counts[1..] {
            assert!((c as f64 - per).abs() < per * 0.15);
        }
    }

    #[test]
    fn hybrid_split_degenerate_cases() {
        let all_mem = HybridSplit {
            in_memory_fraction: 1.0,
            disk_partitions: 0,
        };
        for i in 0..100 {
            assert_eq!(all_mem.classify(hash_key(&Value::Int(i))), 0);
        }
        let no_mem = HybridSplit {
            in_memory_fraction: 0.0,
            disk_partitions: 3,
        };
        for i in 0..100 {
            let c = no_mem.classify(hash_key(&Value::Int(i)));
            assert!((1..=3).contains(&c));
        }
    }

    #[test]
    fn compatibility_r_and_s_agree() {
        // The same key always lands in the same class — the §3.3 property
        // that makes partitioned joins correct.
        let split = HybridSplit {
            in_memory_fraction: 0.25,
            disk_partitions: 7,
        };
        for i in 0..1_000i64 {
            let h = hash_key(&Value::Int(i));
            assert_eq!(split.classify(h), split.classify(h));
            assert_eq!(
                uniform_class(h, 11),
                uniform_class(hash_key(&Value::Int(i)), 11)
            );
        }
    }

    #[test]
    fn level_salted_hashes_are_independent() {
        // Keys that share a class at level 0 must spread at level 1.
        let n = 8;
        let mut colliders = Vec::new();
        for i in 0..200_000i64 {
            let v = Value::Int(i);
            if uniform_class(hash_key_level(&v, 0), n) == 3 {
                colliders.push(i);
            }
        }
        assert!(colliders.len() > 10_000);
        let mut counts = vec![0usize; n];
        for &i in &colliders {
            counts[uniform_class(hash_key_level(&Value::Int(i), 1), n)] += 1;
        }
        let expected = colliders.len() / n;
        for (c, &count) in counts.iter().enumerate() {
            assert!(
                (count as f64 - expected as f64).abs() < expected as f64 * 0.2,
                "level-1 class {c}: {count} vs expected {expected}"
            );
        }
    }

    #[test]
    fn level_zero_differs_from_plain_hash_mix_only() {
        // Determinism per level.
        for i in 0..100i64 {
            let v = Value::Int(i);
            assert_eq!(hash_key_level(&v, 2), hash_key_level(&v, 2));
            assert_ne!(hash_key_level(&v, 0), hash_key_level(&v, 1));
        }
    }

    #[test]
    fn in_first_fraction_boundaries() {
        assert!(in_first_fraction(0, 0.01));
        assert!(!in_first_fraction(u64::MAX, 0.999));
        assert!(in_first_fraction(u64::MAX / 2, 0.6));
        assert!(!in_first_fraction(u64::MAX / 2, 0.4));
    }
}

//! Deterministic 64-bit content hashing shared across the workspace.
//!
//! The incremental-analysis layer keys its caches by *content
//! fingerprints*: the analysis session fingerprints prepared series,
//! component series sets and the statistical configuration. All of them
//! funnel through the splitmix64 finalizer below, so a fingerprint computed
//! on any host, at any parallelism degree, is bit-identical — which is what
//! lets "same fingerprint" stand in for "same content" in the
//! incremental==batch equality guarantees.
//!
//! The metric store's running fingerprint per recorded series keys no
//! cache: the session fingerprints what it prepares itself. Its one job is
//! to let a replayed log prove it rebuilt the store the log was written
//! against, so it steps with the cheaper [`fold_word`], like the write-ahead
//! log's checksum.
//!
//! These are content hashes, not cryptographic digests: collisions are
//! possible in principle (2⁻⁶⁴ per comparison) but irrelevant in practice
//! for cache keying.

/// The canonical seed every fingerprint chain starts from. A fixed non-zero
/// constant so that an empty series and a missing series hash differently
/// from zero.
pub const FINGERPRINT_SEED: u64 = 0x5349_4556_4501_7C15;

/// The splitmix64 finalizer: a fast, well-mixing 64-bit permutation.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Folds one 64-bit word into an accumulator. Order-sensitive: the rotate
/// makes `mix(mix(a, x), y)` differ from `mix(mix(a, y), x)`, so fingerprints
/// distinguish permuted content.
pub fn mix(acc: u64, word: u64) -> u64 {
    splitmix64(acc.rotate_left(13) ^ splitmix64(word))
}

/// The multiplier of [`fold_word`]: the 64-bit golden ratio, an odd number
/// that is neither ±1 nor ±2³² ± 1 modulo 2³³, which is what keeps two
/// one-bit errors in consecutive words from cancelling (see its test).
const FOLD_MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

/// Folds one 64-bit word into a checksum chain with one multiply: the word
/// is xored in, the sum multiplied by an odd constant, and the product's
/// high half folded onto its low half. Each of the three is a bijection, so
/// a chain that differs in one word ends differently, whatever follows.
/// The fold-down is what keeps two one-bit errors in consecutive words
/// apart: a multiply alone carries a flip of bit 63 through as bit 63
/// alone, and the same flip in the next word cancels it.
///
/// A quarter of [`mix`]'s multiplies, and a weaker hash: it guards bytes
/// and replay against corruption and divergence (the write-ahead log's one
/// checksum — its four lane chains and their fold — over a frame's payload,
/// a snapshot body and a checkpoint record; a store series' running
/// fingerprint; a batch's digest of those fingerprints), and keys nothing.
pub fn fold_word(acc: u64, word: u64) -> u64 {
    let product = (acc ^ word).wrapping_mul(FOLD_MULTIPLIER);
    product ^ (product >> 32)
}

/// Folds an `f64` into an accumulator by its raw bit pattern, so `0.0` and
/// `-0.0` (and every NaN payload) fingerprint as the distinct values they
/// are.
pub fn mix_f64(acc: u64, value: f64) -> u64 {
    mix(acc, value.to_bits())
}

/// Folds a string into an accumulator (FNV-1a over the bytes, then mixed),
/// order- and length-sensitive.
pub fn mix_str(acc: u64, s: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for byte in s.bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    mix(acc, h)
}

/// Deterministic 64-bit hash of a string key, starting from
/// [`FINGERPRINT_SEED`]. This is the routing hash behind
/// [`shard_index`]: it depends only on the key's bytes, so a key maps to
/// the same shard in every process, on every host, forever — which keeps
/// shard assignments stable across service restarts.
pub fn hash_str(s: &str) -> u64 {
    mix_str(FINGERPRINT_SEED, s)
}

/// Maps a string key onto one of `shard_count` shards via [`hash_str`].
///
/// `shard_count` must be a power of two (so the mapping is a mask, not a
/// modulo, and every one of splitmix64's well-mixed low bits contributes);
/// the sharded tenant registry in `sieve-serve` enforces this at
/// construction. The returned index is always `< shard_count`, and the
/// mapping is deterministic across processes and hosts.
///
/// # Panics
///
/// Panics if `shard_count` is zero or not a power of two.
pub fn shard_index(key: &str, shard_count: usize) -> usize {
    assert!(
        shard_count.is_power_of_two(),
        "shard_count must be a power of two, got {shard_count}"
    );
    (hash_str(key) & (shard_count as u64 - 1)) as usize
}

/// Hashes a pair of [`Name::addr`](crate::Name::addr) keys for an
/// open-addressing table: a multiplicative hash whose *top* bits every
/// address bit reaches, so a table of `2^b` cells takes the top `b` bits
/// (allocations share their low and high bits, so those alone would
/// collide). Not deterministic across processes — addresses are not.
pub fn addr_pair_hash(first: usize, second: usize) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    ((first as u64).wrapping_mul(K) ^ second as u64).wrapping_mul(K)
}

/// Fingerprints a whole `f64` slice (length-prefixed, order-sensitive),
/// starting from [`FINGERPRINT_SEED`].
pub fn fingerprint_f64s(values: &[f64]) -> u64 {
    values
        .iter()
        .fold(mix(FINGERPRINT_SEED, values.len() as u64), |acc, &v| {
            mix_f64(acc, v)
        })
}

/// Fingerprints each of the `rows` equal-length rows `arena` holds end to
/// end, as [`fingerprint_f64s`] would one by one. Four rows at a time run
/// their chains in lockstep: each value's `mix` waits on the one before it
/// in its own row only, so the four chains overlap in the pipeline.
///
/// # Panics
///
/// Panics when `arena` does not split into `rows` rows of one length.
pub fn fingerprint_f64_rows(arena: &[f64], rows: usize) -> Vec<u64> {
    let row_len = arena.len().checked_div(rows).unwrap_or(0);
    assert_eq!(arena.len(), rows * row_len, "{rows} rows of one length");
    let seed = mix(FINGERPRINT_SEED, row_len as u64);
    if row_len == 0 {
        return vec![seed; rows];
    }
    let mut fingerprints = Vec::with_capacity(rows);
    let mut quads = arena.chunks_exact(4 * row_len);
    for quad in &mut quads {
        let (r0, rest) = quad.split_at(row_len);
        let (r1, rest) = rest.split_at(row_len);
        let (r2, r3) = rest.split_at(row_len);
        let mut acc = [seed; 4];
        for (((&a, &b), &c), &d) in r0.iter().zip(r1).zip(r2).zip(r3) {
            acc = [
                mix_f64(acc[0], a),
                mix_f64(acc[1], b),
                mix_f64(acc[2], c),
                mix_f64(acc[3], d),
            ];
        }
        fingerprints.extend(acc);
    }
    let rest = quads.remainder().chunks_exact(row_len);
    fingerprints.extend(rest.map(fingerprint_f64s));
    fingerprints
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_nontrivial() {
        assert_eq!(splitmix64(0), splitmix64(0));
        assert_ne!(splitmix64(0), 0);
        assert_ne!(splitmix64(1), splitmix64(2));
    }

    #[test]
    fn mix_is_order_sensitive() {
        let a = mix(mix(FINGERPRINT_SEED, 1), 2);
        let b = mix(mix(FINGERPRINT_SEED, 2), 1);
        assert_ne!(a, b);
    }

    #[test]
    fn a_fold_step_never_lets_one_bit_flips_in_consecutive_words_cancel() {
        // A flip of bit `k` in one word and of bit `m` in the next leave the
        // same chain only if the product's change, folded down, is the one
        // bit `m`: with the multiplier odd and outside ±1 and ±2^32 ± 1
        // modulo 2^33, no `k` makes it so. Checked over every pair of
        // positions from several accumulators.
        let mut state = FINGERPRINT_SEED;
        for _ in 0..16 {
            state = splitmix64(state);
            let (acc, first, second) = (state, splitmix64(state ^ 1), splitmix64(state ^ 2));
            let clean = fold_word(fold_word(acc, first), second);
            for k in 0..64 {
                for m in 0..64 {
                    let torn = fold_word(fold_word(acc, first ^ 1 << k), second ^ 1 << m);
                    assert_ne!(torn, clean, "bits {k} and {m}");
                }
            }
        }
        // The multiply alone does let them cancel.
        let bare = |acc: u64, word: u64| (acc ^ word).wrapping_mul(FOLD_MULTIPLIER);
        let (acc, first, second) = (FINGERPRINT_SEED, 7, 11);
        assert_eq!(
            bare(bare(acc, first ^ 1 << 63), second ^ 1 << 63),
            bare(bare(acc, first), second)
        );
    }

    #[test]
    fn mix_f64_distinguishes_signed_zero() {
        assert_ne!(mix_f64(0, 0.0), mix_f64(0, -0.0));
    }

    #[test]
    fn mix_str_distinguishes_contents_and_matches_itself() {
        assert_eq!(mix_str(7, "cpu"), mix_str(7, "cpu"));
        assert_ne!(mix_str(7, "cpu"), mix_str(7, "mem"));
        assert_ne!(mix_str(7, "ab"), mix_str(7, "a"));
    }

    #[test]
    fn shard_index_is_stable_and_in_range() {
        for count in [1usize, 2, 8, 16, 64] {
            for key in ["tenant-a", "tenant-b", "web", ""] {
                let shard = shard_index(key, count);
                assert!(shard < count, "{key} -> {shard} of {count}");
                assert_eq!(shard, shard_index(key, count), "routing is stable");
            }
        }
        // With enough keys the shards all get used (the hash actually
        // spreads, it is not constant).
        let mut seen = [false; 8];
        for i in 0..64 {
            seen[shard_index(&format!("tenant-{i}"), 8)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all 8 shards receive keys");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn shard_index_rejects_non_power_of_two_counts() {
        shard_index("tenant", 6);
    }

    #[test]
    fn lockstep_rows_fingerprint_as_each_row_alone() {
        let mut state = FINGERPRINT_SEED;
        for rows in 0..=9 {
            for row_len in (0..=40).chain([63, 64, 65, 127, 128, 129, 255, 256, 300]) {
                let arena: Vec<f64> = (0..rows * row_len)
                    .map(|_| {
                        state = splitmix64(state);
                        (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
                    })
                    .collect();
                let expected: Vec<u64> = (0..rows)
                    .map(|row| fingerprint_f64s(&arena[row * row_len..(row + 1) * row_len]))
                    .collect();
                let found = fingerprint_f64_rows(&arena, rows);
                assert_eq!(found, expected, "{rows} rows of {row_len}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "rows of one length")]
    fn lockstep_rows_refuse_a_ragged_arena() {
        fingerprint_f64_rows(&[1.0, 2.0, 3.0], 2);
    }

    #[test]
    fn slice_fingerprint_is_length_prefixed() {
        assert_ne!(fingerprint_f64s(&[]), fingerprint_f64s(&[0.0]));
        assert_ne!(fingerprint_f64s(&[1.0, 2.0]), fingerprint_f64s(&[2.0, 1.0]));
        assert_eq!(fingerprint_f64s(&[1.0, 2.0]), fingerprint_f64s(&[1.0, 2.0]));
    }
}

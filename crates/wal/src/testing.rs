//! Test support shared by the crate's unit tests: a deterministic word
//! stream and the byte mutator the decoders' mutation tests feed on.

use sieve_exec::hash::splitmix64;

/// A deterministic stream of pseudo-random words.
pub(crate) fn rng(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed;
    move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(state)
    }
}

/// `bytes` after one to four random edits: a bit flipped, a byte set
/// (often to a varint's or a count's edge), a cut, or a byte inserted.
pub(crate) fn mutate(bytes: &[u8], rand: &mut impl FnMut() -> u64) -> Vec<u8> {
    let mut out = bytes.to_vec();
    for _ in 0..1 + rand() % 4 {
        let at = |len: usize, r: u64| (r % (len as u64 + 1)) as usize;
        match rand() % 4 {
            0 if !out.is_empty() => {
                let byte = at(out.len() - 1, rand());
                out[byte] ^= 1 << (rand() % 8);
            }
            1 if !out.is_empty() => {
                let byte = at(out.len() - 1, rand());
                out[byte] = [0x00, 0x01, 0x7F, 0x80, 0xFF, rand() as u8][(rand() % 6) as usize];
            }
            2 => out.truncate(at(out.len(), rand())),
            _ => {
                let byte = at(out.len(), rand());
                out.insert(byte, rand() as u8);
            }
        }
    }
    out
}

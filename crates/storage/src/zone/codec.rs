//! The PaiZone frame-of-reference codec: the one place packed bits are
//! touched.
//!
//! A block stores `rows` unsigned deltas of `width` bits each as one
//! little-endian bit stream: value `i` occupies bits `[i·w, (i+1)·w)`, bit
//! `b` of the stream is bit `b % 8` of byte `b / 8`, and the stream is padded
//! to a whole byte at the end ([`packed_len`]). Three kernels read and write
//! that layout — [`unpack`] (a run of consecutive values: a whole block, or
//! the rows of a positional read), [`extract`] (one value) and [`pack`] — and
//! all three move eight bytes at a time: a value that starts `s < 8` bits
//! into a byte lies inside the little-endian word loaded from that byte
//! whenever `s + w <= 64`, and spills into exactly one more byte — the ninth
//! — otherwise. Only the last values of a buffer, with fewer than eight
//! bytes left to load, are assembled byte by byte.
//!
//! Lengths are checked once, up front, against the header's arithmetic; no
//! loop here can index out of bounds whatever the data bits are, and none
//! shifts by 64 (debug builds would panic; the tests run in both profiles).

use pai_common::Result;

use super::corrupt;

/// Bytes a run of `rows` values packed at `width` bits occupies.
#[inline]
pub(super) fn packed_len(rows: u64, width: u8) -> u64 {
    (rows * width as u64).div_ceil(8)
}

#[inline]
fn width_mask(width: u8) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// Reads the `width`-bit value whose first bit is `bit_off` bits into `buf`.
///
/// Total: bytes past the end of `buf` read as zero, so a value the caller
/// did not prove to lie inside `buf` decodes to garbage, never to a panic.
#[inline]
fn extract(buf: &[u8], bit_off: usize, width: u8) -> u64 {
    let (byte, shift) = (bit_off / 8, bit_off % 8);
    let bits = match buf.get(byte..byte + 8) {
        Some(word) => {
            let lo = u64::from_le_bytes(word.try_into().expect("an 8-byte slice")) >> shift;
            if shift + width as usize > 64 {
                // shift is 1..=7 here, so the ninth byte lands on bits 57..=63.
                let ninth = buf.get(byte + 8).copied().unwrap_or(0);
                lo | (ninth as u64) << (64 - shift)
            } else {
                lo
            }
        }
        // Fewer than eight bytes left: shift + width < 64, a word holds it.
        None => {
            let tail = buf.get(byte..).unwrap_or(&[]);
            let mut lo = 0u64;
            for (k, &b) in tail.iter().enumerate() {
                lo |= (b as u64) << (8 * k);
            }
            lo >> shift
        }
    };
    bits & width_mask(width)
}

/// Decodes a run of `n` consecutive `width`-bit values and hands each to
/// `emit` with its position in the run.
///
/// `buf` is exactly the bytes the run touches: it begins at the byte holding
/// the run's first bit, `shift < 8` bits in (0 for a whole block), and ends
/// at the byte holding its last — anything else is a corrupt payload. A
/// width-0 run stores no bytes and decodes to zeros.
pub(super) fn unpack(
    buf: &[u8],
    shift: usize,
    width: u8,
    n: usize,
    mut emit: impl FnMut(usize, u64),
) -> Result<()> {
    debug_assert!(shift < 8 && width <= 64);
    let bits = n as u64 * width as u64;
    let want = if bits == 0 {
        0
    } else {
        (shift as u64 + bits).div_ceil(8)
    };
    if buf.len() as u64 != want {
        return Err(corrupt(format!(
            "block payload of {} bytes where {n} values of {width} bits take {want}",
            buf.len()
        )));
    }
    // Eight consecutive values take exactly `width` bytes, so every group of
    // eight starts `shift` bits into byte `g * width` and its lanes sit at
    // the same offsets in every group: one slice check a group, then loads
    // and shifts. A lane's word plus its ninth byte end at most `width + 9`
    // bytes past the group's first; what lies closer to the end of `buf`
    // than that goes through `extract`, which checks every byte it reads.
    let w = width as usize;
    let mask = width_mask(width);
    let spills = 7 + w > 64;
    let groups = (buf.len().saturating_sub(9).checked_div(w)).map_or(0, |fit| fit.min(n / 8));
    for g in 0..groups {
        let group = &buf[g * w..g * w + w + 9];
        for lane in 0..8 {
            let bit = shift + lane * w;
            let (byte, s) = (bit / 8, bit % 8);
            let word: [u8; 8] = group[byte..byte + 8].try_into().expect("an 8-byte slice");
            let mut bits = u64::from_le_bytes(word) >> s;
            if spills {
                // `<< (64 - s)` that is zero, not an overflow, at `s == 0`;
                // where the value does not spill these bits are masked off.
                bits |= ((group[byte + 8] as u64) << 1) << (63 - s);
            }
            emit(g * 8 + lane, bits & mask);
        }
    }
    let mut bit = shift + groups * 8 * w;
    for i in groups * 8..n {
        emit(i, extract(buf, bit, width));
        bit += w;
    }
    Ok(())
}

/// Appends `deltas` to `out` as a little-endian bit stream of `width`-bit
/// values, padded to a whole byte at the end. Every delta must fit `width`.
pub(super) fn pack(deltas: &[u64], width: u8, out: &mut Vec<u8>) {
    if width == 0 {
        return;
    }
    out.reserve(packed_len(deltas.len() as u64, width) as usize);
    // `acc` holds the `fill < 64` stream bits not yet written.
    let (mut acc, mut fill) = (0u64, 0u32);
    for &d in deltas {
        debug_assert!(d <= width_mask(width), "delta wider than {width} bits");
        acc |= d << fill;
        fill += width as u32;
        if fill >= 64 {
            out.extend_from_slice(&acc.to_le_bytes());
            fill -= 64;
            // The bits of `d` the full word had no room for; when it ended
            // exactly on the word there are none (and no shift by 64).
            acc = d.checked_shr(width as u32 - fill).unwrap_or(0);
        }
    }
    out.extend_from_slice(&acc.to_le_bytes()[..fill.div_ceil(8) as usize]);
}

/// The byte-at-a-time loops the format was defined by — the product code
/// until the word kernels replaced it, kept as what the tests compare with.
#[cfg(test)]
pub(super) mod reference {
    /// What [`super::pack`] must equal (at `shift == 0`; a run that starts
    /// `shift` bits into its first byte otherwise).
    pub fn pack(deltas: &[u64], shift: usize, width: u8, out: &mut Vec<u8>) {
        if width == 0 {
            return;
        }
        let start = out.len();
        let bits = shift + deltas.len() * width as usize;
        out.resize(start + bits.div_ceil(8), 0);
        let mut bit = shift;
        for &d in deltas {
            let first = start + bit / 8;
            let shift = bit % 8;
            let v = (d as u128) << shift;
            let nbytes = (shift + width as usize).div_ceil(8);
            for k in 0..nbytes {
                out[first + k] |= (v >> (8 * k)) as u8;
            }
            bit += width as usize;
        }
    }

    /// What [`super::extract`] must equal. Panics on a short buffer.
    pub fn extract(buf: &[u8], bit_off: usize, width: u8) -> u64 {
        let first = bit_off / 8;
        let shift = bit_off % 8;
        let nbytes = (shift + width as usize).div_ceil(8);
        let mut v: u128 = 0;
        for (k, &byte) in buf[first..first + nbytes].iter().enumerate() {
            v |= (byte as u128) << (8 * k);
        }
        ((v >> shift) as u64) & super::width_mask(width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deltas(n: usize, width: u8, salt: u64) -> Vec<u64> {
        (0..n as u64)
            .map(|i| (i + salt + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) & width_mask(width))
            .collect()
    }

    /// Every width × every start shift × lengths around the word size, the
    /// last value ending in the buffer's last byte: the word kernels, the
    /// per-value reader and the byte-at-a-time reference agree.
    #[test]
    fn every_width_and_shift_matches_the_byte_reference() {
        for width in 0u8..=64 {
            for shift in 0usize..8 {
                for n in [1usize, 2, 7, 8, 9, 17, 4096] {
                    let label = format!("width {width}, shift {shift}, n {n}");
                    let want = deltas(n, width, shift as u64);
                    let mut buf = Vec::new();
                    reference::pack(&want, shift, width, &mut buf);
                    // The bits before the run belong to a neighbour: set.
                    if let Some(first) = buf.first_mut() {
                        *first |= (1u8 << shift) - 1;
                    }
                    let mut got = vec![u64::MAX; n];
                    unpack(&buf, shift, width, n, |i, d| got[i] = d).expect(&label);
                    assert_eq!(got, want, "unpack: {label}");
                    if width == 0 {
                        continue;
                    }
                    for (i, &d) in want.iter().enumerate() {
                        let bit = shift + i * width as usize;
                        assert_eq!(extract(&buf, bit, width), d, "extract {i}: {label}");
                        assert_eq!(reference::extract(&buf, bit, width), d, "{label}");
                    }
                    if shift == 0 {
                        let mut packed = vec![0xAB];
                        pack(&want, width, &mut packed);
                        assert_eq!(packed[0], 0xAB, "pack appends: {label}");
                        assert_eq!(packed[1..], buf[..], "pack bytes: {label}");
                        assert_eq!(buf.len() as u64, packed_len(n as u64, width), "{label}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_payload_of_the_wrong_length_is_an_error_not_a_panic() {
        for (width, n) in [(1u8, 9usize), (13, 100), (51, 4096), (64, 3)] {
            let mut buf = Vec::new();
            pack(&deltas(n, width, 0), width, &mut buf);
            assert!(unpack(&buf, 0, width, n, |_, _| {}).is_ok());
            let err = unpack(&buf[..buf.len() - 1], 0, width, n, |_, _| {}).unwrap_err();
            assert!(err.to_string().contains("block payload"), "{err}");
            buf.push(0);
            assert!(
                unpack(&buf, 0, width, n, |_, _| {}).is_err(),
                "one byte long"
            );
        }
        assert!(
            unpack(&[0], 0, 0, 5, |_, _| {}).is_err(),
            "width 0 stores nothing"
        );
        // And the per-value reader is total on its own.
        assert_eq!(extract(&[0xFF; 4], 24, 64), 0xFF);
        assert_eq!(extract(&[0xFF; 4], 4096, 17), 0);
    }
}

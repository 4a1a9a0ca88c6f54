//! Checksums and hex codec for transfers.
//!
//! GridFTP guards bulk data with per-block and whole-file checksums; the
//! simulated transport does the same with CRC-32 (the IEEE polynomial,
//! reflected), computed slice-by-8: eight 256-entry tables, built at
//! compile time, fold eight input bytes per step. The archive's block
//! addresses, the backing store, checkpoint headers, NFMS chunks, the
//! portal's history digests and the benches use this one implementation.
//! [`crc32_combine`] joins two CRCs without the bytes behind them, so the
//! archive computes a whole-file digest from its block CRCs and reads each
//! ingested byte once. Hex is the byte codec used when chunks ride inside
//! JSON payloads: NFMS chunks and portal artifact frames.

/// The IEEE 802.3 polynomial, bit-reversed.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0][b]` is the CRC register after shifting byte `b` through
/// eight bit steps; `TABLES[k][b]` continues it through `k` more zero
/// bytes, so one lookup per input byte covers a whole 8-byte stride.
static TABLES: [[u32; 256]; 8] = tables();

const fn tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32 (IEEE 802.3 polynomial, reflected).
pub fn crc32(data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc: u32 = 0xFFFF_FFFF;
    let mut strides = data.chunks_exact(8);
    for s in &mut strides {
        let lo = crc ^ u32::from_le_bytes([s[0], s[1], s[2], s[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][s[4] as usize]
            ^ t[2][s[5] as usize]
            ^ t[1][s[6] as usize]
            ^ t[0][s[7] as usize];
    }
    for &b in strides.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// `X2N[k]` is x^(2^k) mod P, the polynomial that shifts a CRC register
/// through 2^k zero bits.
static X2N: [u32; 32] = x2n_table();

const fn x2n_table() -> [u32; 32] {
    let mut t = [0u32; 32];
    // x^1; bit 31 is x^0 in the reflected representation.
    let mut p = 1u32 << 30;
    t[0] = p;
    let mut k = 1;
    while k < 32 {
        p = multmodp(p, p);
        t[k] = p;
        k += 1;
    }
    t
}

/// `a · b mod P` over GF(2), both in the reflected representation.
const fn multmodp(a: u32, mut b: u32) -> u32 {
    let mut m = 1u32 << 31;
    let mut p = 0u32;
    loop {
        if a & m != 0 {
            p ^= b;
            if a & (m - 1) == 0 {
                return p;
            }
        }
        m >>= 1;
        b = (b >> 1) ^ (POLY & (b & 1).wrapping_neg());
    }
}

/// CRC-32 of `a ++ b` from `crc32(a)`, `crc32(b)` and `b`'s length, without
/// reading either: `crc_a` is multiplied by x^(8·len_b) mod P (zlib's
/// `crc32_combine`), which costs one table lookup and at most 32 bit steps
/// per set bit of `len_b`. `crc32(&[])` is 0, so a fold over a file's
/// blocks starts from 0.
pub fn crc32_combine(crc_a: u32, crc_b: u32, len_b: u64) -> u32 {
    // x^(8·n) = product of x^(2^k) over the set bits of n, shifted by 3.
    let mut shift = 1u32 << 31;
    let (mut n, mut k) = (len_b, 3);
    while n != 0 {
        if n & 1 == 1 {
            shift = multmodp(X2N[k & 31], shift);
        }
        n >>= 1;
        k += 1;
    }
    multmodp(shift, crc_a) ^ crc_b
}

const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Encode bytes as lowercase hex: exactly two characters per byte.
pub fn to_hex(data: &[u8]) -> String {
    let mut s = String::with_capacity(data.len() * 2);
    for &b in data {
        s.push(HEX_DIGITS[(b >> 4) as usize] as char);
        s.push(HEX_DIGITS[(b & 0x0F) as usize] as char);
    }
    s
}

/// Decode lowercase/uppercase hex; `None` on malformed input (odd length
/// or any character outside `0-9a-fA-F`).
pub fn from_hex(s: &str) -> Option<Vec<u8>> {
    let digits = s.as_bytes();
    if !digits.len().is_multiple_of(2) {
        return None;
    }
    let mut out = Vec::with_capacity(digits.len() / 2);
    for pair in digits.chunks_exact(2) {
        out.push(nibble(pair[0])? << 4 | nibble(pair[1])?);
    }
    Some(out)
}

fn nibble(c: u8) -> Option<u8> {
    match c {
        b'0'..=b'9' => Some(c - b'0'),
        b'a'..=b'f' => Some(c - b'a' + 10),
        b'A'..=b'F' => Some(c - b'A' + 10),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bit-at-a-time definition of the same CRC: the reference the
    /// table-driven kernel is pinned against.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc: u32 = 0xFFFF_FFFF;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (POLY & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard test vector: "123456789" → 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_combine_folds_blocks_into_the_whole_file_crc() {
        let data: Vec<u8> = (0..10_000u32).map(|i| (i * 31 % 251) as u8).collect();
        for chunk in [1, 7, 8, 9, 1_000, 4_096, 10_000] {
            let folded = data.chunks(chunk).fold(0, |acc, block| {
                crc32_combine(acc, crc32(block), block.len() as u64)
            });
            assert_eq!(folded, crc32(&data), "chunk {chunk}");
        }
        assert_eq!(crc32_combine(0, 0, 0), 0);
        assert_eq!(crc32_combine(crc32(b"1234"), crc32(b""), 0), crc32(b"1234"));
        assert_eq!(
            crc32_combine(crc32(b""), crc32(b"56789"), 5),
            crc32(b"56789")
        );
        assert_eq!(
            crc32_combine(crc32(b"1234"), crc32(b"56789"), 5),
            0xCBF4_3926
        );
    }

    #[test]
    fn crc32_detects_corruption() {
        let a = crc32(b"The quick brown fox");
        let b = crc32(b"The quick brown fux");
        assert_ne!(a, b);
    }

    #[test]
    fn hex_roundtrip_known() {
        assert_eq!(to_hex(&[0x00, 0xff, 0x10]), "00ff10");
        assert_eq!(from_hex("00ff10").unwrap(), vec![0x00, 0xff, 0x10]);
        assert_eq!(from_hex("00FF10").unwrap(), vec![0x00, 0xff, 0x10]);
    }

    #[test]
    fn hex_rejects_malformed() {
        assert!(from_hex("abc").is_none());
        assert!(from_hex("zz").is_none());
        assert!(from_hex("+f").is_none());
        assert!(
            from_hex("é").is_none(),
            "two non-ASCII bytes are not a hex pair"
        );
    }

    proptest! {
        #[test]
        fn crc32_matches_the_bitwise_reference(
            data in proptest::collection::vec(any::<u8>(), 0..2049),
            start in any::<usize>(),
            len in any::<usize>(),
        ) {
            // Random sub-slices give unaligned starts and every tail
            // length mod 8.
            let start = start % (data.len() + 1);
            let end = start + len % (data.len() - start + 1);
            let slice = &data[start..end];
            prop_assert_eq!(crc32(slice), crc32_bitwise(slice));
            prop_assert_eq!(crc32(&data), crc32_bitwise(&data));
        }

        #[test]
        fn crc32_combine_joins_any_split(
            data in proptest::collection::vec(any::<u8>(), 0..2049),
            split in any::<usize>(),
        ) {
            // A random split point gives halves of every length mod 8;
            // the two ends give an empty half every case.
            let whole = crc32_bitwise(&data);
            for split in [0, split % (data.len() + 1), data.len()] {
                let (a, b) = data.split_at(split);
                let joined = crc32_combine(crc32(a), crc32(b), b.len() as u64);
                prop_assert_eq!(joined, crc32(&data));
                prop_assert_eq!(joined, whole);
            }
        }

        #[test]
        fn hex_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..200)) {
            prop_assert_eq!(from_hex(&to_hex(&data)).unwrap(), data);
        }
    }
}

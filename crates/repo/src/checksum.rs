//! Checksums and hex codec for transfers.
//!
//! GridFTP guards bulk data with per-block and whole-file checksums; the
//! simulated transport does the same with CRC-32 (the IEEE polynomial,
//! computed bit by bit, no lookup table). The archive, the portal's history
//! digests and the benches use this one implementation. Hex is the byte
//! codec used when chunks ride inside JSON RPC payloads.

/// CRC-32 (IEEE 802.3 polynomial, reflected).
pub fn crc32(data: &[u8]) -> u32 {
    const POLY: u32 = 0xEDB8_8320;
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

/// Encode bytes as lowercase hex.
pub fn to_hex(data: &[u8]) -> String {
    let mut s = String::with_capacity(data.len() * 2);
    for b in data {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

/// Decode lowercase/uppercase hex; `None` on malformed input.
pub fn from_hex(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(s.get(i..i + 2)?, 16).ok())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard test vector: "123456789" → 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
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
    }

    proptest! {
        #[test]
        fn hex_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..200)) {
            prop_assert_eq!(from_hex(&to_hex(&data)).unwrap(), data);
        }
    }
}

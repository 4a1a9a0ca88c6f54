//! GridFTP restart markers and NFMS's upload assembler.
//!
//! Two GridFTP features [Allcock et al., ref 3] live here. A
//! [`RestartMarker`] summarizes the byte ranges a receiver holds, so an
//! interrupted transfer resumes without resending them; the archive's
//! striped transfer engine (`neesgrid_archive::stripe`), which moves every
//! bulk transfer in the stack, offers one in each `OfferAck`. And NFMS
//! assembles each upload from blocks that arrive in any order, each under
//! its own CRC-32, checking the whole-file CRC-32 when it commits.

use std::collections::BTreeMap;

use bytes::Bytes;
use serde::{Deserialize, Serialize};

use crate::checksum::crc32;

/// Why an upload (or one of its blocks) was refused. The `Display` text
/// travels in NFMS's faults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum TransferError {
    /// A block's byte range falls outside the negotiated file length.
    OutOfBounds {
        /// Block start offset.
        start: u64,
        /// Block end offset (exclusive).
        end: u64,
        /// Negotiated file length.
        len: u64,
    },
    /// A block's payload failed its per-block CRC-32.
    BlockChecksum {
        /// Offset of the corrupt block.
        offset: u64,
    },
    /// `finish` was called before every byte arrived.
    Incomplete {
        /// Ranges received so far.
        have: Vec<(u64, u64)>,
        /// Negotiated file length.
        expected: u64,
    },
    /// The reassembled file failed the whole-file CRC-32.
    FileChecksum {
        /// CRC-32 actually computed.
        actual: u32,
        /// CRC-32 the control channel promised.
        expected: u32,
    },
}

impl std::fmt::Display for TransferError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransferError::OutOfBounds { start, end, len } => {
                write!(f, "block [{start},{end}) beyond file length {len}")
            }
            TransferError::BlockChecksum { offset } => {
                write!(f, "block at {offset} failed checksum")
            }
            TransferError::Incomplete { have, expected } => {
                write!(f, "transfer incomplete: have {have:?} of {expected} bytes")
            }
            TransferError::FileChecksum { actual, expected } => {
                write!(
                    f,
                    "file checksum mismatch: {actual:#010x} != {expected:#010x}"
                )
            }
        }
    }
}

/// The ranges a receiver already holds, `(start, end)` half-open, sorted
/// and coalesced.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RestartMarker {
    /// Received byte ranges.
    pub ranges: Vec<(u64, u64)>,
}

impl RestartMarker {
    /// Whether `[start, end)` is fully covered.
    pub fn covers(&self, start: u64, end: u64) -> bool {
        self.ranges.iter().any(|&(s, e)| s <= start && end <= e)
    }

    /// Record `[start, end)` as held, keeping the ranges sorted and
    /// coalesced.
    pub fn add(&mut self, start: u64, end: u64) {
        self.ranges.push((start, end));
        self.ranges.sort_unstable();
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(self.ranges.len());
        for &(s, e) in &self.ranges {
            match merged.last_mut() {
                Some((_, pe)) if s <= *pe => *pe = (*pe).max(e),
                _ => merged.push((s, e)),
            }
        }
        self.ranges = merged;
    }

    /// Whether the ranges are exactly `[0, len)`: every byte of a
    /// `len`-byte file is held.
    pub fn is_complete(&self, len: u64) -> bool {
        len == 0 || self.ranges == [(0, len)]
    }
}

/// NFMS's upload assembler: the receiving side of a negotiated upload.
///
/// The negotiated length comes from the peer, so nothing is allocated up
/// front: accepted blocks are kept by offset (shared, not copied), and the
/// file is assembled in [`GridFtpReceiver::finish`] once the marker covers
/// every byte.
pub(crate) struct GridFtpReceiver {
    expected_len: u64,
    expected_checksum: u32,
    blocks: BTreeMap<u64, Bytes>,
    marker: RestartMarker,
}

impl GridFtpReceiver {
    /// Expect a file of `len` bytes with the given whole-file CRC-32.
    pub(crate) fn new(len: u64, checksum: u32) -> Self {
        GridFtpReceiver {
            expected_len: len,
            expected_checksum: checksum,
            blocks: BTreeMap::new(),
            marker: RestartMarker::default(),
        }
    }

    /// Accept the block `data` at `offset`, whose CRC-32 the sender says
    /// is `checksum`, in any order. Rejects corrupt or out-of-bounds
    /// blocks. Duplicate blocks are idempotent.
    pub(crate) fn accept(
        &mut self,
        offset: u64,
        data: Bytes,
        checksum: u32,
    ) -> Result<(), TransferError> {
        let end = offset.checked_add(data.len() as u64);
        let Some(end) = end.filter(|&end| end <= self.expected_len) else {
            return Err(TransferError::OutOfBounds {
                start: offset,
                end: end.unwrap_or(u64::MAX),
                len: self.expected_len,
            });
        };
        if crc32(&data) != checksum {
            return Err(TransferError::BlockChecksum { offset });
        }
        self.blocks.insert(offset, data);
        self.marker.add(offset, end);
        Ok(())
    }

    /// The current restart marker.
    pub(crate) fn restart_marker(&self) -> &RestartMarker {
        &self.marker
    }

    /// Whether every byte has arrived.
    fn complete(&self) -> bool {
        self.marker.is_complete(self.expected_len)
    }

    /// Finish: verify the whole-file checksum and hand over the content.
    pub(crate) fn finish(self) -> Result<Bytes, TransferError> {
        if !self.complete() {
            return Err(TransferError::Incomplete {
                have: self.marker.ranges,
                expected: self.expected_len,
            });
        }
        // Complete means accepted blocks spanned every byte, so this
        // allocation is bounded by what actually arrived. (A block re-sent
        // shorter at the same offset leaves zeros; the file CRC catches it.)
        let mut file = vec![0; self.expected_len as usize];
        for (offset, data) in &self.blocks {
            let start = *offset as usize;
            file[start..start + data.len()].copy_from_slice(data);
        }
        let sum = crc32(&file);
        if sum != self.expected_checksum {
            return Err(TransferError::FileChecksum {
                actual: sum,
                expected: self.expected_checksum,
            });
        }
        Ok(Bytes::from(file))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn payload(n: usize) -> Bytes {
        Bytes::from((0..n).map(|i| (i * 7 + 13) as u8).collect::<Vec<u8>>())
    }

    /// `content` as `(offset, block, crc)` blocks of `size` bytes.
    fn blocks(content: &Bytes, size: usize) -> Vec<(u64, Bytes, u32)> {
        (0..content.len())
            .step_by(size)
            .map(|at| {
                let data = content.slice(at..(at + size).min(content.len()));
                (at as u64, data.clone(), crc32(&data))
            })
            .collect()
    }

    /// A receiver expecting `content`.
    fn receiver(content: &Bytes) -> GridFtpReceiver {
        GridFtpReceiver::new(content.len() as u64, crc32(content))
    }

    #[test]
    fn in_order_transfer_completes() {
        let content = payload(10_000);
        let mut rx = receiver(&content);
        for (at, data, crc) in blocks(&content, 1024) {
            rx.accept(at, data, crc).unwrap();
        }
        assert!(rx.complete());
        assert_eq!(rx.finish().unwrap(), content);
    }

    #[test]
    fn out_of_order_arrival_is_fine() {
        let content = payload(5_000);
        let mut rx = receiver(&content);
        for (at, data, crc) in blocks(&content, 512).into_iter().rev() {
            rx.accept(at, data, crc).unwrap();
        }
        assert_eq!(rx.finish().unwrap(), content);
    }

    #[test]
    fn corrupt_block_rejected() {
        let content = payload(2_000);
        let (at, data, crc) = blocks(&content, 512).remove(0);
        let mut bad = data.to_vec();
        bad[0] ^= 0xFF;
        let mut rx = receiver(&content);
        assert_eq!(
            rx.accept(at, Bytes::from(bad), crc).unwrap_err(),
            TransferError::BlockChecksum { offset: 0 }
        );
        assert!(rx.restart_marker().ranges.is_empty());
    }

    #[test]
    fn out_of_bounds_block_rejected() {
        let mut rx = GridFtpReceiver::new(100, 0);
        let data = payload(20);
        let crc = crc32(&data);
        assert!(matches!(
            rx.accept(90, data, crc).unwrap_err(),
            TransferError::OutOfBounds {
                end: 110,
                len: 100,
                ..
            }
        ));
    }

    #[test]
    fn duplicate_blocks_are_idempotent() {
        let content = payload(2_048);
        let mut rx = receiver(&content);
        for (at, data, crc) in blocks(&content, 1024) {
            rx.accept(at, data.clone(), crc).unwrap();
            rx.accept(at, data, crc).unwrap();
        }
        assert_eq!(rx.finish().unwrap(), content);
    }

    #[test]
    fn incomplete_finish_fails() {
        let content = payload(2_048);
        let mut rx = receiver(&content);
        let (at, data, crc) = blocks(&content, 1024).remove(0);
        rx.accept(at, data, crc).unwrap();
        assert!(rx.restart_marker().covers(0, 1024));
        assert!(rx.finish().is_err());
    }

    #[test]
    fn empty_file_transfer() {
        let rx = receiver(&Bytes::new());
        assert!(rx.complete());
        assert_eq!(rx.finish().unwrap(), Bytes::new());
    }

    proptest! {
        #[test]
        fn any_permutation_reassembles(
            len in 1usize..5000,
            chunk_size in 1usize..700,
            seed in 0u64..1000,
        ) {
            use rand::seq::SliceRandom;
            use rand::SeedableRng;
            let content = payload(len);
            let mut chunks = blocks(&content, chunk_size);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            chunks.shuffle(&mut rng);
            let mut rx = receiver(&content);
            for (at, data, crc) in chunks {
                rx.accept(at, data, crc).unwrap();
            }
            prop_assert_eq!(rx.finish().unwrap(), content);
        }
    }
}

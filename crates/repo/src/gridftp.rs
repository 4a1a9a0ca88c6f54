//! Simulated GridFTP bulk transport.
//!
//! Reproduces the GridFTP features NFMS relies on [Allcock et al., ref 3]:
//! **parallel streams** (chunks are distributed round-robin over N logical
//! streams and may arrive interleaved or out of order), **per-block
//! checksums**, and **restart markers** — a receiver summarizes the byte
//! ranges it holds so an interrupted transfer resumes without resending
//! them. The `fig03_repository` bench sweeps file size × stream count
//! through this path.

use std::collections::BTreeMap;

use bytes::Bytes;
use serde::{Deserialize, Serialize};

use crate::checksum::crc32;

/// Why a transfer (or one of its blocks) was refused.
///
/// Typed like the portal's `Rejection`: callers match on the variant, the
/// `Display` impl keeps the old human-readable text for logs and faults.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TransferError {
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

impl std::error::Error for TransferError {}

/// One data block on one stream.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferChunk {
    /// Byte offset within the file.
    pub offset: u64,
    /// Block payload.
    pub data: Bytes,
    /// CRC-32 of the payload.
    pub checksum: u32,
    /// Which parallel stream carries this block.
    pub stream: u32,
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

/// Sender side of a transfer.
pub struct GridFtpSender {
    content: Bytes,
    chunk_size: usize,
    streams: u32,
}

impl GridFtpSender {
    /// Prepare a transfer of `content` in `chunk_size` blocks over
    /// `streams` parallel streams.
    pub fn new(content: Bytes, chunk_size: usize, streams: u32) -> Self {
        assert!(chunk_size > 0 && streams > 0);
        GridFtpSender {
            content,
            chunk_size,
            streams,
        }
    }

    /// Whole-file CRC-32 (sent out-of-band in the control channel).
    pub fn file_checksum(&self) -> u32 {
        crc32(&self.content)
    }

    /// Total size in bytes.
    pub fn len(&self) -> u64 {
        self.content.len() as u64
    }

    /// Whether the file is empty.
    pub fn is_empty(&self) -> bool {
        self.content.is_empty()
    }

    /// All blocks, round-robin across streams.
    pub fn chunks(&self) -> Vec<TransferChunk> {
        self.chunks_after(&RestartMarker::default())
    }

    /// Blocks *not* covered by the receiver's restart marker.
    pub fn chunks_after(&self, marker: &RestartMarker) -> Vec<TransferChunk> {
        let mut out = Vec::new();
        let mut index = 0u32;
        let mut offset = 0usize;
        while offset < self.content.len() {
            let end = (offset + self.chunk_size).min(self.content.len());
            if !marker.covers(offset as u64, end as u64) {
                let data = self.content.slice(offset..end);
                out.push(TransferChunk {
                    offset: offset as u64,
                    checksum: crc32(&data),
                    data,
                    stream: index % self.streams,
                });
            }
            index += 1;
            offset = end;
        }
        out
    }
}

/// Receiver side of a transfer.
///
/// The negotiated length comes from the peer, so nothing is allocated up
/// front: accepted blocks are kept by offset (shared, not copied), and the
/// file is assembled in [`GridFtpReceiver::finish`] once the marker covers
/// every byte.
pub struct GridFtpReceiver {
    expected_len: u64,
    expected_checksum: u32,
    blocks: BTreeMap<u64, Bytes>,
    marker: RestartMarker,
    blocks_accepted: u64,
    blocks_rejected: u64,
}

impl GridFtpReceiver {
    /// Expect a file of `len` bytes with the given whole-file CRC-32.
    pub fn new(len: u64, checksum: u32) -> Self {
        GridFtpReceiver {
            expected_len: len,
            expected_checksum: checksum,
            blocks: BTreeMap::new(),
            marker: RestartMarker::default(),
            blocks_accepted: 0,
            blocks_rejected: 0,
        }
    }

    /// Accept one block (any order, any stream). Rejects corrupt or
    /// out-of-bounds blocks. Duplicate blocks are idempotent.
    pub fn accept(&mut self, chunk: &TransferChunk) -> Result<(), TransferError> {
        let start = chunk.offset;
        let end = start.checked_add(chunk.data.len() as u64);
        let Some(end) = end.filter(|&end| end <= self.expected_len) else {
            self.blocks_rejected += 1;
            return Err(TransferError::OutOfBounds {
                start,
                end: end.unwrap_or(u64::MAX),
                len: self.expected_len,
            });
        };
        if crc32(&chunk.data) != chunk.checksum {
            self.blocks_rejected += 1;
            return Err(TransferError::BlockChecksum { offset: start });
        }
        self.blocks.insert(start, chunk.data.clone());
        self.marker.add(start, end);
        self.blocks_accepted += 1;
        Ok(())
    }

    /// The current restart marker.
    pub fn restart_marker(&self) -> RestartMarker {
        self.marker.clone()
    }

    /// Whether every byte has arrived.
    pub fn complete(&self) -> bool {
        self.marker.is_complete(self.expected_len)
    }

    /// (accepted, rejected) block counters.
    pub fn block_stats(&self) -> (u64, u64) {
        (self.blocks_accepted, self.blocks_rejected)
    }

    /// Finish: verify the whole-file checksum and hand over the content.
    pub fn finish(self) -> Result<Bytes, TransferError> {
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

    #[test]
    fn in_order_transfer_completes() {
        let content = payload(10_000);
        let sender = GridFtpSender::new(content.clone(), 1024, 4);
        let mut rx = GridFtpReceiver::new(sender.len(), sender.file_checksum());
        for c in sender.chunks() {
            rx.accept(&c).unwrap();
        }
        assert!(rx.complete());
        assert_eq!(rx.finish().unwrap(), content);
    }

    #[test]
    fn chunks_round_robin_across_streams() {
        let sender = GridFtpSender::new(payload(10_000), 1024, 4);
        let chunks = sender.chunks();
        assert_eq!(chunks.len(), 10); // ceil(10000/1024)
        assert_eq!(chunks[0].stream, 0);
        assert_eq!(chunks[1].stream, 1);
        assert_eq!(chunks[4].stream, 0);
        // Last chunk is the remainder.
        assert_eq!(chunks[9].data.len(), 10_000 - 9 * 1024);
    }

    #[test]
    fn out_of_order_arrival_is_fine() {
        let content = payload(5_000);
        let sender = GridFtpSender::new(content.clone(), 512, 3);
        let mut chunks = sender.chunks();
        chunks.reverse();
        let mut rx = GridFtpReceiver::new(sender.len(), sender.file_checksum());
        for c in chunks {
            rx.accept(&c).unwrap();
        }
        assert_eq!(rx.finish().unwrap(), content);
    }

    #[test]
    fn corrupt_block_rejected() {
        let sender = GridFtpSender::new(payload(2_000), 512, 1);
        let mut chunks = sender.chunks();
        let mut bad = chunks.remove(0);
        let mut data = bad.data.to_vec();
        data[0] ^= 0xFF;
        bad.data = Bytes::from(data);
        let mut rx = GridFtpReceiver::new(sender.len(), sender.file_checksum());
        assert_eq!(
            rx.accept(&bad).unwrap_err(),
            TransferError::BlockChecksum { offset: 0 }
        );
        assert_eq!(rx.block_stats(), (0, 1));
    }

    #[test]
    fn out_of_bounds_block_rejected() {
        let mut rx = GridFtpReceiver::new(100, 0);
        let c = TransferChunk {
            offset: 90,
            data: payload(20),
            checksum: crc32(&payload(20)),
            stream: 0,
        };
        assert!(matches!(
            rx.accept(&c).unwrap_err(),
            TransferError::OutOfBounds {
                end: 110,
                len: 100,
                ..
            }
        ));
    }

    #[test]
    fn restart_marker_resumes_without_resending() {
        let content = payload(10_240);
        let sender = GridFtpSender::new(content.clone(), 1024, 2);
        let all = sender.chunks();
        let mut rx = GridFtpReceiver::new(sender.len(), sender.file_checksum());
        // Network dies after 4 blocks.
        for c in &all[..4] {
            rx.accept(c).unwrap();
        }
        assert!(!rx.complete());
        let marker = rx.restart_marker();
        assert!(marker.covers(0, 4 * 1024));
        // Resume: the sender skips covered ranges.
        let rest = sender.chunks_after(&marker);
        assert_eq!(rest.len(), 6);
        for c in &rest {
            assert!(c.offset >= 4 * 1024);
            rx.accept(c).unwrap();
        }
        assert_eq!(rx.finish().unwrap(), content);
    }

    #[test]
    fn duplicate_blocks_are_idempotent() {
        let content = payload(2_048);
        let sender = GridFtpSender::new(content.clone(), 1024, 1);
        let mut rx = GridFtpReceiver::new(sender.len(), sender.file_checksum());
        for c in sender.chunks() {
            rx.accept(&c).unwrap();
            rx.accept(&c).unwrap();
        }
        assert_eq!(rx.finish().unwrap(), content);
    }

    #[test]
    fn incomplete_finish_fails() {
        let sender = GridFtpSender::new(payload(2_048), 1024, 1);
        let mut rx = GridFtpReceiver::new(sender.len(), sender.file_checksum());
        rx.accept(&sender.chunks()[0]).unwrap();
        assert!(rx.finish().is_err());
    }

    #[test]
    fn empty_file_transfer() {
        let sender = GridFtpSender::new(Bytes::new(), 1024, 2);
        assert!(sender.is_empty());
        let rx = GridFtpReceiver::new(0, sender.file_checksum());
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
            let sender = GridFtpSender::new(content.clone(), chunk_size, 3);
            let mut chunks = sender.chunks();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            chunks.shuffle(&mut rng);
            let mut rx = GridFtpReceiver::new(sender.len(), sender.file_checksum());
            for c in chunks {
                rx.accept(&c).unwrap();
            }
            prop_assert_eq!(rx.finish().unwrap(), content);
        }
    }
}

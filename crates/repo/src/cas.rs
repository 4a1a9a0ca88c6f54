//! Content-addressed block store.
//!
//! The archive never stores a capture twice: files are chunked into
//! fixed-size blocks, each block is keyed by `(CRC-32, length)`, and a
//! **manifest** object records the block sequence that reassembles the
//! file. Two runs that produce identical NSDS captures share every block;
//! the second ingest writes only a manifest. This mirrors the replica
//! catalog + GridFTP design of Allcock et al. (ref 3) where the data
//! plane moves immutable blocks and the metadata plane names them.
//!
//! An ingest reads each byte once, to compute its block's address CRC.
//! The manifest's whole-file CRC is combined from the block CRCs
//! ([`crc32_combine`]), and a stored block's checksum is its address CRC,
//! so neither is computed from the bytes again. A read still checks every
//! block against its address and the reassembled file against the
//! whole-file CRC.
//!
//! A [`RestartMarker`] summarizes the byte ranges of a manifest a store
//! already holds ([`CasStore::coverage`]), so an interrupted or
//! deduplicated transfer resumes without resending them [Allcock et al.,
//! ref 3].
//!
//! Layout on the backing [`VirtualStore`]:
//!
//! ```text
//! /cas/blocks/<crc32 hex>-<len hex>     one immutable block
//! /cas/manifests/<logical name>         JSON manifest (ordered block refs)
//! ```

use bytes::Bytes;
use serde::{Deserialize, Serialize};

use neesgrid_gridsim::SimTime;
use neesgrid_telemetry::{CounterHandle, Telemetry};

use crate::checksum::{crc32, crc32_combine};
use crate::storage::VirtualStore;

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

/// Content address of one immutable block: CRC-32 plus exact length.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct BlockKey {
    /// CRC-32 of the block payload.
    pub crc: u32,
    /// Payload length in bytes.
    pub len: u32,
}

impl BlockKey {
    /// Address `data`.
    pub fn of(data: &[u8]) -> Self {
        BlockKey {
            crc: crc32(data),
            len: data.len() as u32,
        }
    }

    /// Store path of the block under `/cas/blocks/`.
    pub fn path(&self) -> String {
        format!("/cas/blocks/{:08x}-{:x}", self.crc, self.len)
    }
}

impl std::fmt::Display for BlockKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:08x}-{:x}", self.crc, self.len)
    }
}

/// One entry in a manifest: where a block lands in the reassembled file.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockRef {
    /// Byte offset of the block within the file.
    pub offset: u64,
    /// Content address of the block.
    pub key: BlockKey,
}

impl BlockRef {
    /// The half-open byte range `[offset, offset+len)` this block covers.
    pub fn range(&self) -> (u64, u64) {
        (self.offset, self.offset + self.key.len as u64)
    }
}

/// The metadata object naming a stored file: an ordered list of block
/// addresses plus whole-file integrity data.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Manifest {
    /// Logical name (e.g. `/runs/r-0001/capture.jsonl`).
    pub logical: String,
    /// Total reassembled length in bytes.
    pub total_len: u64,
    /// Whole-file CRC-32.
    pub digest: u32,
    /// Chunk size the file was split with (the last block may be short).
    pub chunk_size: u32,
    /// Blocks in file order.
    pub blocks: Vec<BlockRef>,
}

impl Manifest {
    /// Store path of the manifest under `/cas/manifests`.
    pub fn path(&self) -> String {
        manifest_path(&self.logical)
    }

    /// Canonical JSON encoding (field order fixed by the struct).
    pub fn encode(&self) -> Bytes {
        // analyzer:allow(no-unwrap, reason = "Manifest is a plain derive(Serialize) struct of JSON-safe types; self-serialization is infallible")
        Bytes::from(serde_json::to_vec(self).expect("manifest serializes"))
    }

    /// Parse a manifest back from its canonical encoding.
    pub fn decode(bytes: &[u8]) -> Option<Manifest> {
        serde_json::from_slice(bytes).ok()
    }
}

/// Store path of the manifest object for `logical`.
pub fn manifest_path(logical: &str) -> String {
    format!("/cas/manifests{logical}")
}

/// Why a CAS operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CasError {
    /// No manifest stored under the logical name.
    UnknownManifest(String),
    /// A manifest references a block the store does not hold.
    MissingBlock {
        /// The absent block.
        key: BlockKey,
        /// Manifest that referenced it.
        logical: String,
    },
    /// A stored block no longer matches its content address.
    CorruptBlock {
        /// The damaged block.
        key: BlockKey,
    },
    /// A manifest's blocks do not tile its file: a gap, an overlap, or an
    /// end that is not `total_len`.
    NotTiled {
        /// The manifest's logical name.
        logical: String,
    },
    /// The reassembled file failed the manifest's whole-file CRC-32.
    DigestMismatch {
        /// CRC-32 actually computed.
        actual: u32,
        /// CRC-32 the manifest promised.
        expected: u32,
    },
}

impl std::fmt::Display for CasError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CasError::UnknownManifest(l) => write!(f, "no manifest for '{l}'"),
            CasError::MissingBlock { key, logical } => {
                write!(f, "manifest '{logical}' references missing block {key}")
            }
            CasError::CorruptBlock { key } => write!(f, "block {key} corrupt in store"),
            CasError::NotTiled { logical } => {
                write!(f, "manifest '{logical}' blocks do not tile the file")
            }
            CasError::DigestMismatch { actual, expected } => {
                write!(f, "digest mismatch: {actual:#010x} != {expected:#010x}")
            }
        }
    }
}

impl std::error::Error for CasError {}

/// Running totals of what an ingest wrote vs deduplicated, read from the
/// store's counters ([`CasStore::for_site`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CasStats {
    /// Blocks newly written to the backing store.
    pub blocks_written: u64,
    /// Blocks skipped because the store already held them.
    pub blocks_deduped: u64,
    /// Bytes newly written.
    pub bytes_written: u64,
    /// Bytes skipped by dedup.
    pub bytes_deduped: u64,
    /// Manifests written.
    pub manifests: u64,
}

/// The counters behind [`CasStats`], one per field.
#[derive(Clone, Default)]
struct CasCounters {
    blocks_written: CounterHandle,
    blocks_deduped: CounterHandle,
    bytes_written: CounterHandle,
    bytes_deduped: CounterHandle,
    manifests: CounterHandle,
}

/// A content-addressed store layered on one site's [`VirtualStore`].
///
/// Cloning shares the backing store and the stats; a site's NFMS view and
/// its archive view can coexist on the same store without clashing (the
/// CAS keeps to the `/cas/` prefix).
#[derive(Clone)]
pub struct CasStore {
    store: VirtualStore,
    counters: CasCounters,
}

impl CasStore {
    /// Wrap a backing store, counting its stats on detached counters.
    pub fn new(store: VirtualStore) -> Self {
        CasStore {
            store,
            counters: CasCounters::default(),
        }
    }

    /// The store of archive site `site`. When `telemetry` records, its
    /// stats are the registry's `cas.{field}{site}` counters (for example
    /// `cas.blocks_written{uiuc}`), each listed from its first bump, so
    /// sites sharing one recorder keep their own counts.
    pub fn for_site(store: VirtualStore, site: &str, telemetry: &Telemetry) -> Self {
        let counter = |stat: &str| telemetry.lazy_counter(&format!("cas.{stat}{{{site}}}"));
        CasStore {
            store,
            counters: CasCounters {
                blocks_written: counter("blocks_written"),
                blocks_deduped: counter("blocks_deduped"),
                bytes_written: counter("bytes_written"),
                bytes_deduped: counter("bytes_deduped"),
                manifests: counter("manifests"),
            },
        }
    }

    /// The backing store (shared).
    pub fn backing(&self) -> &VirtualStore {
        &self.store
    }

    /// Chunk `content`, write every block not already present, and record
    /// the manifest. Returns the manifest; stats count what deduplicated.
    ///
    /// Each byte is read once, by its block's [`BlockKey::of`]; the
    /// whole-file digest is folded from the block CRCs.
    pub fn ingest(
        &self,
        logical: impl Into<String>,
        content: &Bytes,
        chunk_size: u32,
        now: SimTime,
    ) -> Manifest {
        let logical = logical.into();
        let chunk = (chunk_size.max(1)) as usize;
        let mut blocks = Vec::new();
        let mut digest = 0;
        let mut offset = 0usize;
        while offset < content.len() {
            let end = (offset + chunk).min(content.len());
            let data = content.slice(offset..end);
            let key = BlockKey::of(&data);
            self.put_block(key, data, now);
            digest = crc32_combine(digest, key.crc, key.len as u64);
            blocks.push(BlockRef {
                offset: offset as u64,
                key,
            });
            offset = end;
        }
        let manifest = Manifest {
            logical,
            total_len: content.len() as u64,
            digest,
            chunk_size: chunk_size.max(1),
            blocks,
        };
        self.put_manifest(&manifest, now);
        manifest
    }

    /// Store one block unless its address is already present. Returns
    /// whether the block was newly written.
    ///
    /// `key` must be the address of `data` (`BlockKey::of(&data)`): the
    /// block is stored with `key.crc` as its checksum, without reading
    /// `data` again. [`CasStore::ingest`] derives the key from the data,
    /// and the stripe receiver checks a frame's key against its payload
    /// before it stores the block.
    pub fn put_block(&self, key: BlockKey, data: Bytes, now: SimTime) -> bool {
        let path = key.path();
        if self.store.exists(&path) {
            self.counters.blocks_deduped.add(1);
            self.counters.bytes_deduped.add(key.len as u64);
            false
        } else {
            self.counters.blocks_written.add(1);
            self.counters.bytes_written.add(key.len as u64);
            self.store.put_with_crc(path, data, key.crc, now);
            true
        }
    }

    /// Whether a block is present.
    pub fn has_block(&self, key: &BlockKey) -> bool {
        self.store.exists(&key.path())
    }

    /// Read one block, verifying it still matches its address.
    pub fn get_block(&self, key: &BlockKey) -> Result<Bytes, CasError> {
        let file = self
            .store
            .get(&key.path())
            .ok_or(CasError::CorruptBlock { key: *key })?;
        if file.checksum != key.crc || file.content.len() as u32 != key.len {
            return Err(CasError::CorruptBlock { key: *key });
        }
        Ok(file.content)
    }

    /// Record (or replace) a manifest object.
    pub fn put_manifest(&self, manifest: &Manifest, now: SimTime) {
        self.counters.manifests.add(1);
        self.store.put(manifest.path(), manifest.encode(), now);
    }

    /// Look up the manifest for a logical name.
    pub fn manifest(&self, logical: &str) -> Option<Manifest> {
        let file = self.store.get(&manifest_path(logical))?;
        Manifest::decode(&file.content)
    }

    /// Logical names of every stored manifest, sorted.
    pub fn manifests(&self) -> Vec<String> {
        let prefix = "/cas/manifests";
        self.store
            .list(prefix)
            .into_iter()
            .map(|p| p[prefix.len()..].to_string())
            .collect()
    }

    /// The byte ranges of `manifest` covered by blocks already present
    /// locally — the receiver's opening restart marker. A fresh site
    /// returns an empty marker; a site that already archived an identical
    /// capture covers everything and the transfer sends nothing.
    pub fn coverage(&self, manifest: &Manifest) -> RestartMarker {
        let mut marker = RestartMarker::default();
        for b in &manifest.blocks {
            if self.has_block(&b.key) {
                let (s, e) = b.range();
                marker.add(s, e);
            }
        }
        marker
    }

    /// Check, without reading a byte, that this store can serve `manifest`
    /// whole: its blocks tile `[0, total_len)` in order, the store holds
    /// each one, and their CRCs fold to the manifest's digest. A manifest a
    /// peer supplies passes only if stored blocks back every byte it
    /// claims, so its `total_len` bounds nothing the store does not hold.
    pub fn check(&self, manifest: &Manifest) -> Result<(), CasError> {
        let logical = || manifest.logical.clone();
        let (mut end, mut digest) = (0u64, 0u32);
        for b in &manifest.blocks {
            if b.offset != end {
                return Err(CasError::NotTiled { logical: logical() });
            }
            if !self.has_block(&b.key) {
                let (key, logical) = (b.key, logical());
                return Err(CasError::MissingBlock { key, logical });
            }
            end += b.key.len as u64;
            digest = crc32_combine(digest, b.key.crc, b.key.len as u64);
        }
        if end != manifest.total_len {
            return Err(CasError::NotTiled { logical: logical() });
        }
        if digest != manifest.digest {
            let expected = manifest.digest;
            return Err(CasError::DigestMismatch {
                actual: digest,
                expected,
            });
        }
        Ok(())
    }

    /// Read `len` bytes of a manifest's content from `offset`, clamped to
    /// the file's end: an offset at or past `total_len` reads nothing.
    ///
    /// Only the blocks that overlap the range are read, and each is checked
    /// against its content address as in [`CasStore::assemble`], so a
    /// missing or corrupt block inside the range fails the read while one
    /// outside it does not. The whole-file digest is not checked: a reader
    /// that assembles a file range by range checks it against
    /// [`Manifest::digest`] once it holds every byte.
    pub fn read_range(
        &self,
        manifest: &Manifest,
        offset: u64,
        len: u64,
    ) -> Result<Vec<u8>, CasError> {
        let start = offset.min(manifest.total_len);
        let end = start.saturating_add(len).min(manifest.total_len);
        let mut out = vec![0u8; (end - start) as usize];
        for b in &manifest.blocks {
            let (s, e) = b.range();
            if e <= start || s >= end {
                continue;
            }
            let data = match self.get_block(&b.key) {
                Err(CasError::CorruptBlock { key }) if !self.has_block(&key) => {
                    return Err(CasError::MissingBlock {
                        key,
                        logical: manifest.logical.clone(),
                    })
                }
                read => read?,
            };
            let (from, to) = (s.max(start), e.min(end));
            out[(from - start) as usize..(to - start) as usize]
                .copy_from_slice(&data[(from - s) as usize..(to - s) as usize]);
        }
        Ok(out)
    }

    /// Reassemble a manifest's content from local blocks, verifying every
    /// block address and the whole-file digest.
    pub fn assemble(&self, manifest: &Manifest) -> Result<Bytes, CasError> {
        let out = self.read_range(manifest, 0, manifest.total_len)?;
        let actual = crc32(&out);
        if actual != manifest.digest {
            return Err(CasError::DigestMismatch {
                actual,
                expected: manifest.digest,
            });
        }
        Ok(Bytes::from(out))
    }

    /// Fetch a manifest by name and reassemble it.
    pub fn read(&self, logical: &str) -> Result<Bytes, CasError> {
        let manifest = self
            .manifest(logical)
            .ok_or_else(|| CasError::UnknownManifest(logical.to_string()))?;
        self.assemble(&manifest)
    }

    /// Ingest/dedup totals so far.
    pub fn stats(&self) -> CasStats {
        let c = &self.counters;
        CasStats {
            blocks_written: c.blocks_written.get(),
            blocks_deduped: c.blocks_deduped.get(),
            bytes_written: c.bytes_written.get(),
            bytes_deduped: c.bytes_deduped.get(),
            manifests: c.manifests.get(),
        }
    }

    /// A CRC-32 digest over the entire store state (sorted path +
    /// checksum + length per entry) — the determinism oracle for
    /// same-seed double runs.
    pub fn store_digest(&self) -> u32 {
        let mut acc = String::new();
        for path in self.store.list("/cas/") {
            if let Some(f) = self.store.get(&path) {
                acc.push_str(&path);
                acc.push(':');
                acc.push_str(&format!("{:08x}:{:x}\n", f.checksum, f.content.len()));
            }
        }
        crc32(acc.as_bytes())
    }
}

/// Generated manifests and hostile inputs for the archive's decoder tests.
#[cfg(test)]
pub(crate) mod fuzz {
    use super::{BlockKey, BlockRef, Manifest};

    /// Deterministic source for generated inputs (xorshift64*).
    pub(crate) struct Gen(pub u64);

    impl Gen {
        pub(crate) fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        pub(crate) fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        pub(crate) fn text(&mut self) -> String {
            const CHARS: [char; 9] = ['/', 'r', '-', '.', '"', '\\', '\u{1}', 'é', '😀'];
            (0..self.below(16))
                .map(|_| CHARS[self.below(CHARS.len())])
                .collect()
        }

        pub(crate) fn manifest(&mut self) -> Manifest {
            Manifest {
                logical: self.text(),
                total_len: self.next(),
                digest: self.next() as u32,
                chunk_size: self.next() as u32,
                blocks: (0..self.below(5))
                    .map(|_| BlockRef {
                        offset: self.next(),
                        key: BlockKey {
                            crc: self.next() as u32,
                            len: self.next() as u32,
                        },
                    })
                    .collect(),
            }
        }

        /// Random bytes, or JSON-token soup that steers a parser into
        /// every branch.
        pub(crate) fn garbage(&mut self) -> Vec<u8> {
            const TOKENS: [&str; 22] = [
                "{",
                "}",
                "[",
                "]",
                ",",
                ":",
                "\"",
                "\\u",
                "null",
                "true",
                "-",
                "1e999",
                "0",
                "4294967296",
                "\"logical\"",
                "\"blocks\"",
                "\"Offer\"",
                "\"marker\"",
                "\"ranges\"",
                "\"key\"",
                " ",
                "é",
            ];
            if self.next() & 1 == 0 {
                (0..self.below(256)).map(|_| self.next() as u8).collect()
            } else {
                (0..self.below(64))
                    .map(|_| TOKENS[self.below(TOKENS.len())])
                    .collect::<String>()
                    .into_bytes()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(n: usize) -> Bytes {
        // Multiplicative mixing so 1 KiB-aligned chunks are all distinct
        // (a linear byte pattern repeats every 256 bytes and would make
        // every chunk dedupe to one block).
        Bytes::from(
            (0..n)
                .map(|i| ((i as u32).wrapping_mul(2_654_435_761) >> 24) as u8)
                .collect::<Vec<u8>>(),
        )
    }

    #[test]
    fn ingest_read_roundtrip() {
        let cas = CasStore::new(VirtualStore::new());
        let content = payload(10_000);
        let m = cas.ingest("/runs/a", &content, 1024, SimTime::ZERO);
        assert_eq!(m.blocks.len(), 10);
        assert_eq!(m.total_len, 10_000);
        assert_eq!(cas.read("/runs/a").unwrap(), content);
    }

    #[test]
    fn identical_content_dedupes_fully() {
        let cas = CasStore::new(VirtualStore::new());
        let content = payload(8_192);
        cas.ingest("/runs/a", &content, 1024, SimTime::ZERO);
        let before = cas.stats();
        assert_eq!(before.blocks_written, 8);
        assert_eq!(before.blocks_deduped, 0);
        cas.ingest("/runs/b", &content, 1024, SimTime::ZERO);
        let after = cas.stats();
        assert_eq!(after.blocks_written, 8, "second ingest writes no blocks");
        assert_eq!(after.blocks_deduped, 8);
        assert_eq!(after.bytes_deduped, 8_192);
        assert_eq!(cas.read("/runs/b").unwrap(), content);
    }

    #[test]
    fn partial_overlap_dedupes_shared_prefix() {
        let cas = CasStore::new(VirtualStore::new());
        let a = payload(4_096);
        let mut b_bytes = a.to_vec();
        b_bytes.extend_from_slice(&[0xEE; 1_024]);
        let b = Bytes::from(b_bytes);
        cas.ingest("/a", &a, 1024, SimTime::ZERO);
        cas.ingest("/b", &b, 1024, SimTime::ZERO);
        let s = cas.stats();
        assert_eq!(s.blocks_deduped, 4, "the shared 4 KiB prefix dedupes");
        assert_eq!(cas.read("/b").unwrap(), b);
    }

    #[test]
    fn coverage_reports_present_ranges() {
        let cas = CasStore::new(VirtualStore::new());
        let content = payload(4_096);
        let m = cas.ingest("/a", &content, 1024, SimTime::ZERO);
        let fresh = CasStore::new(VirtualStore::new());
        assert!(fresh.coverage(&m).ranges.is_empty());
        // Copy just the second block across.
        let key = m.blocks[1].key;
        fresh.put_block(key, cas.get_block(&key).unwrap(), SimTime::ZERO);
        assert_eq!(fresh.coverage(&m).ranges, vec![(1024, 2048)]);
        assert_eq!(cas.coverage(&m).ranges, vec![(0, 4096)]);
    }

    #[test]
    fn missing_block_is_reported() {
        let cas = CasStore::new(VirtualStore::new());
        let m = cas.ingest("/a", &payload(2_048), 1024, SimTime::ZERO);
        cas.backing().delete(&m.blocks[1].key.path());
        assert!(matches!(cas.read("/a"), Err(CasError::MissingBlock { .. })));
    }

    #[test]
    fn check_refuses_a_manifest_the_stored_blocks_do_not_back() {
        let cas = CasStore::new(VirtualStore::new());
        let m = cas.ingest("/a", &payload(3_000), 1024, SimTime::ZERO);
        assert_eq!(cas.check(&m), Ok(()));
        let incomplete = CasStore::new(VirtualStore::new());
        let first = m.blocks[0].key;
        incomplete.put_block(first, cas.get_block(&first).unwrap(), SimTime::ZERO);
        assert!(matches!(
            incomplete.check(&m),
            Err(CasError::MissingBlock { key, .. }) if key == m.blocks[1].key
        ));
        let wrong_digest = Manifest {
            digest: m.digest ^ 1,
            ..m.clone()
        };
        assert!(matches!(
            cas.check(&wrong_digest),
            Err(CasError::DigestMismatch { .. })
        ));
        let not_tiled = CasError::NotTiled {
            logical: "/a".to_string(),
        };
        let claims_more = Manifest {
            total_len: u64::MAX,
            ..m.clone()
        };
        assert_eq!(cas.check(&claims_more), Err(not_tiled.clone()));
        let mut swapped = m.clone();
        swapped.blocks.swap(0, 1);
        assert_eq!(cas.check(&swapped), Err(not_tiled));
    }

    #[test]
    fn corrupt_block_is_reported() {
        let cas = CasStore::new(VirtualStore::new());
        let m = cas.ingest("/a", &payload(2_048), 1024, SimTime::ZERO);
        let path = m.blocks[0].key.path();
        cas.backing()
            .put(path, Bytes::from_static(b"junk"), SimTime::ZERO);
        assert!(matches!(cas.read("/a"), Err(CasError::CorruptBlock { .. })));
    }

    #[test]
    fn read_range_equals_the_slice_of_read() {
        use rand::rngs::StdRng;
        use rand::{Rng, RngCore, SeedableRng};
        let mut rng = StdRng::seed_from_u64(15);
        for _ in 0..256 {
            let cas = CasStore::new(VirtualStore::new());
            let len = rng.gen_range(0..5_000usize);
            let content: Bytes = (0..len).map(|_| rng.next_u64() as u8).collect();
            let m = cas.ingest("/f", &content, rng.gen_range(1..1_500u32), SimTime::ZERO);
            let whole = cas.read("/f").unwrap();
            // Offsets and lengths run past the end of the file.
            let offset = rng.gen_range(0..len as u64 + 100);
            let want = rng.gen_range(0..len as u64 + 100);
            let start = (offset as usize).min(len);
            let end = (start + want as usize).min(len);
            assert_eq!(
                cas.read_range(&m, offset, want).unwrap(),
                &whole[start..end]
            );
            assert_eq!(
                cas.read_range(&m, offset, u64::MAX).unwrap(),
                &whole[start..]
            );
            assert!(cas.read_range(&m, u64::MAX, u64::MAX).unwrap().is_empty());
        }
    }

    #[test]
    fn digests_and_block_checksums_are_the_crcs_of_the_bytes() {
        use rand::rngs::StdRng;
        use rand::{RngCore, SeedableRng};
        let mut rng = StdRng::seed_from_u64(25);
        for chunk in [1u32, 2, 7, 8, 9, 63, 64, 65, 1_000, 4_096, 65_535, 65_536] {
            let c = chunk as usize;
            for len in [0, 1, c - 1, c, c + 1, 3 * c + c / 2 + 1] {
                let content: Bytes = (0..len).map(|_| rng.next_u64() as u8).collect();
                let cas = CasStore::new(VirtualStore::new());
                let fresh = cas.ingest("/fresh", &content, chunk, SimTime::ZERO);
                let written = cas.stats().blocks_written;
                let dup = cas.ingest("/dup", &content, chunk, SimTime::ZERO);
                assert_eq!(
                    cas.stats().blocks_written,
                    written,
                    "the second ingest of {len} bytes in {chunk}-byte chunks is deduplicated"
                );
                for m in [&fresh, &dup] {
                    assert_eq!(m.digest, crc32(&content), "{len} bytes, chunk {chunk}");
                    for b in &m.blocks {
                        let (s, e) = b.range();
                        let stored = cas.backing().get(&b.key.path()).unwrap();
                        assert_eq!(stored.content, content.slice(s as usize..e as usize));
                    }
                }
                for path in cas.backing().list("/cas/blocks/") {
                    let stored = cas.backing().get(&path).unwrap();
                    assert_eq!(stored.checksum, crc32(&stored.content), "{path}");
                }
                assert_eq!(cas.read("/dup").unwrap(), content);
            }
        }
    }

    #[test]
    fn read_range_checks_only_the_blocks_it_covers() {
        let cas = CasStore::new(VirtualStore::new());
        let content = payload(4_096);
        let m = cas.ingest("/a", &content, 1024, SimTime::ZERO);
        let bad = m.blocks[2].key;
        cas.backing()
            .put(bad.path(), Bytes::from_static(b"junk"), SimTime::ZERO);
        assert_eq!(
            cas.read_range(&m, 2_000, 100),
            Err(CasError::CorruptBlock { key: bad }),
            "[2000, 2100) touches block 2"
        );
        assert_eq!(cas.read_range(&m, 0, 2_048).unwrap(), &content[..2_048]);
        assert_eq!(cas.read_range(&m, 3_072, 1_024).unwrap(), &content[3_072..]);
        cas.backing().delete(&m.blocks[0].key.path());
        assert!(matches!(
            cas.read_range(&m, 10, 10),
            Err(CasError::MissingBlock { .. })
        ));
        assert_eq!(cas.read_range(&m, 3_072, 1_024).unwrap(), &content[3_072..]);
    }

    #[test]
    fn manifest_encoding_roundtrips() {
        let cas = CasStore::new(VirtualStore::new());
        let m = cas.ingest("/runs/r/capture", &payload(3_000), 512, SimTime::ZERO);
        let back = Manifest::decode(&m.encode()).unwrap();
        assert_eq!(back, m);
        assert_eq!(cas.manifests(), vec!["/runs/r/capture"]);
    }

    #[test]
    fn store_digest_is_deterministic_and_content_sensitive() {
        let a = CasStore::new(VirtualStore::new());
        let b = CasStore::new(VirtualStore::new());
        a.ingest("/x", &payload(5_000), 512, SimTime::ZERO);
        b.ingest("/x", &payload(5_000), 512, SimTime::ZERO);
        assert_eq!(a.store_digest(), b.store_digest());
        b.ingest("/y", &payload(100), 512, SimTime::ZERO);
        assert_ne!(a.store_digest(), b.store_digest());
    }

    #[test]
    fn empty_file_ingest() {
        let cas = CasStore::new(VirtualStore::new());
        let m = cas.ingest("/empty", &Bytes::new(), 1024, SimTime::ZERO);
        assert!(m.blocks.is_empty());
        assert_eq!(cas.read("/empty").unwrap(), Bytes::new());
    }

    #[test]
    fn manifests_round_trip_and_garbage_never_panics() {
        let mut g = fuzz::Gen(0x5EED_CA5E);
        for _ in 0..300 {
            let m = g.manifest();
            let bytes = m.encode();
            assert_eq!(Manifest::decode(&bytes), Some(m));
            for cut in 0..bytes.len() {
                assert_eq!(Manifest::decode(&bytes[..cut]), None);
            }
            let _ = Manifest::decode(&g.garbage());
        }
    }
}

//! Repository backing store.
//!
//! A thread-safe, in-memory hierarchical store standing in for the
//! repository host's filesystem. Every write records size, CRC-32, and
//! deposit time, so transfers can be verified end-to-end.

use std::collections::BTreeMap;
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::RwLock;

use neesgrid_gridsim::SimTime;

use crate::checksum::crc32;

/// Metadata + content of one stored file.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredFile {
    /// Repository path (e.g. `/experiments/most/run1/uiuc-lvdt-000001.csv`).
    pub path: String,
    /// File content.
    pub content: Bytes,
    /// Content CRC-32.
    pub checksum: u32,
    /// Time of the (most recent) write.
    pub stored_at: SimTime,
}

/// A shared virtual file store.
#[derive(Debug, Clone, Default)]
pub struct VirtualStore {
    files: Arc<RwLock<BTreeMap<String, StoredFile>>>,
}

impl VirtualStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Write (or overwrite) a file, returning its checksum.
    pub fn put(&self, path: impl Into<String>, content: Bytes, now: SimTime) -> u32 {
        let checksum = crc32(&content);
        self.put_with_crc(path, content, checksum, now);
        checksum
    }

    /// Write (or overwrite) a file whose CRC-32 the caller already holds,
    /// without reading the content again. The caller must have computed
    /// `checksum` from these very bytes (or checked it against them):
    /// the store records it as given, and every later reader trusts it.
    pub fn put_with_crc(
        &self,
        path: impl Into<String>,
        content: Bytes,
        checksum: u32,
        now: SimTime,
    ) {
        let path = path.into();
        self.files.write().insert(
            path.clone(),
            StoredFile {
                path,
                content,
                checksum,
                stored_at: now,
            },
        );
    }

    /// Read a file.
    pub fn get(&self, path: &str) -> Option<StoredFile> {
        self.files.read().get(path).cloned()
    }

    /// Whether a path exists.
    pub fn exists(&self, path: &str) -> bool {
        self.files.read().contains_key(path)
    }

    /// Delete a file; returns whether it existed.
    pub fn delete(&self, path: &str) -> bool {
        self.files.write().remove(path).is_some()
    }

    /// Paths under a prefix, sorted.
    pub fn list(&self, prefix: &str) -> Vec<String> {
        self.files
            .read()
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, _)| k.clone())
            .collect()
    }

    /// Number of stored files.
    pub fn len(&self) -> usize {
        self.files.read().len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.files.read().is_empty()
    }

    /// Total stored bytes.
    pub fn total_bytes(&self) -> u64 {
        self.files
            .read()
            .values()
            .map(|f| f.content.len() as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip() {
        let store = VirtualStore::new();
        let sum = store.put(
            "/a/b.csv",
            Bytes::from_static(b"data"),
            SimTime::from_secs(1),
        );
        let f = store.get("/a/b.csv").unwrap();
        assert_eq!(&f.content[..], b"data");
        assert_eq!(f.checksum, sum);
        assert_eq!(f.stored_at, SimTime::from_secs(1));
        assert!(store.exists("/a/b.csv"));
        assert!(!store.exists("/a/c.csv"));
    }

    #[test]
    fn overwrite_replaces_content() {
        let store = VirtualStore::new();
        store.put("/x", Bytes::from_static(b"one"), SimTime::ZERO);
        store.put("/x", Bytes::from_static(b"two"), SimTime::from_secs(2));
        let f = store.get("/x").unwrap();
        assert_eq!(&f.content[..], b"two");
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn list_by_prefix_sorted() {
        let store = VirtualStore::new();
        for p in ["/m/2", "/m/1", "/other/x", "/m/3"] {
            store.put(p, Bytes::new(), SimTime::ZERO);
        }
        assert_eq!(store.list("/m/"), vec!["/m/1", "/m/2", "/m/3"]);
        assert_eq!(store.list("/nope/").len(), 0);
    }

    #[test]
    fn delete_and_totals() {
        let store = VirtualStore::new();
        store.put("/a", Bytes::from_static(b"12345"), SimTime::ZERO);
        store.put("/b", Bytes::from_static(b"123"), SimTime::ZERO);
        assert_eq!(store.total_bytes(), 8);
        assert!(store.delete("/a"));
        assert!(!store.delete("/a"));
        assert_eq!(store.total_bytes(), 3);
    }

    #[test]
    fn clones_share_state() {
        let store = VirtualStore::new();
        let clone = store.clone();
        clone.put("/shared", Bytes::new(), SimTime::ZERO);
        assert!(store.exists("/shared"));
    }
}

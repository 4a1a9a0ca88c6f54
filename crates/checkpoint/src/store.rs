//! Where snapshots live.
//!
//! Both backends persist the *encoded* form (header + CRC + JSON), so
//! every load path — including the in-memory one tests use — exercises
//! the same checksum verification a real restore would.

use std::collections::BTreeMap;
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;

use neesgrid_gridsim::SimClock;
use neesgrid_repo::VirtualStore;

use crate::snapshot::{decode, CheckpointError, Snapshot};

/// A place snapshots are saved to and resumed from.
pub trait CheckpointStore: Send + Sync {
    /// Persist an encoded snapshot (see [`crate::snapshot::encode`]) of
    /// `run_id` at `step`; overwrites.
    fn put(&self, run_id: &str, step: u64, encoded: Vec<u8>) -> Result<(), CheckpointError>;

    /// Load and verify the snapshot for `run_id` at `step`.
    fn load(&self, run_id: &str, step: u64) -> Result<Snapshot, CheckpointError>;

    /// Steps with stored snapshots for `run_id`, ascending.
    fn list(&self, run_id: &str) -> Vec<u64>;

    /// Drop the snapshot at `step`; returns whether it existed.
    fn delete(&self, run_id: &str, step: u64) -> bool;

    /// Load and verify the most recent snapshot for `run_id`.
    fn load_latest(&self, run_id: &str) -> Result<Snapshot, CheckpointError> {
        match self.list(run_id).last() {
            Some(&step) => self.load(run_id, step),
            None => Err(CheckpointError::NotFound {
                run_id: run_id.to_string(),
                step: None,
            }),
        }
    }
}

/// Encoded snapshots keyed by (run id, step).
type EncodedEntries = BTreeMap<(String, u64), Vec<u8>>;

/// In-memory store; clones share contents.
#[derive(Debug, Clone, Default)]
pub struct MemoryCheckpointStore {
    entries: Arc<Mutex<EncodedEntries>>,
}

impl MemoryCheckpointStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl CheckpointStore for MemoryCheckpointStore {
    fn put(&self, run_id: &str, step: u64, encoded: Vec<u8>) -> Result<(), CheckpointError> {
        self.entries
            .lock()
            .insert((run_id.to_string(), step), encoded);
        Ok(())
    }

    fn load(&self, run_id: &str, step: u64) -> Result<Snapshot, CheckpointError> {
        let entries = self.entries.lock();
        let bytes =
            entries
                .get(&(run_id.to_string(), step))
                .ok_or_else(|| CheckpointError::NotFound {
                    run_id: run_id.to_string(),
                    step: Some(step),
                })?;
        decode(bytes)
    }

    fn list(&self, run_id: &str) -> Vec<u64> {
        self.entries
            .lock()
            .keys()
            .filter(|(r, _)| r == run_id)
            .map(|&(_, s)| s)
            .collect()
    }

    fn delete(&self, run_id: &str, step: u64) -> bool {
        self.entries
            .lock()
            .remove(&(run_id.to_string(), step))
            .is_some()
    }
}

/// Store persisting through the NEESgrid repository's backing store —
/// the same [`VirtualStore`] the experiment's data files ship to, under
/// `<prefix>/<run_id>/checkpoints/step-NNNNNN.ckpt`. Because
/// `VirtualStore` clones share state, checkpoints survive tearing down
/// and rebuilding the whole deployment (the crash-and-restart path).
#[derive(Clone)]
pub struct RepoCheckpointStore {
    store: VirtualStore,
    clock: Arc<SimClock>,
    prefix: String,
}

impl RepoCheckpointStore {
    /// Wrap a repository store; snapshots go under `prefix`.
    pub fn new(store: VirtualStore, clock: Arc<SimClock>, prefix: impl Into<String>) -> Self {
        let mut prefix = prefix.into();
        while prefix.ends_with('/') {
            prefix.pop();
        }
        RepoCheckpointStore {
            store,
            clock,
            prefix,
        }
    }

    fn dir(&self, run_id: &str) -> String {
        format!("{}/{run_id}/checkpoints/", self.prefix)
    }

    fn path(&self, run_id: &str, step: u64) -> String {
        format!("{}step-{step:06}.ckpt", self.dir(run_id))
    }
}

impl CheckpointStore for RepoCheckpointStore {
    fn put(&self, run_id: &str, step: u64, encoded: Vec<u8>) -> Result<(), CheckpointError> {
        self.store.put(
            self.path(run_id, step),
            Bytes::from(encoded),
            self.clock.now(),
        );
        Ok(())
    }

    fn load(&self, run_id: &str, step: u64) -> Result<Snapshot, CheckpointError> {
        let file =
            self.store
                .get(&self.path(run_id, step))
                .ok_or_else(|| CheckpointError::NotFound {
                    run_id: run_id.to_string(),
                    step: Some(step),
                })?;
        decode(&file.content)
    }

    fn list(&self, run_id: &str) -> Vec<u64> {
        let dir = self.dir(run_id);
        self.store
            .list(&dir)
            .into_iter()
            .filter_map(|p| {
                p.strip_prefix(&dir)?
                    .strip_prefix("step-")?
                    .strip_suffix(".ckpt")?
                    .parse()
                    .ok()
            })
            .collect()
    }

    fn delete(&self, run_id: &str, step: u64) -> bool {
        self.store.delete(&self.path(run_id, step))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{encode, sample};
    use neesgrid_gridsim::SimTime;

    fn save(store: &dyn CheckpointStore, snapshot: &Snapshot) {
        store
            .put(&snapshot.run_id, snapshot.step, encode(snapshot))
            .unwrap();
    }

    fn roundtrip(store: &dyn CheckpointStore) {
        assert!(matches!(
            store.load_latest("r"),
            Err(CheckpointError::NotFound { .. })
        ));
        for step in [100u64, 300, 200] {
            save(store, &sample("r", step));
        }
        save(store, &sample("other", 50));
        assert_eq!(store.list("r"), vec![100, 200, 300]);
        assert_eq!(store.load("r", 200).unwrap().step, 200);
        assert_eq!(store.load_latest("r").unwrap().step, 300);
        assert!(store.delete("r", 300));
        assert!(!store.delete("r", 300));
        assert_eq!(store.load_latest("r").unwrap().step, 200);
        assert!(matches!(
            store.load("r", 999),
            Err(CheckpointError::NotFound {
                step: Some(999),
                ..
            })
        ));
    }

    #[test]
    fn memory_store_roundtrip() {
        roundtrip(&MemoryCheckpointStore::new());
    }

    #[test]
    fn repo_store_roundtrip() {
        let store = RepoCheckpointStore::new(VirtualStore::new(), SimClock::new(), "/ckpt/");
        roundtrip(&store);
    }

    #[test]
    fn repo_store_survives_rebuild_and_rejects_corruption() {
        let backing = VirtualStore::new();
        let clock = SimClock::new();
        let store = RepoCheckpointStore::new(backing.clone(), Arc::clone(&clock), "/experiments");
        save(&store, &sample("most", 1400));

        // A "new deployment" wraps a clone of the same backing store.
        let store2 = RepoCheckpointStore::new(backing.clone(), clock, "/experiments");
        assert_eq!(store2.load_latest("most").unwrap().step, 1400);

        // Corrupt one payload byte at rest: the load must refuse it.
        let path = "/experiments/most/checkpoints/step-001400.ckpt";
        let mut bytes = backing.get(path).unwrap().content.to_vec();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        backing.put(path, Bytes::from(bytes), SimTime::from_secs(1));
        assert!(matches!(
            store2.load("most", 1400),
            Err(CheckpointError::ChecksumMismatch { .. })
        ));
    }
}

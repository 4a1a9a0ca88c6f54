//! The NEESgrid File Management Service (NFMS).
//!
//! §2.3: "NFMS provides two main capabilities: logical file naming and
//! transport neutrality. Applications negotiate file transfers with NFMS,
//! which resolves a transfer request for a logical file to a protocol
//! request for a physical resource. NFMS uses GridFTP to provide transport
//! and has a plug-in API that allows other transport protocols to be used
//! if desired."
//!
//! NFMS keeps no catalog of its own: a logical file is a manifest in the
//! repository store's CAS, and the physical resource it resolves to is
//! that manifest's blocks. The bytes arrive on the GridFTP data plane
//! ([`crate::stripe`]); a logical file exists once [`Nfms::commit`] names
//! blocks the store already holds, so an NFMS rebuilt over the same store
//! serves every file the old one committed.

use serde::{Deserialize, Serialize};

use neesgrid_gridsim::SimTime;

use crate::cas::{manifest_path, CasError, CasStore, Manifest};
use crate::storage::VirtualStore;

/// NFMS operation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NfmsError {
    /// Unknown logical name.
    NotFound(String),
    /// No transport both sides support.
    NoCommonTransport {
        /// Transports the service offers.
        offered: Vec<String>,
        /// Transports the client asked for.
        requested: Vec<String>,
    },
    /// Logical name already registered to other content.
    AlreadyExists(String),
    /// The store cannot serve the committed manifest whole.
    Incomplete(CasError),
}

impl std::fmt::Display for NfmsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NfmsError::NotFound(n) => write!(f, "logical file '{n}' not found"),
            NfmsError::NoCommonTransport { offered, requested } => write!(
                f,
                "no common transport (offered {offered:?}, requested {requested:?})"
            ),
            NfmsError::AlreadyExists(n) => write!(f, "logical file '{n}' already registered"),
            NfmsError::Incomplete(e) => write!(f, "upload incomplete: {e}"),
        }
    }
}

impl std::error::Error for NfmsError {}

/// The result of a transfer negotiation: where and how to move the bytes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransferTicket {
    /// The logical name.
    pub logical: String,
    /// Resolved physical resource: the manifest's path in the store.
    pub physical: String,
    /// Chosen transport protocol.
    pub protocol: String,
    /// File size, bytes.
    pub size: u64,
    /// Whole-file CRC-32.
    pub checksum: u32,
}

/// The file management service.
pub struct Nfms {
    cas: CasStore,
    /// Transports in preference order (plug-in API: push to extend).
    transports: Vec<String>,
}

impl Nfms {
    /// An NFMS over a store, offering GridFTP (preferred) and https.
    pub fn new(store: VirtualStore) -> Self {
        Nfms {
            cas: CasStore::new(store),
            transports: vec!["gridftp".to_string(), "https".to_string()],
        }
    }

    /// Register an additional transport plugin (lowest preference).
    pub fn register_transport(&mut self, name: impl Into<String>) {
        self.transports.push(name.into());
    }

    /// Offered transports, in preference order.
    pub fn transports(&self) -> &[String] {
        &self.transports
    }

    /// The store's content-addressed view: the catalog and the bytes.
    pub fn cas(&self) -> &CasStore {
        &self.cas
    }

    /// Name `manifest`'s blocks, which the store must already hold, as
    /// logical file `logical`. Committing the manifest a name already has
    /// again changes nothing, so a caller may retry a commit whose reply it
    /// lost; committing other content under a taken name is refused.
    pub fn commit(
        &self,
        logical: &str,
        manifest: Manifest,
        now: SimTime,
    ) -> Result<TransferTicket, NfmsError> {
        let manifest = Manifest {
            logical: logical.to_string(),
            ..manifest
        };
        match self.cas.manifest(logical) {
            Some(held) if held == manifest => {}
            Some(_) => return Err(NfmsError::AlreadyExists(logical.to_string())),
            None => {
                self.cas.check(&manifest).map_err(NfmsError::Incomplete)?;
                self.cas.put_manifest(&manifest, now);
            }
        }
        Ok(self.ticket(&manifest, &self.transports[0]))
    }

    /// The manifest logical file `logical` names.
    pub fn manifest(&self, logical: &str) -> Result<Manifest, NfmsError> {
        self.cas
            .manifest(logical)
            .ok_or_else(|| NfmsError::NotFound(logical.to_string()))
    }

    /// Negotiate a download: pick the first offered transport the client
    /// also supports, and resolve the logical name.
    pub fn negotiate(
        &self,
        logical: &str,
        client_protocols: &[&str],
    ) -> Result<TransferTicket, NfmsError> {
        let manifest = self.manifest(logical)?;
        let protocol = self
            .transports
            .iter()
            .find(|t| client_protocols.contains(&t.as_str()))
            .ok_or_else(|| NfmsError::NoCommonTransport {
                offered: self.transports.clone(),
                requested: client_protocols.iter().map(|s| s.to_string()).collect(),
            })?;
        Ok(self.ticket(&manifest, protocol))
    }

    fn ticket(&self, manifest: &Manifest, protocol: &str) -> TransferTicket {
        TransferTicket {
            logical: manifest.logical.clone(),
            physical: manifest_path(&manifest.logical),
            protocol: protocol.to_string(),
            size: manifest.total_len,
            checksum: manifest.digest,
        }
    }

    /// Logical names under a prefix, sorted.
    pub fn list(&self, prefix: &str) -> Vec<String> {
        let mut names = self.cas.manifests();
        names.retain(|name| name.starts_with(prefix));
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    /// An NFMS holding `files`, each ingested straight into its store.
    fn nfms(files: &[(&str, &[u8])]) -> Nfms {
        let n = Nfms::new(VirtualStore::new());
        for (logical, content) in files {
            let content = Bytes::from(content.to_vec());
            n.cas().ingest(*logical, &content, 1024, SimTime::ZERO);
        }
        n
    }

    #[test]
    fn commit_names_held_blocks_and_a_rebuilt_nfms_serves_them() {
        let store = VirtualStore::new();
        // The blocks land under no name, as a stripe push leaves them.
        let landed = CasStore::new(VirtualStore::new());
        let m = landed.ingest("/sender", &Bytes::from_static(b"data"), 2, SimTime::ZERO);
        let n = Nfms::new(store.clone());
        for b in &m.blocks {
            n.cas()
                .put_block(b.key, landed.get_block(&b.key).unwrap(), SimTime::ZERO);
        }
        assert!(n.list("/").is_empty(), "blocks alone name no file");
        let ticket = n.commit("/most/run1/a.csv", m, SimTime::ZERO).unwrap();
        assert_eq!((ticket.size, ticket.protocol.as_str()), (4, "gridftp"));
        let rebuilt = Nfms::new(store);
        assert_eq!(rebuilt.list("/most/"), vec!["/most/run1/a.csv"]);
        let again = rebuilt.negotiate("/most/run1/a.csv", &["gridftp"]).unwrap();
        assert_eq!(again.checksum, ticket.checksum);
        assert_eq!(
            &rebuilt.cas().read("/most/run1/a.csv").unwrap()[..],
            b"data"
        );
    }

    #[test]
    fn commit_refuses_blocks_the_store_lacks_and_other_content_under_a_taken_name() {
        let n = nfms(&[("/f", b"first")]);
        let held = n.manifest("/f").unwrap();
        let elsewhere = CasStore::new(VirtualStore::new());
        let other = elsewhere.ingest("/g", &Bytes::from_static(b"other"), 1024, SimTime::ZERO);
        assert!(matches!(
            n.commit("/g", other.clone(), SimTime::ZERO),
            Err(NfmsError::Incomplete(CasError::MissingBlock { .. }))
        ));
        assert!(n.list("/g").is_empty());
        // A retried commit of what the name holds is a no-op ...
        assert_eq!(n.commit("/f", held, SimTime::ZERO).unwrap().size, 5);
        // ... other content under it is refused.
        assert_eq!(
            n.commit("/f", other, SimTime::ZERO).unwrap_err(),
            NfmsError::AlreadyExists("/f".to_string())
        );
    }

    #[test]
    fn transport_preference_order() {
        let n = nfms(&[("/f", b"")]);
        // Client supports both → service preference (gridftp) wins.
        let t = n.negotiate("/f", &["https", "gridftp"]).unwrap();
        assert_eq!(t.protocol, "gridftp");
        // https-only client gets https.
        let t = n.negotiate("/f", &["https"]).unwrap();
        assert_eq!(t.protocol, "https");
    }

    #[test]
    fn no_common_transport_is_an_error() {
        let n = nfms(&[("/f", b"")]);
        let err = n.negotiate("/f", &["carrier-pigeon"]).unwrap_err();
        assert!(matches!(err, NfmsError::NoCommonTransport { .. }));
    }

    #[test]
    fn transport_plugin_api() {
        let mut n = nfms(&[("/f", b"")]);
        n.register_transport("scp");
        let t = n.negotiate("/f", &["scp"]).unwrap();
        assert_eq!(t.protocol, "scp");
        assert_eq!(n.transports().len(), 3);
    }

    #[test]
    fn unknown_logical_name() {
        let n = nfms(&[]);
        assert!(matches!(
            n.negotiate("/ghost", &["gridftp"]).unwrap_err(),
            NfmsError::NotFound(_)
        ));
    }

    #[test]
    fn list_by_prefix() {
        let n = nfms(&[("/most/a", b""), ("/most/b", b""), ("/other/c", b"")]);
        assert_eq!(n.list("/most/"), vec!["/most/a", "/most/b"]);
        assert_eq!(n.list("/").len(), 3);
    }
}

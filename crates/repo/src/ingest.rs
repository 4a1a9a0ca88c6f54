//! The ingestion tool.
//!
//! §2.3: "We have also developed an ingestion tool to upload data and
//! metadata to the repository as an experiment is run; researchers can
//! later download this data for analysis or visualization." The
//! [`Ingester`] is the repository's one upload client. It ships each file
//! (in MOST, the windows the LabVIEW DAQ deposited in the drop directory)
//! on GridFTP, the stack's one data plane: it chunks the file into its own
//! stripe site's store, pushes the blocks to the repository's stripe
//! receiver and waits until every block has landed, then names the file
//! with an NFMS `commitUpload` under its GSI session. It records metadata
//! objects in NMDS the same way — incrementally, while the experiment
//! continues.

use bytes::Bytes;
use serde_json::{json, Value};

use neesgrid_ogsi::{RpcClient, RpcError};

use crate::stripe::{ArchiveSite, TransferStatus};

/// Why an upload failed.
#[derive(Debug, Clone, PartialEq)]
pub enum IngestError {
    /// The push ended without every block landing: its final status, or
    /// the last one seen if the engine ran dry first.
    Transfer(TransferStatus),
    /// The commit (or another repository call) failed.
    Rpc(RpcError),
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::Transfer(status) => write!(f, "push ended {status:?}"),
            IngestError::Rpc(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for IngestError {}

/// NFMS/NMDS client archiving one experiment's data and metadata.
#[derive(Clone)]
pub struct Ingester {
    /// Logical-name prefix for this experiment, e.g. `/experiments/most`.
    pub experiment_prefix: String,
    site: ArchiveSite,
    receiver: String,
    nfms: RpcClient,
    nmds: RpcClient,
}

impl Ingester {
    /// An ingester archiving under `experiment_prefix`. It ships file bytes
    /// from `site` to the repository's stripe site `receiver`, and reaches
    /// the repository's `nfms` and `nmds` services through the clients.
    pub fn new(
        experiment_prefix: impl Into<String>,
        site: ArchiveSite,
        receiver: impl Into<String>,
        nfms: RpcClient,
        nmds: RpcClient,
    ) -> Self {
        Ingester {
            experiment_prefix: experiment_prefix.into(),
            site,
            receiver: receiver.into(),
            nfms,
            nmds,
        }
    }

    /// The logical file data file `name` is archived as:
    /// `{prefix}/data/{name}`.
    pub fn data_name(&self, name: &str) -> String {
        format!("{}/data/{name}", self.experiment_prefix)
    }

    /// The metadata object describing data file `name`:
    /// `{prefix}/records/{name}`.
    pub fn record_name(&self, name: &str) -> String {
        format!("{}/records/{name}", self.experiment_prefix)
    }

    /// Upload `content` as logical file `logical`: stage it in the
    /// ingester's site, push its blocks to the repository's stripe
    /// receiver, pumping the engine until the push ends, then commit the
    /// manifest to NFMS. A push skips the blocks the repository already
    /// holds, so retrying a failed upload resends only what never landed.
    /// Returns the bytes archived.
    pub fn upload(&self, logical: &str, content: &Bytes) -> Result<u64, IngestError> {
        let now = self.nfms.mux().engine().clock().now();
        let manifest = self.site.ingest_local(logical, content, now);
        let pushed = self.site.push(&self.receiver, manifest.clone());
        // The staging copy has served its push; a retry stages it again.
        let staged = self.site.cas().backing();
        for b in &manifest.blocks {
            staged.delete(&b.key.path());
        }
        staged.delete(&manifest.path());
        if !matches!(pushed, TransferStatus::Completed(_)) {
            return Err(IngestError::Transfer(pushed));
        }
        let commit = json!({"logical": logical, "manifest": manifest});
        self.nfms
            .call("commitUpload", commit)
            .map_err(IngestError::Rpc)?;
        Ok(content.len() as u64)
    }

    /// Create metadata object `id` with `body`, validated against schema
    /// object `schema` when one is named.
    pub fn record(&self, id: &str, schema: Option<&str>, body: Value) -> Result<(), RpcError> {
        let request = match schema {
            Some(schema) => json!({"id": id, "schema_id": schema, "body": body}),
            None => json!({"id": id, "body": body}),
        };
        self.nmds.call_value("create", request).map(drop)
    }

    /// Register metadata schema `id`.
    pub fn create_schema(&self, id: &str, schema: Value) -> Result<(), RpcError> {
        self.nmds
            .call_value("createSchema", json!({"id": id, "schema": schema}))
            .map(drop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nfms::Nfms;
    use crate::nmds::Nmds;
    use crate::service::{NfmsService, NmdsService};
    use crate::storage::VirtualStore;
    use crate::stripe::StripeConfig;
    use neesgrid_gridsim::{NetworkConfig, NodeId, VirtualNetwork};
    use neesgrid_gsi::DistinguishedName;
    use neesgrid_ogsi::{RpcMux, ServiceContainer};
    use neesgrid_telemetry::Telemetry;

    /// A repository node on `net` over `store` (services and stripe
    /// receiver), and an ingester for it.
    fn ingester(net: &VirtualNetwork, store: &VirtualStore) -> Ingester {
        let _ = ServiceContainer::new(net.endpoint("repository").unwrap())
            .with_service("nfms", Box::new(NfmsService::new(Nfms::new(store.clone()))))
            .with_service("nmds", Box::new(NmdsService::new(Nmds::new())))
            .permissive()
            .attach();
        let attach = |node, store: VirtualStore| {
            let config = StripeConfig::default();
            ArchiveSite::attach(net, node, store, config, &Telemetry::disabled()).unwrap()
        };
        attach("repository-gridftp", store.clone());
        let site = attach("ingester-gridftp", VirtualStore::new());
        let mux = RpcMux::new(net.endpoint("ingester").unwrap());
        let dn = DistinguishedName::nees_user("NCSA", "Ingester");
        let client =
            |service| RpcClient::new(mux.clone(), NodeId::new("repository"), service, dn.clone());
        Ingester::new(
            "/experiments/most",
            site,
            "repository-gridftp",
            client("nfms"),
            client("nmds"),
        )
    }

    #[test]
    fn upload_archives_the_bytes_and_records_describe_them() {
        let net = VirtualNetwork::new(NetworkConfig::default());
        let store = VirtualStore::new();
        let ing = ingester(&net, &store);
        // Two blocks at the stripe engine's 64 KiB chunk size.
        let content: Bytes = (0..100_000).map(|i| (i % 251) as u8).collect();
        let logical = ing.data_name("uiuc-lvdt-000001.csv");
        assert_eq!(logical, "/experiments/most/data/uiuc-lvdt-000001.csv");
        assert_eq!(ing.upload(&logical, &content).unwrap(), 100_000);
        let nfms = Nfms::new(store);
        assert_eq!(nfms.list("/"), vec![logical.clone()]);
        assert_eq!(nfms.cas().read(&logical).unwrap(), content);

        ing.create_schema(
            "/schemas/window",
            json!({"fields": {"logical_file": "string"}, "allow_extra": true}),
        )
        .unwrap();
        let record = ing.record_name("uiuc-lvdt-000001.csv");
        ing.record(
            &record,
            Some("/schemas/window"),
            json!({"logical_file": logical}),
        )
        .unwrap();
        let err = ing
            .record("/x", Some("/schemas/window"), json!({"logical_file": 1}))
            .unwrap_err();
        assert!(matches!(err, RpcError::Fault(f) if f.code == "ValidationFailed"));
    }

    #[test]
    fn an_upload_whose_receiver_is_gone_fails_without_committing() {
        let net = VirtualNetwork::new(NetworkConfig::default());
        let store = VirtualStore::new();
        let ing = ingester(&net, &store);
        net.deregister(&NodeId::new("repository-gridftp"));
        let err = ing
            .upload("/experiments/most/data/f.csv", &Bytes::from_static(b"x"))
            .unwrap_err();
        assert!(matches!(
            err,
            IngestError::Transfer(TransferStatus::Failed(_))
        ));
        assert!(Nfms::new(store).list("/").is_empty());
    }
}

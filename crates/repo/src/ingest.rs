//! The ingestion tool.
//!
//! §2.3: "We have also developed an ingestion tool to upload data and
//! metadata to the repository as an experiment is run; researchers can
//! later download this data for analysis or visualization." The
//! [`Ingester`] is the repository's one upload client: it ships each file
//! (in MOST, the windows the LabVIEW DAQ deposited in the drop directory)
//! to the repository node's NFMS service as a negotiated, block-by-block
//! CRC-checked upload, and records metadata objects in its NMDS service —
//! incrementally, while the experiment continues.

use serde_json::{json, Value};

use neesgrid_ogsi::{RpcClient, RpcError};

use crate::checksum::{crc32, to_hex};

/// Streams an upload's blocks are dealt across, round-robin (the
/// `stream` field of each `uploadChunk`).
const UPLOAD_STREAMS: usize = 4;

/// NFMS/NMDS client archiving one experiment's data and metadata.
#[derive(Clone)]
pub struct Ingester {
    /// Logical-name prefix for this experiment, e.g. `/experiments/most`.
    pub experiment_prefix: String,
    nfms: RpcClient,
    nmds: RpcClient,
}

impl Ingester {
    /// An ingester archiving under `experiment_prefix` through clients of
    /// one repository node's `nfms` and `nmds` services.
    pub fn new(experiment_prefix: impl Into<String>, nfms: RpcClient, nmds: RpcClient) -> Self {
        Ingester {
            experiment_prefix: experiment_prefix.into(),
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

    /// Upload `content` as logical file `logical`: negotiate the transfer
    /// (size and whole-file CRC-32), send every block of the negotiated
    /// size with its own CRC-32, then commit. Returns the bytes shipped.
    pub fn upload(&self, logical: &str, content: &[u8]) -> Result<u64, RpcError> {
        let neg = self.nfms.call_value(
            "negotiateUpload",
            json!({"logical": logical, "size": content.len(), "checksum": crc32(content)}),
        )?;
        let tid = neg["transfer_id"].as_u64().unwrap_or(0);
        let chunk_size = neg["chunk_size"].as_u64().unwrap_or(8192) as usize;
        for (i, chunk) in content.chunks(chunk_size).enumerate() {
            self.nfms.call_value(
                "uploadChunk",
                json!({
                    "transfer_id": tid,
                    "offset": i * chunk_size,
                    "stream": i % UPLOAD_STREAMS,
                    "data": to_hex(chunk),
                    "checksum": crc32(chunk),
                }),
            )?;
        }
        self.nfms
            .call_value("commitUpload", json!({"transfer_id": tid}))?;
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
    use neesgrid_gridsim::{NetworkConfig, NodeId, VirtualNetwork};
    use neesgrid_gsi::DistinguishedName;
    use neesgrid_ogsi::{RpcMux, ServiceContainer};

    /// A repository node on `net` over `store`, and an ingester for it.
    fn ingester(net: &VirtualNetwork, store: &VirtualStore) -> Ingester {
        let _ = ServiceContainer::new(net.endpoint("repository").unwrap())
            .with_service("nfms", Box::new(NfmsService::new(Nfms::new(store.clone()))))
            .with_service("nmds", Box::new(NmdsService::new(Nmds::new())))
            .permissive()
            .attach();
        let mux = RpcMux::new(net.endpoint("ingester").unwrap());
        let dn = DistinguishedName::nees_user("NCSA", "Ingester");
        let client =
            |service| RpcClient::new(mux.clone(), NodeId::new("repository"), service, dn.clone());
        Ingester::new("/experiments/most", client("nfms"), client("nmds"))
    }

    #[test]
    fn upload_archives_the_bytes_and_records_describe_them() {
        let net = VirtualNetwork::new(NetworkConfig::default());
        let store = VirtualStore::new();
        let ing = ingester(&net, &store);
        // Three blocks at the service's 8,192-byte chunk size.
        let content: Vec<u8> = (0..20_000).map(|i| (i % 251) as u8).collect();
        let logical = ing.data_name("uiuc-lvdt-000001.csv");
        assert_eq!(logical, "/experiments/most/data/uiuc-lvdt-000001.csv");
        assert_eq!(ing.upload(&logical, &content).unwrap(), 20_000);
        let stored = store.list("/");
        assert_eq!(stored.len(), 1, "one file stored: {stored:?}");
        assert_eq!(&store.get(&stored[0]).unwrap().content[..], &content[..]);

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
    fn a_second_upload_of_one_logical_file_is_refused() {
        let net = VirtualNetwork::new(NetworkConfig::default());
        let ing = ingester(&net, &VirtualStore::new());
        ing.upload("/experiments/most/data/f.csv", b"x").unwrap();
        let err = ing
            .upload("/experiments/most/data/f.csv", b"x")
            .unwrap_err();
        assert!(matches!(err, RpcError::Fault(f) if f.code == "UploadFailed"));
    }
}

//! OGSI service wrappers for NMDS and NFMS.
//!
//! These make the repository reachable over the grid network: each
//! experiment site's ingestion path and each CHEF participant's download
//! path speak JSON RPC to these services, exactly as the deployment put
//! GT3 service endpoints in front of the repository host.

use bytes::Bytes;
use serde_json::{json, Value};

use neesgrid_gsi::Right;
use neesgrid_ogsi::{CallContext, GridService, ServiceData, ServiceFault};

use crate::checksum::{crc32, from_hex, to_hex};
use crate::gridftp::GridFtpReceiver;
use crate::metadata::Schema;
use crate::nfms::Nfms;
use crate::nmds::{Nmds, NmdsError};

fn nmds_fault(e: NmdsError) -> ServiceFault {
    let code = match &e {
        NmdsError::AlreadyExists(_) => "AlreadyExists",
        NmdsError::NotFound(_) => "NotFound",
        NmdsError::ValidationFailed(_) => "ValidationFailed",
        NmdsError::AccessDenied(_) => "AccessDenied",
        NmdsError::BadSchema(_) => "BadSchema",
    };
    ServiceFault::permanent(code, e.to_string())
}

/// NMDS as a hosted grid service.
pub struct NmdsService {
    nmds: Nmds,
    sde: ServiceData,
}

impl NmdsService {
    /// Wrap an NMDS instance.
    pub fn new(nmds: Nmds) -> Self {
        NmdsService {
            nmds,
            sde: ServiceData::new(),
        }
    }
}

impl GridService for NmdsService {
    fn service_type(&self) -> &'static str {
        "nmds"
    }

    fn handle(
        &mut self,
        ctx: &CallContext,
        operation: &str,
        body: &Value,
    ) -> Result<Value, ServiceFault> {
        let id = || -> Result<String, ServiceFault> {
            body["id"]
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| ServiceFault::permanent("BadRequest", "missing 'id'"))
        };
        match operation {
            "createSchema" => {
                let schema: Schema = serde_json::from_value(body["schema"].clone())
                    .map_err(|e| ServiceFault::permanent("BadRequest", format!("schema: {e}")))?;
                self.nmds
                    .create_schema(id()?, &schema, ctx.caller.clone(), ctx.now)
                    .map_err(nmds_fault)?;
                Ok(json!({"created": true}))
            }
            "create" => {
                let schema_id = body["schema_id"].as_str().map(str::to_string);
                self.nmds
                    .create(
                        id()?,
                        schema_id,
                        body["body"].clone(),
                        ctx.caller.clone(),
                        ctx.now,
                    )
                    .map_err(nmds_fault)?;
                self.sde.set("objectCount", json!(self.nmds.len()), ctx.now);
                Ok(json!({"created": true}))
            }
            "update" => {
                let version = self
                    .nmds
                    .update(&id()?, body["body"].clone(), &ctx.caller, None, ctx.now)
                    .map_err(nmds_fault)?;
                Ok(json!({ "version": version }))
            }
            "get" => {
                let version = body["version"].as_u64();
                let value = self
                    .nmds
                    .get(&id()?, version, &ctx.caller, None, ctx.now)
                    .map_err(nmds_fault)?;
                Ok(json!({ "body": value }))
            }
            "grant" => {
                let grantee = neesgrid_gsi::DistinguishedName::parse(
                    body["grantee"].as_str().unwrap_or_default(),
                )
                .ok_or_else(|| ServiceFault::permanent("BadRequest", "bad grantee DN"))?;
                let right = match body["right"].as_str() {
                    Some("read") => Right::Read,
                    Some("write") => Right::Write,
                    _ => return Err(ServiceFault::permanent("BadRequest", "bad right")),
                };
                self.nmds
                    .grant(&id()?, &ctx.caller, grantee, right)
                    .map_err(nmds_fault)?;
                Ok(json!({"granted": true}))
            }
            "list" => {
                let prefix = body["prefix"].as_str().unwrap_or("");
                Ok(json!({ "ids": self.nmds.list(prefix) }))
            }
            other => Err(ServiceFault::no_such_operation(other)),
        }
    }

    fn sde(&mut self) -> Option<&mut ServiceData> {
        Some(&mut self.sde)
    }
}

struct PendingUpload {
    logical: String,
    receiver: GridFtpReceiver,
}

/// NFMS as a hosted grid service, carrying GridFTP-style chunked uploads
/// and downloads inside RPC bodies (hex-encoded).
pub struct NfmsService {
    nfms: Nfms,
    uploads: std::collections::HashMap<u64, PendingUpload>,
    next_transfer: u64,
    sde: ServiceData,
}

impl NfmsService {
    /// Wrap an NFMS instance.
    pub fn new(nfms: Nfms) -> Self {
        NfmsService {
            nfms,
            uploads: std::collections::HashMap::new(),
            next_transfer: 1,
            sde: ServiceData::new(),
        }
    }
}

impl GridService for NfmsService {
    fn service_type(&self) -> &'static str {
        "nfms"
    }

    fn handle(
        &mut self,
        ctx: &CallContext,
        operation: &str,
        body: &Value,
    ) -> Result<Value, ServiceFault> {
        match operation {
            "negotiateUpload" => {
                let logical = body["logical"]
                    .as_str()
                    .ok_or_else(|| ServiceFault::permanent("BadRequest", "missing 'logical'"))?;
                let size = body["size"]
                    .as_u64()
                    .ok_or_else(|| ServiceFault::permanent("BadRequest", "missing 'size'"))?;
                let checksum = body["checksum"]
                    .as_u64()
                    .ok_or_else(|| ServiceFault::permanent("BadRequest", "missing 'checksum'"))?
                    as u32;
                let transfer_id = self.next_transfer;
                self.next_transfer += 1;
                self.uploads.insert(
                    transfer_id,
                    PendingUpload {
                        logical: logical.to_string(),
                        receiver: GridFtpReceiver::new(size, checksum),
                    },
                );
                Ok(json!({ "transfer_id": transfer_id, "chunk_size": 8192 }))
            }
            "uploadChunk" => {
                let tid = body["transfer_id"].as_u64().ok_or_else(|| {
                    ServiceFault::permanent("BadRequest", "missing 'transfer_id'")
                })?;
                let up = self.uploads.get_mut(&tid).ok_or_else(|| {
                    ServiceFault::permanent("NoSuchTransfer", format!("transfer {tid}"))
                })?;
                let data = from_hex(body["data"].as_str().unwrap_or_default())
                    .ok_or_else(|| ServiceFault::permanent("BadRequest", "bad hex"))?;
                up.receiver
                    .accept(
                        body["offset"].as_u64().unwrap_or(0),
                        Bytes::from(data),
                        body["checksum"].as_u64().unwrap_or(0) as u32,
                    )
                    .map_err(|e| ServiceFault::transient("ChunkRejected", e.to_string()))?;
                Ok(json!({ "marker": up.receiver.restart_marker() }))
            }
            "commitUpload" => {
                let tid = body["transfer_id"].as_u64().ok_or_else(|| {
                    ServiceFault::permanent("BadRequest", "missing 'transfer_id'")
                })?;
                let up = self.uploads.remove(&tid).ok_or_else(|| {
                    ServiceFault::permanent("NoSuchTransfer", format!("transfer {tid}"))
                })?;
                let content = up
                    .receiver
                    .finish()
                    .map_err(|e| ServiceFault::permanent("TransferIncomplete", e.to_string()))?;
                let ticket = self
                    .nfms
                    .upload(up.logical, content, ctx.now)
                    .map_err(|e| ServiceFault::permanent("UploadFailed", e.to_string()))?;
                self.sde.set("fileCount", json!(self.nfms.len()), ctx.now);
                Ok(serde_json::to_value(ticket).expect("ticket serializes"))
            }
            "negotiateDownload" => {
                let logical = body["logical"]
                    .as_str()
                    .ok_or_else(|| ServiceFault::permanent("BadRequest", "missing 'logical'"))?;
                let protocols: Vec<&str> = body["protocols"]
                    .as_array()
                    .map(|a| a.iter().filter_map(|v| v.as_str()).collect())
                    .unwrap_or_else(|| vec!["gridftp"]);
                let ticket = self
                    .nfms
                    .negotiate(logical, &protocols)
                    .map_err(|e| ServiceFault::permanent("NegotiationFailed", e.to_string()))?;
                Ok(serde_json::to_value(ticket).expect("ticket serializes"))
            }
            "downloadChunk" => {
                let logical = body["logical"]
                    .as_str()
                    .ok_or_else(|| ServiceFault::permanent("BadRequest", "missing 'logical'"))?;
                let ticket = self
                    .nfms
                    .negotiate(logical, &["gridftp", "https"])
                    .map_err(|e| ServiceFault::permanent("NotFound", e.to_string()))?;
                let content = self
                    .nfms
                    .retrieve(&ticket)
                    .map_err(|e| ServiceFault::permanent("NotFound", e.to_string()))?;
                let offset = body["offset"].as_u64().unwrap_or(0);
                let len = body["len"].as_u64().unwrap_or(8192);
                let size = content.len() as u64;
                if offset > size {
                    return Err(ServiceFault::permanent("BadRequest", "offset beyond EOF"));
                }
                let end = offset
                    .checked_add(len)
                    .ok_or_else(|| ServiceFault::permanent("BadRequest", "offset + len overflows"))?
                    .min(size);
                // Both bounds are at most `content.len()`, so they fit a usize.
                let slice = &content[offset as usize..end as usize];
                Ok(json!({
                    "data": to_hex(slice),
                    "checksum": crc32(slice),
                    "eof": end == size,
                    "total_size": content.len(),
                }))
            }
            "list" => {
                let prefix = body["prefix"].as_str().unwrap_or("");
                Ok(json!({ "logical": self.nfms.list(prefix) }))
            }
            other => Err(ServiceFault::no_such_operation(other)),
        }
    }

    fn sde(&mut self) -> Option<&mut ServiceData> {
        Some(&mut self.sde)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::VirtualStore;
    use neesgrid_gridsim::{NodeId, SimTime};
    use neesgrid_gsi::DistinguishedName;

    fn ctx(request_id: u64) -> CallContext {
        CallContext {
            caller: DistinguishedName::nees_user("NCSA", "Ingester"),
            client: NodeId::new("ingester"),
            now: SimTime::from_secs(1),
            request_id,
        }
    }

    #[test]
    fn nmds_service_crud() {
        let mut svc = NmdsService::new(Nmds::new());
        svc.handle(&ctx(1), "create", &json!({"id": "/obj", "body": {"x": 1}}))
            .unwrap();
        let got = svc.handle(&ctx(2), "get", &json!({"id": "/obj"})).unwrap();
        assert_eq!(got["body"]["x"], 1);
        let v = svc
            .handle(&ctx(3), "update", &json!({"id": "/obj", "body": {"x": 2}}))
            .unwrap();
        assert_eq!(v["version"], 2);
        let ids = svc
            .handle(&ctx(4), "list", &json!({"prefix": "/"}))
            .unwrap();
        assert_eq!(ids["ids"][0], "/obj");
    }

    #[test]
    fn nmds_service_schema_roundtrip() {
        let mut svc = NmdsService::new(Nmds::new());
        svc.handle(
            &ctx(1),
            "createSchema",
            &json!({"id": "/schemas/s", "schema": {"fields": {"name": "string"}, "allow_extra": true}}),
        )
        .unwrap();
        let err = svc
            .handle(
                &ctx(2),
                "create",
                &json!({"id": "/o", "schema_id": "/schemas/s", "body": {"nope": 1}}),
            )
            .unwrap_err();
        assert_eq!(err.code, "ValidationFailed");
        svc.handle(
            &ctx(3),
            "create",
            &json!({"id": "/o", "schema_id": "/schemas/s", "body": {"name": "ok"}}),
        )
        .unwrap();
    }

    #[test]
    fn nfms_service_chunked_upload_download() {
        let mut svc = NfmsService::new(Nfms::new(VirtualStore::new()));
        let data: Vec<u8> = (0..20_000).map(|i| (i % 256) as u8).collect();
        let total_sum = crc32(&data);
        let neg = svc
            .handle(
                &ctx(1),
                "negotiateUpload",
                &json!({"logical": "/most/f.bin", "size": data.len(), "checksum": total_sum}),
            )
            .unwrap();
        let tid = neg["transfer_id"].as_u64().unwrap();
        let chunk_size = neg["chunk_size"].as_u64().unwrap() as usize;
        let mut req = 2;
        for (i, chunk) in data.chunks(chunk_size).enumerate() {
            svc.handle(
                &ctx(req),
                "uploadChunk",
                &json!({
                    "transfer_id": tid,
                    "offset": i * chunk_size,
                    "stream": i % 4,
                    "data": to_hex(chunk),
                    "checksum": crc32(chunk),
                }),
            )
            .unwrap();
            req += 1;
        }
        let ticket = svc
            .handle(&ctx(req), "commitUpload", &json!({"transfer_id": tid}))
            .unwrap();
        assert_eq!(ticket["size"], 20_000);

        // Download back in chunks.
        let mut got = Vec::new();
        let mut offset = 0;
        loop {
            let r = svc
                .handle(
                    &ctx(1000 + offset as u64),
                    "downloadChunk",
                    &json!({"logical": "/most/f.bin", "offset": offset, "len": 4096}),
                )
                .unwrap();
            let part = from_hex(r["data"].as_str().unwrap()).unwrap();
            assert_eq!(crc32(&part), r["checksum"].as_u64().unwrap() as u32);
            got.extend_from_slice(&part);
            offset += part.len();
            if r["eof"].as_bool().unwrap() {
                break;
            }
        }
        assert_eq!(got, data);
    }

    /// A fresh NFMS service with an upload of `size` bytes negotiated;
    /// returns the service and the transfer id.
    fn negotiated(size: u64) -> (NfmsService, u64) {
        let mut svc = NfmsService::new(Nfms::new(VirtualStore::new()));
        let neg = svc
            .handle(
                &ctx(1),
                "negotiateUpload",
                &json!({"logical": "/f", "size": size, "checksum": 0}),
            )
            .unwrap();
        let tid = neg["transfer_id"].as_u64().unwrap();
        (svc, tid)
    }

    /// Send `data` at `offset` as one block with the given checksum.
    fn upload_chunk(
        svc: &mut NfmsService,
        tid: u64,
        offset: u64,
        data: &[u8],
        checksum: u32,
    ) -> Result<Value, ServiceFault> {
        let chunk = json!({"transfer_id": tid, "offset": offset, "stream": 0,
            "data": to_hex(data), "checksum": checksum});
        svc.handle(&ctx(2), "uploadChunk", &chunk)
    }

    #[test]
    fn nfms_commit_of_incomplete_upload_fails() {
        let (mut svc, tid) = negotiated(100);
        let err = svc
            .handle(&ctx(2), "commitUpload", &json!({"transfer_id": tid}))
            .unwrap_err();
        assert_eq!(err.code, "TransferIncomplete");
    }

    #[test]
    fn nfms_corrupt_chunk_is_transient_fault() {
        let (mut svc, tid) = negotiated(4);
        let err = upload_chunk(&mut svc, tid, 0, b"data", 12345).unwrap_err();
        assert_eq!(err.code, "ChunkRejected");
        assert!(err.retryable, "sender should resend the block");
    }

    #[test]
    fn nfms_huge_negotiated_size_allocates_nothing_up_front() {
        let (mut svc, tid) = negotiated(u64::MAX / 2);
        let err = svc
            .handle(&ctx(2), "commitUpload", &json!({"transfer_id": tid}))
            .unwrap_err();
        assert_eq!(err.code, "TransferIncomplete");
    }

    #[test]
    fn nfms_chunk_whose_end_overflows_is_out_of_bounds() {
        let (mut svc, tid) = negotiated(100);
        let err =
            upload_chunk(&mut svc, tid, u64::MAX - 5, b"overflow", crc32(b"overflow")).unwrap_err();
        assert_eq!(err.code, "ChunkRejected");
        assert!(err.message.contains("beyond file length 100"), "{err:?}");
    }

    #[test]
    fn nfms_download_range_that_overflows_is_a_bad_request() {
        let mut nfms = Nfms::new(VirtualStore::new());
        nfms.upload("/f", Bytes::from_static(b"archived"), SimTime::ZERO)
            .unwrap();
        let err = NfmsService::new(nfms)
            .handle(
                &ctx(1),
                "downloadChunk",
                &json!({"logical": "/f", "offset": 1, "len": u64::MAX}),
            )
            .unwrap_err();
        assert_eq!(err.code, "BadRequest");
    }
}

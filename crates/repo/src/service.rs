//! OGSI service wrappers for NMDS and NFMS.
//!
//! These make the repository reachable over the grid network: each
//! experiment site's ingestion path and each CHEF participant's download
//! path speak JSON RPC to these services, exactly as the deployment put
//! GT3 service endpoints in front of the repository host. The bytes of an
//! upload never ride an RPC body: they arrive on the repository's stripe
//! receiver, and `commitUpload` carries only the manifest naming them.

use serde_json::{json, Value};

use neesgrid_gsi::Right;
use neesgrid_ogsi::{CallContext, GridService, ServiceData, ServiceFault};

use crate::cas::Manifest;
use crate::checksum::{crc32, to_hex};
use crate::metadata::Schema;
use crate::nfms::{Nfms, NfmsError};
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

fn nfms_fault(e: NfmsError) -> ServiceFault {
    let code = match &e {
        NfmsError::NotFound(_) => "NotFound",
        NfmsError::NoCommonTransport { .. } => "NegotiationFailed",
        NfmsError::AlreadyExists(_) => "AlreadyExists",
        NfmsError::Incomplete(_) => "TransferIncomplete",
    };
    ServiceFault::permanent(code, e.to_string())
}

/// NFMS as a hosted grid service. Uploads land on the GridFTP data plane
/// ([`crate::stripe`]); the authenticated `commitUpload` names them.
/// Downloads travel as CRC-checked, hex-encoded chunks of RPC bodies.
pub struct NfmsService {
    nfms: Nfms,
}

impl NfmsService {
    /// Wrap an NFMS instance.
    pub fn new(nfms: Nfms) -> Self {
        NfmsService { nfms }
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
        let logical = || {
            body["logical"]
                .as_str()
                .ok_or_else(|| ServiceFault::permanent("BadRequest", "missing 'logical'"))
        };
        match operation {
            "commitUpload" => {
                let manifest: Manifest = serde_json::from_value(body["manifest"].clone())
                    .map_err(|e| ServiceFault::permanent("BadRequest", format!("manifest: {e}")))?;
                let ticket = self
                    .nfms
                    .commit(logical()?, manifest, ctx.now)
                    .map_err(nfms_fault)?;
                Ok(serde_json::to_value(ticket).expect("ticket serializes"))
            }
            "negotiateDownload" => {
                let protocols: Vec<&str> = body["protocols"]
                    .as_array()
                    .map(|a| a.iter().filter_map(|v| v.as_str()).collect())
                    .unwrap_or_else(|| vec!["gridftp"]);
                let ticket = self
                    .nfms
                    .negotiate(logical()?, &protocols)
                    .map_err(nfms_fault)?;
                Ok(serde_json::to_value(ticket).expect("ticket serializes"))
            }
            "downloadChunk" => {
                let manifest = self.nfms.manifest(logical()?).map_err(nfms_fault)?;
                let offset = body["offset"].as_u64().unwrap_or(0);
                if offset > manifest.total_len {
                    return Err(ServiceFault::permanent("BadRequest", "offset beyond EOF"));
                }
                let len = body["len"].as_u64().unwrap_or(8192);
                let data = self
                    .nfms
                    .cas()
                    .read_range(&manifest, offset, len)
                    .map_err(|e| ServiceFault::permanent("CorruptFile", e.to_string()))?;
                Ok(json!({
                    "data": to_hex(&data),
                    "checksum": crc32(&data),
                    "eof": offset + data.len() as u64 == manifest.total_len,
                    "total_size": manifest.total_len,
                }))
            }
            "list" => {
                let prefix = body["prefix"].as_str().unwrap_or("");
                Ok(json!({ "logical": self.nfms.list(prefix) }))
            }
            other => Err(ServiceFault::no_such_operation(other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::VirtualStore;
    use bytes::Bytes;
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

    /// What the wire verbs refuse: a commit naming blocks the store lacks
    /// or a malformed manifest, and a download offset past the end.
    #[test]
    fn nfms_service_refuses_what_the_store_cannot_back() {
        let nfms = Nfms::new(VirtualStore::new());
        nfms.cas()
            .ingest("/held", &Bytes::from_static(b"held"), 2, SimTime::ZERO);
        let elsewhere = crate::cas::CasStore::new(VirtualStore::new());
        let absent = elsewhere.ingest("/f", &Bytes::from_static(b"lost"), 2, SimTime::ZERO);
        let mut svc = NfmsService::new(nfms);
        for (manifest, code) in [
            (json!(absent), "TransferIncomplete"),
            (json!({"blocks": 1}), "BadRequest"),
        ] {
            let commit = json!({"logical": "/f", "manifest": manifest});
            let err = svc.handle(&ctx(1), "commitUpload", &commit).unwrap_err();
            assert_eq!(err.code, code);
        }
        assert_eq!(svc.nfms.list("/"), vec!["/held"]);
        let past_eof = json!({"logical": "/held", "offset": 5});
        let err = svc.handle(&ctx(2), "downloadChunk", &past_eof).unwrap_err();
        assert_eq!(err.code, "BadRequest");
    }
}

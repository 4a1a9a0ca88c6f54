//! The grid-service abstraction.
//!
//! A [`GridService`] is a named unit of server-side behaviour hosted in a
//! [`crate::container::ServiceContainer`]. The container handles transport,
//! authentication, and the generic OGSI inspection operations; the service
//! implements domain operations (NTCP's `propose`/`execute`/`cancel`, NMDS's
//! metadata CRUD, …) and exposes state through its [`ServiceData`].
//!
//! A reply is JSON text from the moment it is written: the container calls
//! [`GridService::respond`], which appends the reply document to the
//! buffer the reply envelope is written in. Its default writes
//! [`GridService::handle`]'s document; a service whose replies are typed,
//! or remembered as text, writes them itself.

use serde::Serialize;
use serde_json::Value;

use neesgrid_gridsim::SimTime;
use neesgrid_gsi::DistinguishedName;

use crate::fault::ServiceFault;
use crate::sde::ServiceData;

/// Per-call context the container passes to a service.
#[derive(Debug, Clone)]
pub struct CallContext {
    /// Authenticated end-entity identity of the caller.
    pub caller: DistinguishedName,
    /// Virtual time at which the request reached the service.
    pub now: SimTime,
    /// The request id (stable across client retransmissions).
    pub request_id: u64,
}

/// A hosted grid service.
pub trait GridService: Send {
    /// The service type name (diagnostics only; routing uses the
    /// registration name).
    fn service_type(&self) -> &'static str;

    /// Handle a domain operation.
    fn handle(
        &mut self,
        ctx: &CallContext,
        operation: &str,
        body: &Value,
    ) -> Result<Value, ServiceFault>;

    /// Handle a domain operation, appending its reply document to `reply`
    /// as compact JSON text. The container calls only this, and discards
    /// whatever was appended when it returns a fault. The default writes
    /// [`GridService::handle`]'s document.
    fn respond(
        &mut self,
        ctx: &CallContext,
        operation: &str,
        body: &Value,
        reply: &mut String,
    ) -> Result<(), ServiceFault> {
        self.handle(ctx, operation, body)?.write_json(reply);
        Ok(())
    }

    /// Expose service data for generic OGSI inspection, if any. Every read
    /// goes through here, so a service that renders values on read (see
    /// [`ServiceData::touch`]) refreshes them before returning the set.
    fn sde(&mut self) -> Option<&mut ServiceData> {
        None
    }

    /// Periodic housekeeping hook (lease reaping etc.). Called by the
    /// container between requests.
    fn tick(&mut self, _now: SimTime) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    struct Counter {
        count: u64,
        sde: ServiceData,
    }

    impl GridService for Counter {
        fn service_type(&self) -> &'static str {
            "counter"
        }

        fn handle(
            &mut self,
            ctx: &CallContext,
            operation: &str,
            _body: &Value,
        ) -> Result<Value, ServiceFault> {
            match operation {
                "increment" => {
                    self.count += 1;
                    self.sde.set("count", json!(self.count), ctx.now);
                    Ok(json!({ "count": self.count }))
                }
                other => Err(ServiceFault::no_such_operation(other)),
            }
        }

        fn sde(&mut self) -> Option<&mut ServiceData> {
            Some(&mut self.sde)
        }
    }

    fn ctx() -> CallContext {
        CallContext {
            caller: DistinguishedName::nees_user("X", "tester"),
            now: SimTime::from_secs(1),
            request_id: 1,
        }
    }

    #[test]
    fn service_handles_operations_and_updates_sde() {
        let mut svc = Counter {
            count: 0,
            sde: ServiceData::new(),
        };
        let out = svc.handle(&ctx(), "increment", &Value::Null).unwrap();
        assert_eq!(out["count"], 1);
        assert_eq!(svc.sde().unwrap().get("count").unwrap().value, json!(1));
    }

    #[test]
    fn default_respond_writes_the_handled_document() {
        let mut svc = Counter {
            count: 0,
            sde: ServiceData::new(),
        };
        let mut reply = String::from("{\"Ok\":");
        svc.respond(&ctx(), "increment", &Value::Null, &mut reply)
            .unwrap();
        assert_eq!(reply, r#"{"Ok":{"count":1}"#);
        let err = svc
            .respond(&ctx(), "zap", &Value::Null, &mut reply)
            .unwrap_err();
        assert_eq!(err.code, "NoSuchOperation");
        assert_eq!(reply, r#"{"Ok":{"count":1}"#, "a fault appends nothing");
    }

    #[test]
    fn unknown_operation_faults() {
        let mut svc = Counter {
            count: 0,
            sde: ServiceData::new(),
        };
        let err = svc.handle(&ctx(), "zap", &Value::Null).unwrap_err();
        assert_eq!(err.code, "NoSuchOperation");
    }
}

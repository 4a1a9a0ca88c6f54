//! Wire envelopes.
//!
//! Every inter-site interaction in NEESgrid — NTCP proposals, GridFTP blocks,
//! NSDS samples, CHEF chat lines — travels as an [`Envelope`]: an opaque,
//! already-serialized payload plus routing and correlation metadata. Keeping
//! the network payload-agnostic mirrors the real deployment (SOAP over GSI
//! sockets) and lets the router count bytes, drop, and reset without knowing
//! protocol internals.

use bytes::Bytes;
use serde::{Deserialize, Serialize};

use crate::node::NodeId;
use crate::time::SimTime;

/// Classifies an envelope for RPC correlation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MessageKind {
    /// A request expecting a reply with the same `correlation_id`.
    Request,
    /// A reply to a previous request.
    Reply,
    /// Fire-and-forget (streaming data, notifications).
    OneWay,
    /// Network-generated control notice (e.g. link reset observed by sender).
    Control,
}

/// A routed message on the virtual grid network.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// Router-assigned global sequence number (delivery bookkeeping).
    pub seq: u64,
    /// Sending node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Destination service name on the node (e.g. `"ntcp"`, `"nfms"`).
    pub service: String,
    /// RPC classification.
    pub kind: MessageKind,
    /// Sender-chosen correlation id linking requests to replies.
    pub correlation_id: u64,
    /// Virtual time at which the sender posted the message.
    pub sent_at: SimTime,
    /// Virtual latency the network charged this message.
    pub latency: SimTime,
    /// Serialized payload.
    pub payload: Bytes,
}

impl Envelope {
    /// Virtual time at which the message reaches its destination.
    pub fn delivered_at(&self) -> SimTime {
        self.sent_at + self.latency
    }

    /// Payload size in bytes, as charged against link statistics.
    pub fn wire_bytes(&self) -> usize {
        self.payload.len()
    }
}

/// Notices the network itself sends to an endpoint about a message it
/// could not deliver.
///
/// A loss notice goes to whoever waits on the message's correlation id:
/// the sender of a lost request, the requester of a lost reply (one-way
/// traffic has no waiter and gets none). A [`ControlNotice::NoRoute`] goes
/// to the sender. A [`ControlNotice::LinkReset`] models a TCP connection
/// reset: the waiter finds out *immediately* that the exchange died,
/// whichever direction the reset hit, in contrast to a silent drop which
/// only surfaces as a timeout. The MOST public run was ultimately killed
/// by an error of the immediate kind that the coordinator had no handler
/// for (§3.4), so the distinction is load-bearing here.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ControlNotice {
    /// The link to `dst` reset while carrying the message with the given
    /// correlation id; the message was not delivered.
    LinkReset { dst: NodeId, correlation_id: u64 },
    /// The destination node is not registered on the network.
    NoRoute { dst: NodeId, correlation_id: u64 },
    /// The message to `dst` was silently lost in transit. Semantically the
    /// waiting party observes this as its timeout verdict — the notice just
    /// delivers that verdict deterministically instead of racing a
    /// wall-clock deadline against scheduler load.
    Dropped { dst: NodeId, correlation_id: u64 },
}

impl ControlNotice {
    /// Serialize for transport in a control envelope payload.
    pub fn to_bytes(&self) -> Bytes {
        // analyzer:allow(no-unwrap, reason = "ControlNotice is a plain derive(Serialize) enum of JSON-safe types; self-serialization is infallible")
        Bytes::from(serde_json::to_vec(self).expect("control notice serializes"))
    }

    /// Parse from a control envelope payload.
    pub fn from_bytes(b: &[u8]) -> Option<ControlNotice> {
        serde_json::from_slice(b).ok()
    }

    /// The correlation id of the original message this notice refers to.
    pub fn correlation_id(&self) -> u64 {
        match self {
            ControlNotice::LinkReset { correlation_id, .. }
            | ControlNotice::NoRoute { correlation_id, .. }
            | ControlNotice::Dropped { correlation_id, .. } => *correlation_id,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn envelope() -> Envelope {
        Envelope {
            seq: 7,
            src: NodeId::new("coordinator"),
            dst: NodeId::new("uiuc"),
            service: "ntcp".into(),
            kind: MessageKind::Request,
            correlation_id: 42,
            sent_at: SimTime::from_millis(100),
            latency: SimTime::from_millis(35),
            payload: Bytes::from_static(b"{\"propose\":1}"),
        }
    }

    #[test]
    fn delivered_at_adds_latency() {
        assert_eq!(envelope().delivered_at(), SimTime::from_millis(135));
    }

    #[test]
    fn wire_bytes_counts_payload() {
        assert_eq!(envelope().wire_bytes(), 13);
    }

    #[test]
    fn control_notice_roundtrip() {
        let n = ControlNotice::LinkReset {
            dst: NodeId::new("cu"),
            correlation_id: 9,
        };
        let b = n.to_bytes();
        let back = ControlNotice::from_bytes(&b).unwrap();
        assert_eq!(back, n);
        assert_eq!(back.correlation_id(), 9);
    }

    #[test]
    fn control_notice_rejects_garbage() {
        assert!(ControlNotice::from_bytes(b"not json").is_none());
    }

    #[test]
    fn no_route_correlation_id() {
        let n = ControlNotice::NoRoute {
            dst: NodeId::new("ghost"),
            correlation_id: 3,
        };
        assert_eq!(n.correlation_id(), 3);
    }
}

//! Deterministic fault injection.
//!
//! §3.4 of the paper: *"The fault tolerance features of NTCP enabled the
//! simulation to detect and recover from several transient network failures
//! throughout the day; however ... a final network error caused the
//! simulation to terminate prematurely"* (at step 1493 of 1500).
//!
//! To replay that history exactly, faults are keyed by the **per-link message
//! index** — "the 3rd NTCP request from coordinator to UIUC" — never by wall
//! clock. A [`FaultPlan`] is an explicit schedule, so the MOST scenarios in
//! `neesgrid-most` can state precisely which messages die.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::message::MessageKind;
use crate::node::NodeId;

/// A directed link between two nodes.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct LinkKey {
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
}

impl LinkKey {
    /// Construct a directed link key.
    pub fn new(src: impl Into<NodeId>, dst: impl Into<NodeId>) -> Self {
        LinkKey {
            src: src.into(),
            dst: dst.into(),
        }
    }
}

/// What the network does to a selected message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultAction {
    /// Deliver normally (explicit no-op, useful to override a partition).
    Deliver,
    /// Silently drop: the receiver never sees it, the sender only learns via
    /// timeout. Models congestion loss.
    Drop,
    /// Connection reset: the message dies *and* whoever waits on it (the
    /// sender of a request, the requester of a reply) is immediately
    /// notified via a [`crate::ControlNotice::LinkReset`]. Models TCP RST /
    /// peer crash — the error class that ended the MOST public run.
    Reset,
    /// Deliver the message twice, each copy with an independently sampled
    /// latency. Models retransmission races; NTCP's at-most-once window is
    /// what keeps a duplicated request from executing twice.
    Duplicate,
}

/// One scheduled fault.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScheduledFault {
    /// Which directed link.
    pub link: LinkKey,
    /// Zero-based index of the message on that link to hit.
    pub message_index: u64,
    /// What to do to it.
    pub action: FaultAction,
}

/// A partition window: all messages on `link` with index in
/// `[from_index, to_index)` are dropped.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PartitionWindow {
    /// Affected directed link.
    pub link: LinkKey,
    /// First affected message index.
    pub from_index: u64,
    /// One past the last affected message index.
    pub to_index: u64,
}

/// A background fault *rate*: roughly `per_mille` out of every 1000 messages
/// on the matching link(s) suffer `action`. Selection is a pure function of
/// `(salt, link, message index)`, never of randomness consumed elsewhere, so
/// a rate fault is exactly as replayable as a scheduled one — the lossy-WAN
/// profile is a schedule you haven't enumerated, not a coin flip.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RateFault {
    /// Affected directed link; `None` applies to every link.
    pub link: Option<LinkKey>,
    /// How many out of every 1000 messages are hit (clamped to 1000).
    pub per_mille: u16,
    /// What happens to a selected message.
    pub action: FaultAction,
    /// Mixed into the selection hash so independent rate faults on the same
    /// link pick uncorrelated message sets.
    pub salt: u64,
}

impl RateFault {
    fn selects(&self, link: &LinkKey, index: u64) -> bool {
        if let Some(l) = &self.link {
            if l != link {
                return false;
            }
        }
        let mut h = fnv1a(self.salt, link);
        h ^= index;
        h = h.wrapping_mul(0x2545_F491_4F6C_DD1D);
        h ^= h >> 33;
        (h % 1000) < u64::from(self.per_mille.min(1000))
    }
}

/// FNV-1a over the salt and the link's node names — a stable, dependency-free
/// hash so rate-fault selection never rides on `std` hasher internals.
fn fnv1a(salt: u64, link: &LinkKey) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    eat(&salt.to_le_bytes());
    eat(link.src.as_str().as_bytes());
    eat(&[0]);
    eat(link.dst.as_str().as_bytes());
    h
}

/// A deterministic schedule of network faults.
///
/// Point faults take precedence over partition windows and rate faults, so a
/// window can be punched through with [`FaultAction::Deliver`].
///
/// Serialized as a flat list of [`ScheduledFault`]s plus partition windows
/// and rate faults (JSON maps cannot have structured keys).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    point_faults: BTreeMap<LinkKey, BTreeMap<u64, FaultAction>>,
    partitions: Vec<PartitionWindow>,
    rates: Vec<RateFault>,
    /// If true, control-plane notices themselves are exempt from faults
    /// (default). The network's own error reports are reliable.
    pub exempt_control: bool,
}

#[derive(Serialize, Deserialize)]
struct FaultPlanWire {
    faults: Vec<ScheduledFault>,
    partitions: Vec<PartitionWindow>,
    rates: Vec<RateFault>,
    exempt_control: bool,
}

impl Serialize for FaultPlan {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut faults: Vec<ScheduledFault> = self
            .point_faults
            .iter()
            .flat_map(|(link, m)| {
                m.iter()
                    .map(move |(&message_index, &action)| ScheduledFault {
                        link: link.clone(),
                        message_index,
                        action,
                    })
            })
            .collect();
        faults.sort_by(|a, b| {
            (&a.link.src, &a.link.dst, a.message_index).cmp(&(
                &b.link.src,
                &b.link.dst,
                b.message_index,
            ))
        });
        FaultPlanWire {
            faults,
            partitions: self.partitions.clone(),
            rates: self.rates.clone(),
            exempt_control: self.exempt_control,
        }
        .serialize(serializer)
    }
}

impl<'de> Deserialize<'de> for FaultPlan {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let wire = FaultPlanWire::deserialize(deserializer)?;
        let mut plan = FaultPlan {
            exempt_control: wire.exempt_control,
            partitions: wire.partitions,
            rates: wire.rates,
            ..Default::default()
        };
        for f in wire.faults {
            plan.schedule(f);
        }
        Ok(plan)
    }
}

impl FaultPlan {
    /// An empty plan: a perfectly reliable network.
    pub fn reliable() -> Self {
        FaultPlan {
            exempt_control: true,
            ..Default::default()
        }
    }

    /// Schedule a single fault.
    pub fn schedule(&mut self, fault: ScheduledFault) -> &mut Self {
        self.point_faults
            .entry(fault.link)
            .or_default()
            .insert(fault.message_index, fault.action);
        self
    }

    /// Convenience: drop message `index` on `link`.
    pub fn drop_at(&mut self, link: LinkKey, index: u64) -> &mut Self {
        self.schedule(ScheduledFault {
            link,
            message_index: index,
            action: FaultAction::Drop,
        })
    }

    /// Convenience: reset the link while carrying message `index`.
    pub fn reset_at(&mut self, link: LinkKey, index: u64) -> &mut Self {
        self.schedule(ScheduledFault {
            link,
            message_index: index,
            action: FaultAction::Reset,
        })
    }

    /// Convenience: deliver message `index` on `link` twice.
    pub fn dup_at(&mut self, link: LinkKey, index: u64) -> &mut Self {
        self.schedule(ScheduledFault {
            link,
            message_index: index,
            action: FaultAction::Duplicate,
        })
    }

    /// Add a background fault rate.
    pub fn rate(&mut self, rate: RateFault) -> &mut Self {
        self.rates.push(rate);
        self
    }

    /// Add a partition window.
    pub fn partition(&mut self, window: PartitionWindow) -> &mut Self {
        self.partitions.push(window);
        self
    }

    /// Decide the fate of message number `index` on `link`.
    pub fn decide(&self, link: &LinkKey, index: u64, kind: MessageKind) -> FaultAction {
        if self.exempt_control && kind == MessageKind::Control {
            return FaultAction::Deliver;
        }
        if let Some(per_link) = self.point_faults.get(link) {
            if let Some(action) = per_link.get(&index) {
                return *action;
            }
        }
        for w in &self.partitions {
            if w.link == *link && index >= w.from_index && index < w.to_index {
                return FaultAction::Drop;
            }
        }
        for r in &self.rates {
            if r.selects(link, index) {
                return r.action;
            }
        }
        FaultAction::Deliver
    }

    /// Total number of point faults scheduled.
    pub fn point_fault_count(&self) -> usize {
        self.point_faults.values().map(|m| m.len()).sum()
    }

    /// Number of partition windows.
    pub fn partition_count(&self) -> usize {
        self.partitions.len()
    }

    /// Number of background fault rates.
    pub fn rate_count(&self) -> usize {
        self.rates.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link() -> LinkKey {
        LinkKey::new("coordinator", "uiuc")
    }

    #[test]
    fn reliable_plan_delivers_everything() {
        let plan = FaultPlan::reliable();
        for i in 0..100 {
            assert_eq!(
                plan.decide(&link(), i, MessageKind::Request),
                FaultAction::Deliver
            );
        }
    }

    #[test]
    fn point_drop_hits_only_its_index() {
        let mut plan = FaultPlan::reliable();
        plan.drop_at(link(), 5);
        assert_eq!(
            plan.decide(&link(), 4, MessageKind::Request),
            FaultAction::Deliver
        );
        assert_eq!(
            plan.decide(&link(), 5, MessageKind::Request),
            FaultAction::Drop
        );
        assert_eq!(
            plan.decide(&link(), 6, MessageKind::Request),
            FaultAction::Deliver
        );
    }

    #[test]
    fn faults_are_per_directed_link() {
        let mut plan = FaultPlan::reliable();
        plan.drop_at(LinkKey::new("a", "b"), 0);
        assert_eq!(
            plan.decide(&LinkKey::new("b", "a"), 0, MessageKind::Request),
            FaultAction::Deliver
        );
    }

    #[test]
    fn reset_is_distinct_from_drop() {
        let mut plan = FaultPlan::reliable();
        plan.reset_at(link(), 2);
        assert_eq!(
            plan.decide(&link(), 2, MessageKind::Reply),
            FaultAction::Reset
        );
    }

    #[test]
    fn partition_window_half_open() {
        let mut plan = FaultPlan::reliable();
        plan.partition(PartitionWindow {
            link: link(),
            from_index: 10,
            to_index: 13,
        });
        assert_eq!(
            plan.decide(&link(), 9, MessageKind::Request),
            FaultAction::Deliver
        );
        for i in 10..13 {
            assert_eq!(
                plan.decide(&link(), i, MessageKind::Request),
                FaultAction::Drop
            );
        }
        assert_eq!(
            plan.decide(&link(), 13, MessageKind::Request),
            FaultAction::Deliver
        );
    }

    #[test]
    fn point_fault_overrides_partition() {
        let mut plan = FaultPlan::reliable();
        plan.partition(PartitionWindow {
            link: link(),
            from_index: 0,
            to_index: 100,
        });
        plan.schedule(ScheduledFault {
            link: link(),
            message_index: 50,
            action: FaultAction::Deliver,
        });
        assert_eq!(
            plan.decide(&link(), 50, MessageKind::Request),
            FaultAction::Deliver
        );
        assert_eq!(
            plan.decide(&link(), 51, MessageKind::Request),
            FaultAction::Drop
        );
    }

    #[test]
    fn control_messages_are_exempt_by_default() {
        let mut plan = FaultPlan::reliable();
        plan.drop_at(link(), 0);
        assert_eq!(
            plan.decide(&link(), 0, MessageKind::Control),
            FaultAction::Deliver
        );
        // but not when exemption is disabled
        plan.exempt_control = false;
        assert_eq!(
            plan.decide(&link(), 0, MessageKind::Control),
            FaultAction::Drop
        );
    }

    #[test]
    fn counts_reflect_schedule() {
        let mut plan = FaultPlan::reliable();
        plan.drop_at(link(), 1)
            .reset_at(link(), 2)
            .partition(PartitionWindow {
                link: link(),
                from_index: 5,
                to_index: 6,
            });
        assert_eq!(plan.point_fault_count(), 2);
        assert_eq!(plan.partition_count(), 1);
    }

    #[test]
    fn serde_roundtrip() {
        let mut plan = FaultPlan::reliable();
        plan.reset_at(link(), 1493);
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(
            back.decide(&link(), 1493, MessageKind::Request),
            FaultAction::Reset
        );
    }

    #[test]
    fn duplicate_is_a_point_action() {
        let mut plan = FaultPlan::reliable();
        plan.dup_at(link(), 3);
        assert_eq!(
            plan.decide(&link(), 3, MessageKind::Request),
            FaultAction::Duplicate
        );
        assert_eq!(
            plan.decide(&link(), 4, MessageKind::Request),
            FaultAction::Deliver
        );
    }

    #[test]
    fn rate_fault_is_deterministic_and_roughly_calibrated() {
        let mut plan = FaultPlan::reliable();
        plan.rate(RateFault {
            link: Some(link()),
            per_mille: 100,
            action: FaultAction::Drop,
            salt: 7,
        });
        let verdicts: Vec<FaultAction> = (0..10_000)
            .map(|i| plan.decide(&link(), i, MessageKind::Request))
            .collect();
        let again: Vec<FaultAction> = (0..10_000)
            .map(|i| plan.decide(&link(), i, MessageKind::Request))
            .collect();
        assert_eq!(verdicts, again, "pure function of (salt, link, index)");
        let hit = verdicts.iter().filter(|v| **v == FaultAction::Drop).count();
        // 10% nominal; allow a generous band for the hash distribution.
        assert!((700..1300).contains(&hit), "hit {hit} of 10000");
        // A different link with a link-scoped rate is untouched.
        assert_eq!(
            plan.decide(&LinkKey::new("x", "y"), 0, MessageKind::Request),
            FaultAction::Deliver
        );
    }

    #[test]
    fn rate_salts_pick_different_message_sets() {
        let plan_for = |salt: u64| {
            let mut p = FaultPlan::reliable();
            p.rate(RateFault {
                link: None,
                per_mille: 50,
                action: FaultAction::Drop,
                salt,
            });
            p
        };
        let a = plan_for(1);
        let b = plan_for(2);
        let picks = |p: &FaultPlan| -> Vec<u64> {
            (0..2000)
                .filter(|&i| p.decide(&link(), i, MessageKind::Request) == FaultAction::Drop)
                .collect()
        };
        assert_ne!(picks(&a), picks(&b));
    }

    #[test]
    fn point_fault_overrides_rate() {
        let mut plan = FaultPlan::reliable();
        plan.rate(RateFault {
            link: None,
            per_mille: 1000,
            action: FaultAction::Drop,
            salt: 0,
        });
        plan.schedule(ScheduledFault {
            link: link(),
            message_index: 5,
            action: FaultAction::Deliver,
        });
        assert_eq!(
            plan.decide(&link(), 5, MessageKind::Request),
            FaultAction::Deliver
        );
        assert_eq!(
            plan.decide(&link(), 6, MessageKind::Request),
            FaultAction::Drop
        );
    }

    #[test]
    fn rates_survive_serde() {
        let mut plan = FaultPlan::reliable();
        plan.rate(RateFault {
            link: Some(link()),
            per_mille: 15,
            action: FaultAction::Drop,
            salt: 42,
        });
        plan.rate(RateFault {
            link: None,
            per_mille: 3,
            action: FaultAction::Duplicate,
            salt: 43,
        });
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back.rate_count(), 2);
        for i in 0..5000 {
            assert_eq!(
                plan.decide(&link(), i, MessageKind::Request),
                back.decide(&link(), i, MessageKind::Request)
            );
        }
    }
}

//! Service data elements (SDEs).
//!
//! OGSI's state-exposure mechanism: a service publishes named, timestamped
//! JSON values that any authorized party can inspect or subscribe to. The
//! paper leans on two patterns this module implements directly:
//!
//! * *one SDE per NTCP transaction* — name, state, requested actions,
//!   timeouts, results, and per-state-change timestamps (§2.1);
//! * *a "most recently changed" SDE* used "to monitor the behavior of the
//!   server as a whole".
//!
//! A value can be rendered when it is read rather than on every change:
//! [`ServiceData::touch`] records the change (version, timestamps, most
//! recently changed) and marks the element stale, and the owner calls
//! [`ServiceData::refresh`] before handing the set to a reader. NTCP
//! publishes three transaction changes per site-step that nobody reads
//! unless an observer queries, so it renders them on read.

use std::collections::BTreeMap;

use crossbeam::channel::{unbounded, Receiver, Sender};
use serde::{Deserialize, Serialize};
use serde_json::Value;

use neesgrid_gridsim::SimTime;

/// One named piece of exposed service state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceDataElement {
    /// Element name, unique within a service.
    pub name: String,
    /// Current value.
    pub value: Value,
    /// When the element was created.
    pub created_at: SimTime,
    /// When the element last changed.
    pub modified_at: SimTime,
    /// Monotonic per-element version, bumped on every change.
    pub version: u64,
}

/// A change event delivered to subscribers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SdeChange {
    /// Name of the element that changed.
    pub name: String,
    /// The new value.
    pub value: Value,
    /// Time of the change.
    pub at: SimTime,
    /// New version of the element.
    pub version: u64,
}

/// An element plus whether its value still has to be rendered.
#[derive(Debug)]
struct Slot {
    element: ServiceDataElement,
    stale: bool,
}

/// The service-data set of one grid service.
///
/// Not internally synchronized: the owning service (or its container thread)
/// is the single writer; remote reads arrive via service operations on the
/// same thread.
#[derive(Debug, Default)]
pub struct ServiceData {
    elements: BTreeMap<String, Slot>,
    subscribers: Vec<(String, Sender<SdeChange>)>,
    most_recently_changed: Option<String>,
}

impl ServiceData {
    /// An empty service-data set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create or update an element, notifying subscribers.
    pub fn set(&mut self, name: impl Into<String>, value: Value, now: SimTime) {
        let slot = self.record(name.into(), now);
        slot.element.value = value;
        slot.stale = false;
        self.notify_last(now);
    }

    /// Record a change to an element whose value is rendered later: bump
    /// the version, stamp the times and make it the most recently changed,
    /// as [`ServiceData::set`] does, but leave the value stale until the
    /// next [`ServiceData::refresh`]. A subscriber whose pattern matches
    /// still receives the change now, with `render()` as its value.
    pub fn touch(&mut self, name: impl Into<String>, now: SimTime, render: impl FnOnce() -> Value) {
        let name = name.into();
        let watched = self
            .subscribers
            .iter()
            .any(|(pattern, _)| name_matches(pattern, &name));
        let slot = self.record(name, now);
        slot.stale = !watched;
        if watched {
            slot.element.value = render();
            self.notify_last(now);
        }
    }

    /// Render every stale element: `render(name)` gives its current value,
    /// or `None` to keep the last one rendered. Owners that
    /// [`ServiceData::touch`] call this before any read.
    pub fn refresh(&mut self, mut render: impl FnMut(&str) -> Option<Value>) {
        for slot in self.elements.values_mut().filter(|slot| slot.stale) {
            if let Some(value) = render(&slot.element.name) {
                slot.element.value = value;
            }
            slot.stale = false;
        }
    }

    /// Bump (or create at version 1) the element `name` and make it the
    /// most recently changed.
    fn record(&mut self, name: String, now: SimTime) -> &mut Slot {
        let slot = self.elements.entry(name).or_insert_with_key(|name| Slot {
            element: ServiceDataElement {
                name: name.clone(),
                value: Value::Null,
                created_at: now,
                modified_at: now,
                version: 0,
            },
            stale: false,
        });
        slot.element.modified_at = now;
        slot.element.version += 1;
        if self.most_recently_changed.as_deref() != Some(slot.element.name.as_str()) {
            self.most_recently_changed = Some(slot.element.name.clone());
        }
        slot
    }

    /// Send the most recently changed element to every subscriber whose
    /// pattern matches, dropping subscribers that hung up.
    fn notify_last(&mut self, now: SimTime) {
        if self.subscribers.is_empty() {
            return;
        }
        let Some(el) = self
            .most_recently_changed
            .as_deref()
            .and_then(|n| self.elements.get(n))
            .map(|slot| &slot.element)
        else {
            return;
        };
        self.subscribers.retain(|(pattern, tx)| {
            !name_matches(pattern, &el.name)
                || tx
                    .send(SdeChange {
                        name: el.name.clone(),
                        value: el.value.clone(),
                        at: now,
                        version: el.version,
                    })
                    .is_ok()
        });
    }

    /// Inspect one element.
    pub fn get(&self, name: &str) -> Option<&ServiceDataElement> {
        self.elements.get(name).map(|slot| &slot.element)
    }

    /// Remove an element (e.g. a destroyed transaction).
    pub fn remove(&mut self, name: &str) -> Option<ServiceDataElement> {
        self.elements.remove(name).map(|slot| slot.element)
    }

    /// All elements matching a pattern (`*` suffix wildcard), by name.
    pub fn query(&self, pattern: &str) -> Vec<&ServiceDataElement> {
        self.elements
            .values()
            .map(|slot| &slot.element)
            .filter(|el| name_matches(pattern, &el.name))
            .collect()
    }

    /// The element changed most recently, if any — the whole-server
    /// monitoring hook from §2.1.
    pub fn most_recently_changed(&self) -> Option<&ServiceDataElement> {
        self.most_recently_changed
            .as_deref()
            .and_then(|n| self.get(n))
    }

    /// Subscribe to changes of elements matching `pattern`
    /// (exact name, or prefix ending in `*`).
    pub fn subscribe(&mut self, pattern: impl Into<String>) -> Receiver<SdeChange> {
        let (tx, rx) = unbounded();
        self.subscribers.push((pattern.into(), tx));
        rx
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }
}

/// `pattern` matches `name` if equal, or if pattern ends in `*` and the rest
/// is a prefix of `name`.
fn name_matches(pattern: &str, name: &str) -> bool {
    match pattern.strip_suffix('*') {
        Some(prefix) => name.starts_with(prefix),
        None => pattern == name,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn set_then_get() {
        let mut sd = ServiceData::new();
        sd.set(
            "transaction/t1",
            json!({"state": "Proposed"}),
            SimTime::from_secs(1),
        );
        let el = sd.get("transaction/t1").unwrap();
        assert_eq!(el.value["state"], "Proposed");
        assert_eq!(el.version, 1);
        assert_eq!(el.created_at, SimTime::from_secs(1));
    }

    #[test]
    fn update_bumps_version_and_modified() {
        let mut sd = ServiceData::new();
        sd.set("x", json!(1), SimTime::from_secs(1));
        sd.set("x", json!(2), SimTime::from_secs(5));
        let el = sd.get("x").unwrap();
        assert_eq!(el.version, 2);
        assert_eq!(el.created_at, SimTime::from_secs(1));
        assert_eq!(el.modified_at, SimTime::from_secs(5));
    }

    #[test]
    fn most_recently_changed_tracks_latest() {
        let mut sd = ServiceData::new();
        sd.set("a", json!(1), SimTime::from_secs(1));
        sd.set("b", json!(2), SimTime::from_secs(2));
        assert_eq!(sd.most_recently_changed().unwrap().name, "b");
        sd.set("a", json!(3), SimTime::from_secs(3));
        assert_eq!(sd.most_recently_changed().unwrap().name, "a");
    }

    #[test]
    fn query_with_wildcard() {
        let mut sd = ServiceData::new();
        sd.set("transaction/t1", json!(1), SimTime::ZERO);
        sd.set("transaction/t2", json!(2), SimTime::ZERO);
        sd.set("serverInfo", json!(3), SimTime::ZERO);
        let names: Vec<&str> = sd
            .query("transaction/*")
            .iter()
            .map(|e| e.name.as_str())
            .collect();
        assert_eq!(names, vec!["transaction/t1", "transaction/t2"]);
        assert_eq!(sd.query("*").len(), 3);
        assert_eq!(sd.query("serverInfo").len(), 1);
        assert_eq!(sd.query("nope").len(), 0);
    }

    #[test]
    fn subscription_receives_matching_changes() {
        let mut sd = ServiceData::new();
        let rx = sd.subscribe("transaction/*");
        sd.set(
            "transaction/t1",
            json!({"state": "Executing"}),
            SimTime::from_secs(2),
        );
        sd.set("other", json!(0), SimTime::from_secs(3));
        let ev = rx.try_recv().unwrap();
        assert_eq!(ev.name, "transaction/t1");
        assert_eq!(ev.version, 1);
        assert!(rx.try_recv().is_err(), "non-matching change not delivered");
    }

    #[test]
    fn dropped_subscriber_is_pruned() {
        let mut sd = ServiceData::new();
        let rx = sd.subscribe("*");
        drop(rx);
        // First set after drop prunes the dead subscriber.
        sd.set("a", json!(1), SimTime::ZERO);
        sd.set("a", json!(2), SimTime::ZERO);
        assert_eq!(sd.get("a").unwrap().version, 2);
    }

    #[test]
    fn touched_element_renders_on_refresh() {
        let mut sd = ServiceData::new();
        sd.touch("transaction/t1", SimTime::from_secs(1), || unreachable!());
        sd.touch("transaction/t1", SimTime::from_secs(4), || unreachable!());
        let el = sd.get("transaction/t1").unwrap();
        assert_eq!(el.version, 2);
        assert_eq!(el.created_at, SimTime::from_secs(1));
        assert_eq!(el.modified_at, SimTime::from_secs(4));
        assert_eq!(sd.most_recently_changed().unwrap().name, "transaction/t1");
        let mut rendered = Vec::new();
        sd.refresh(|name| {
            rendered.push(name.to_string());
            Some(json!({ "state": "Completed" }))
        });
        assert_eq!(rendered, ["transaction/t1"], "one render per stale element");
        assert_eq!(
            sd.get("transaction/t1").unwrap().value["state"],
            "Completed"
        );
        sd.refresh(|_| unreachable!("nothing is stale"));
    }

    #[test]
    fn subscriber_receives_every_touch_in_order_with_the_value_at_change_time() {
        let mut sd = ServiceData::new();
        let rx = sd.subscribe("transaction/*");
        for (i, state) in ["Accepted", "Executing", "Completed"].iter().enumerate() {
            sd.touch(
                "transaction/t1",
                SimTime::from_secs(i as u64),
                || json!({ "state": state }),
            );
        }
        sd.touch("serverInfo", SimTime::from_secs(9), || unreachable!());
        let seen: Vec<(u64, Value, SimTime)> = std::iter::from_fn(|| rx.try_recv().ok())
            .map(|c| (c.version, c.value, c.at))
            .collect();
        assert_eq!(
            seen,
            vec![
                (1, json!({"state": "Accepted"}), SimTime::from_secs(0)),
                (2, json!({"state": "Executing"}), SimTime::from_secs(1)),
                (3, json!({"state": "Completed"}), SimTime::from_secs(2)),
            ]
        );
        // A watched element was rendered when it changed, so it is current
        // without a refresh.
        assert_eq!(
            sd.get("transaction/t1").unwrap().value["state"],
            "Completed"
        );
    }

    #[test]
    fn set_over_a_stale_element_wins_over_refresh() {
        let mut sd = ServiceData::new();
        sd.touch("x", SimTime::ZERO, || unreachable!());
        sd.set("x", json!(2), SimTime::from_secs(1));
        sd.refresh(|_| unreachable!("set rendered the element"));
        assert_eq!(sd.get("x").unwrap().value, json!(2));
        assert_eq!(sd.get("x").unwrap().version, 2);
    }

    #[test]
    fn remove_deletes_element() {
        let mut sd = ServiceData::new();
        sd.set("x", json!(1), SimTime::ZERO);
        assert!(sd.remove("x").is_some());
        assert!(sd.get("x").is_none());
        assert!(sd.is_empty());
    }
}

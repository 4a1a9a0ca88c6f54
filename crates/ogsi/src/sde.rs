//! Service data elements (SDEs).
//!
//! OGSI's state-exposure mechanism: a service publishes named, timestamped
//! JSON values that any authorized party can inspect. The paper leans on
//! two patterns this module implements directly:
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

/// An element plus whether its value still has to be rendered.
#[derive(Debug)]
struct Slot {
    element: ServiceDataElement,
    stale: bool,
}

/// The service-data set of one grid service.
///
/// Not internally synchronized: the owning service is the single writer;
/// remote reads arrive via service operations on the same thread.
#[derive(Debug, Default)]
pub struct ServiceData {
    elements: BTreeMap<String, Slot>,
    most_recently_changed: Option<String>,
}

impl ServiceData {
    /// An empty service-data set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create or update an element.
    pub fn set(&mut self, name: &str, value: Value, now: SimTime) {
        let slot = self.record(name, now);
        slot.element.value = value;
        slot.stale = false;
    }

    /// Record a change to an element whose value is rendered later: bump
    /// the version, stamp the times and make it the most recently changed,
    /// as [`ServiceData::set`] does, but leave the value stale until the
    /// next [`ServiceData::refresh`].
    pub fn touch(&mut self, name: &str, now: SimTime) {
        self.record(name, now).stale = true;
    }

    /// Remove every element `keep` refuses, by name. The most recently
    /// changed element, once removed, is no longer reported.
    pub fn retain(&mut self, mut keep: impl FnMut(&str) -> bool) {
        self.elements.retain(|name, _| keep(name));
        if let Some(name) = &self.most_recently_changed {
            if !self.elements.contains_key(name) {
                self.most_recently_changed = None;
            }
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
    /// most recently changed. Only a new element copies its name.
    fn record(&mut self, name: &str, now: SimTime) -> &mut Slot {
        match &mut self.most_recently_changed {
            Some(last) if last == name => {}
            Some(last) => {
                last.clear();
                last.push_str(name);
            }
            None => self.most_recently_changed = Some(name.to_string()),
        }
        if !self.elements.contains_key(name) {
            let element = ServiceDataElement {
                name: name.to_string(),
                value: Value::Null,
                created_at: now,
                modified_at: now,
                version: 0,
            };
            self.elements.insert(
                name.to_string(),
                Slot {
                    element,
                    stale: false,
                },
            );
        }
        let slot = self
            .elements
            .get_mut(name)
            .expect("the element was just found or made");
        slot.element.modified_at = now;
        slot.element.version += 1;
        slot
    }

    /// Inspect one element.
    pub fn get(&self, name: &str) -> Option<&ServiceDataElement> {
        self.elements.get(name).map(|slot| &slot.element)
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
    fn touched_element_renders_on_refresh() {
        let mut sd = ServiceData::new();
        sd.touch("transaction/t1", SimTime::from_secs(1));
        sd.touch("transaction/t1", SimTime::from_secs(4));
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
    fn retain_removes_elements_and_forgets_a_removed_most_recent_one() {
        let mut sd = ServiceData::new();
        sd.set("serverInfo", json!(0), SimTime::ZERO);
        sd.touch("transaction/t1", SimTime::from_secs(1));
        sd.touch("transaction/t2", SimTime::from_secs(2));
        sd.retain(|name| name != "transaction/t1");
        assert!(sd.get("transaction/t1").is_none());
        assert_eq!(sd.len(), 2);
        assert_eq!(sd.most_recently_changed().unwrap().name, "transaction/t2");
        sd.retain(|name| name == "serverInfo");
        assert!(sd.most_recently_changed().is_none());
        sd.touch("transaction/t2", SimTime::from_secs(3));
        let el = sd.most_recently_changed().unwrap();
        assert_eq!((el.name.as_str(), el.version), ("transaction/t2", 1));
    }

    #[test]
    fn set_over_a_stale_element_wins_over_refresh() {
        let mut sd = ServiceData::new();
        sd.touch("x", SimTime::ZERO);
        sd.set("x", json!(2), SimTime::from_secs(1));
        sd.refresh(|_| unreachable!("set rendered the element"));
        assert_eq!(sd.get("x").unwrap().value, json!(2));
        assert_eq!(sd.get("x").unwrap().version, 2);
    }
}

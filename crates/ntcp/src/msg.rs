//! NTCP message types.
//!
//! Control points are the protocol's unit of commanded motion: a named
//! actuator/DOF with a target displacement, a rate bound, and the force the
//! client expects the motion to develop (so the site can police its limits
//! *at proposal time*, per §4's safety requirements).

use serde::{Deserialize, Serialize, Serializer};
use serde_json::{json, RawValue};

use neesgrid_gridsim::SimTime;

/// One requested control-point action within a proposal.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ControlPoint {
    /// Control-point name, site-local (e.g. `"actuator-1"`, `"dof-0"`).
    pub name: String,
    /// Target displacement, m.
    pub displacement_m: f64,
    /// Commanded velocity bound, m/s (0 = quasi-static default rate).
    pub velocity_mps: f64,
    /// Force the client expects this motion to develop, N (policed against
    /// site limits before acceptance).
    pub expected_force_n: f64,
}

impl ControlPoint {
    /// A quasi-static displacement command with a force estimate.
    pub fn displacement(
        name: impl Into<String>,
        displacement_m: f64,
        expected_force_n: f64,
    ) -> Self {
        ControlPoint {
            name: name.into(),
            displacement_m,
            velocity_mps: 0.0,
            expected_force_n,
        }
    }
}

/// Measured outcome for one control point after execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ControlPointResult {
    /// Control-point name, matching the request.
    pub name: String,
    /// Achieved displacement, m (as measured by the site's sensors).
    pub displacement_m: f64,
    /// Measured restoring force, N.
    pub force_n: f64,
}

/// The server's verdict on a proposal.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ProposalDecision {
    /// Actions are acceptable; `execute` may proceed.
    Accepted,
    /// Actions refused (policy violation, infeasible, duplicate name…).
    Rejected {
        /// Human-readable reason.
        reason: String,
    },
}

/// Wire body of a `propose` operation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProposeBody {
    /// Client-chosen transaction name, unique per server.
    pub transaction: String,
    /// Requested actions.
    pub actions: Vec<ControlPoint>,
    /// How long execution may take before the client considers it failed.
    pub timeout: SimTime,
}

/// Wire body of `execute` / `cancel` / `getTransaction` operations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransactionRef {
    /// The transaction name.
    pub transaction: String,
}

/// Wire body of a `restoreSite` operation: the state document a
/// `snapshotSite` reply carried, sent as the JSON text it arrived in.
pub(crate) struct RestoreBody<'a> {
    /// The site's state document.
    pub snapshot: &'a RawValue,
}

impl Serialize for RestoreBody<'_> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_value(json!({ "snapshot": self.snapshot }))
    }

    fn write_json(&self, out: &mut String) {
        out.push_str("{\"snapshot\":");
        self.snapshot.write_json(out);
        out.push('}');
    }
}

/// Wire body of an `execute` response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecuteResponse {
    /// Measured per-control-point results.
    pub results: Vec<ControlPointResult>,
    /// Virtual time execution took (actuator ramp + settle, or simulation
    /// compute time).
    pub duration: SimTime,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_point_constructor() {
        let cp = ControlPoint::displacement("actuator-1", 0.005, 1500.0);
        assert_eq!(cp.name, "actuator-1");
        assert_eq!(cp.displacement_m, 0.005);
        assert_eq!(cp.velocity_mps, 0.0);
        assert_eq!(cp.expected_force_n, 1500.0);
    }

    #[test]
    fn propose_body_roundtrip() {
        let body = ProposeBody {
            transaction: "step-0001".into(),
            actions: vec![ControlPoint::displacement("dof-0", 0.001, 200.0)],
            timeout: SimTime::from_secs(10),
        };
        let json = serde_json::to_string(&body).unwrap();
        let back: ProposeBody = serde_json::from_str(&json).unwrap();
        assert_eq!(back, body);
    }

    #[test]
    fn decision_serializes_distinguishably() {
        let a = serde_json::to_value(ProposalDecision::Accepted).unwrap();
        let r = serde_json::to_value(ProposalDecision::Rejected {
            reason: "too big".into(),
        })
        .unwrap();
        assert_ne!(a, r);
        let back: ProposalDecision = serde_json::from_value(r).unwrap();
        assert!(matches!(back, ProposalDecision::Rejected { reason } if reason == "too big"));
    }

    #[test]
    fn execute_response_roundtrip() {
        let resp = ExecuteResponse {
            results: vec![ControlPointResult {
                name: "dof-0".into(),
                displacement_m: 0.00098,
                force_n: 196.2,
            }],
            duration: SimTime::from_secs(8),
        };
        let back: ExecuteResponse =
            serde_json::from_str(&serde_json::to_string(&resp).unwrap()).unwrap();
        assert_eq!(back, resp);
    }
}

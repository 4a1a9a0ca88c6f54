//! The NTCP control-plugin interface (paper Figure 2) and the two
//! software plugins used in MOST.
//!
//! The NTCP server implements the generic protocol; a
//! [`ControlPlugin`] maps accepted actions onto the site's control system
//! or simulation engine. MOST ran three configurations (Figure 9):
//!
//! * UIUC — a plugin bridging to the Shore-Western servo-hydraulic
//!   controller (implemented in `neesgrid-apparatus::integration`);
//! * NCSA — the **"Mplugin"**: instead of pushing requests to the backend,
//!   it buffers them, and the MATLAB simulation *polls* for work and posts
//!   results back ([`BufferedPlugin`] here);
//! * CU — the same Mplugin code, with the polling backend forwarding to an
//!   xPC real-time target.
//!
//! [`SimulationPlugin`] drives any [`neesgrid_structsim::Substructure`]
//! directly — the configuration the all-simulation MOST rehearsal used, and
//! the reason "the use of NTCP made this substitution transparent to the
//! coordinator". [`HumanApprovalPlugin`] wraps another plugin with a
//! human-in-the-loop gate, as used "during initial testing at UIUC" (§4).

use neesgrid_gridsim::SimTime;
use neesgrid_structsim::Substructure;

use crate::msg::{ControlPoint, ControlPointResult};

/// A plugin-level failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PluginError {
    /// What happened.
    pub message: String,
    /// Whether the same request may be retried.
    pub retryable: bool,
}

impl PluginError {
    /// A permanent failure.
    pub fn permanent(message: impl Into<String>) -> Self {
        PluginError {
            message: message.into(),
            retryable: false,
        }
    }

    /// A transient failure.
    pub fn transient(message: impl Into<String>) -> Self {
        PluginError {
            message: message.into(),
            retryable: true,
        }
    }
}

impl std::fmt::Display for PluginError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for PluginError {}

/// Outcome of a plugin execution: measured results plus the virtual time
/// the action took (actuator ramp + settle, or simulation compute time).
#[derive(Debug, Clone, PartialEq)]
pub struct ExecuteOutcome {
    /// Per-control-point measurements.
    pub results: Vec<ControlPointResult>,
    /// Virtual duration of the execution.
    pub duration: SimTime,
}

/// Site-specific control backend behind an NTCP server.
pub trait ControlPlugin: Send {
    /// Plugin name for diagnostics.
    fn name(&self) -> &str;

    /// Feasibility review during proposal (beyond site policy): can the
    /// local system perform these actions? Errors reject the proposal.
    fn review(&mut self, actions: &[ControlPoint]) -> Result<(), String>;

    /// Drive the actions and return measurements.
    fn execute(&mut self, actions: &[ControlPoint]) -> Result<ExecuteOutcome, PluginError>;

    /// Withdraw an accepted-but-unexecuted set of actions (most plugins
    /// have nothing to do; hardware plugins may release holds).
    fn cancel(&mut self, _actions: &[ControlPoint]) -> Result<(), PluginError> {
        Ok(())
    }

    /// Checkpointable backend state, or `None` if this backend cannot be
    /// snapshotted (hardware rigs, polling backends whose state lives in
    /// an external process). A site whose plugin returns `None` still
    /// checkpoints its protocol state — just not the specimen's.
    fn state(&self) -> Option<serde_json::Value> {
        None
    }

    /// Restore backend state captured by [`ControlPlugin::state`]. The
    /// default refuses, mirroring the physical reality that a specimen
    /// cannot be rewound.
    fn restore(&mut self, _state: &serde_json::Value) -> Result<(), PluginError> {
        Err(PluginError::permanent(format!(
            "{}: plugin does not support state restore",
            self.name()
        )))
    }
}

/// A plugin that drives a numerical substructure directly.
///
/// Control points are mapped to interface DOFs **by position**: the i-th
/// action in the proposal drives local DOF i.
pub struct SimulationPlugin {
    name: String,
    substructure: Box<dyn Substructure>,
    /// Virtual compute time charged per execution (models the "Pentium
    /// 2.4 GHz Windows machine" at NCSA doing its per-step solve).
    pub compute_time: SimTime,
    executions: u64,
}

impl SimulationPlugin {
    /// Wrap a substructure.
    pub fn new(name: impl Into<String>, substructure: Box<dyn Substructure>) -> Self {
        SimulationPlugin {
            name: name.into(),
            substructure,
            compute_time: SimTime::from_millis(50),
            executions: 0,
        }
    }

    /// Number of executions performed (at-most-once test hook).
    pub fn executions(&self) -> u64 {
        self.executions
    }
}

impl ControlPlugin for SimulationPlugin {
    fn name(&self) -> &str {
        &self.name
    }

    fn review(&mut self, actions: &[ControlPoint]) -> Result<(), String> {
        if actions.len() != self.substructure.interface_dofs() {
            return Err(format!(
                "{}: substructure has {} interface DOF(s), proposal has {} action(s)",
                self.name,
                self.substructure.interface_dofs(),
                actions.len()
            ));
        }
        Ok(())
    }

    fn execute(&mut self, actions: &[ControlPoint]) -> Result<ExecuteOutcome, PluginError> {
        let displacements: Vec<f64> = actions.iter().map(|a| a.displacement_m).collect();
        let forces = self
            .substructure
            .restoring(&displacements)
            .map_err(|e| PluginError::permanent(e.message.clone()))?;
        self.substructure
            .commit()
            .map_err(|e| PluginError::permanent(e.message.clone()))?;
        self.executions += 1;
        Ok(ExecuteOutcome {
            results: actions
                .iter()
                .zip(&forces)
                .map(|(a, &f)| ControlPointResult {
                    name: a.name.clone(),
                    displacement_m: a.displacement_m,
                    force_n: f,
                })
                .collect(),
            duration: self.compute_time,
        })
    }

    fn state(&self) -> Option<serde_json::Value> {
        let elements = self.substructure.snapshot_state()?;
        Some(serde_json::json!({
            "executions": self.executions,
            "elements": elements,
        }))
    }

    fn restore(&mut self, state: &serde_json::Value) -> Result<(), PluginError> {
        let elements: Vec<Vec<f64>> =
            serde_json::from_value(state["elements"].clone()).map_err(|e| {
                PluginError::permanent(format!("{}: bad element state: {e}", self.name))
            })?;
        self.substructure
            .restore_state(&elements)
            .map_err(|e| PluginError::permanent(format!("{}: {}", self.name, e.message)))?;
        self.executions = state["executions"].as_u64().unwrap_or(0);
        Ok(())
    }
}

/// The polling backend behind a [`BufferedPlugin`]: what the MATLAB
/// simulation (NCSA) or the xPC bridge (CU) did with each job it polled.
type Backend = Box<dyn FnMut(&[ControlPoint]) -> Result<ExecuteOutcome, PluginError> + Send>;

/// The buffered/polled plugin ("Mplugin", §3.1).
///
/// In the deployment, the plugin buffered each accepted job and the
/// backend process polled for it and posted the result back. Here the
/// backend is a closure run inline at `execute`: the poll is instantaneous
/// in virtual time, so the execution costs exactly the duration the
/// backend reports, and nothing waits on a thread or on real time.
pub struct BufferedPlugin {
    name: String,
    backend: Backend,
}

impl BufferedPlugin {
    /// Create the plugin over its polling backend.
    pub fn new(
        name: impl Into<String>,
        backend: impl FnMut(&[ControlPoint]) -> Result<ExecuteOutcome, PluginError> + Send + 'static,
    ) -> Self {
        BufferedPlugin {
            name: name.into(),
            backend: Box::new(backend),
        }
    }
}

impl ControlPlugin for BufferedPlugin {
    fn name(&self) -> &str {
        &self.name
    }

    fn review(&mut self, _actions: &[ControlPoint]) -> Result<(), String> {
        // Feasibility is the backend's business; the buffer accepts
        // anything it can queue.
        Ok(())
    }

    fn execute(&mut self, actions: &[ControlPoint]) -> Result<ExecuteOutcome, PluginError> {
        (self.backend)(actions)
    }
}

/// Decision gate for [`HumanApprovalPlugin`].
pub type ApprovalGate = Box<dyn FnMut(&[ControlPoint]) -> bool + Send>;

/// Wraps a plugin with a human-in-the-loop approval gate (§4: "a
/// plugin/backend system that required a human to approve each action,
/// used only during initial testing at UIUC").
pub struct HumanApprovalPlugin {
    inner: Box<dyn ControlPlugin>,
    gate: ApprovalGate,
    denials: u64,
}

impl HumanApprovalPlugin {
    /// Wrap `inner` with an approval gate.
    pub fn new(inner: Box<dyn ControlPlugin>, gate: ApprovalGate) -> Self {
        HumanApprovalPlugin {
            inner,
            gate,
            denials: 0,
        }
    }

    /// Number of executions the operator refused.
    pub fn denials(&self) -> u64 {
        self.denials
    }
}

impl ControlPlugin for HumanApprovalPlugin {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn review(&mut self, actions: &[ControlPoint]) -> Result<(), String> {
        self.inner.review(actions)
    }

    fn execute(&mut self, actions: &[ControlPoint]) -> Result<ExecuteOutcome, PluginError> {
        if !(self.gate)(actions) {
            self.denials += 1;
            return Err(PluginError::permanent(
                "operator declined to approve the action",
            ));
        }
        self.inner.execute(actions)
    }

    fn cancel(&mut self, actions: &[ControlPoint]) -> Result<(), PluginError> {
        self.inner.cancel(actions)
    }

    fn state(&self) -> Option<serde_json::Value> {
        self.inner.state()
    }

    fn restore(&mut self, state: &serde_json::Value) -> Result<(), PluginError> {
        self.inner.restore(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neesgrid_structsim::{LinearElastic, SimulatedSubstructure};

    fn sim_plugin(k: f64) -> SimulationPlugin {
        SimulationPlugin::new(
            "ncsa-sim",
            Box::new(SimulatedSubstructure::spring_to_ground(
                "col",
                Box::new(LinearElastic::new(k)),
            )),
        )
    }

    #[test]
    fn simulation_plugin_returns_spring_force() {
        let mut p = sim_plugin(1.0e5);
        p.review(&[ControlPoint::displacement("dof-0", 0.01, 1000.0)])
            .unwrap();
        let out = p
            .execute(&[ControlPoint::displacement("dof-0", 0.01, 1000.0)])
            .unwrap();
        assert_eq!(out.results.len(), 1);
        assert!((out.results[0].force_n - 1000.0).abs() < 1e-9);
        assert_eq!(out.results[0].name, "dof-0");
        assert_eq!(p.executions(), 1);
    }

    #[test]
    fn simulation_plugin_rejects_wrong_arity() {
        let mut p = sim_plugin(1.0e5);
        let err = p
            .review(&[
                ControlPoint::displacement("a", 0.0, 0.0),
                ControlPoint::displacement("b", 0.0, 0.0),
            ])
            .unwrap_err();
        assert!(err.contains("1 interface DOF"));
    }

    #[test]
    fn buffered_plugin_roundtrip_through_backend() {
        let mut plugin = BufferedPlugin::new("mplugin", |actions| {
            Ok(ExecuteOutcome {
                results: actions
                    .iter()
                    .map(|a| ControlPointResult {
                        name: a.name.clone(),
                        displacement_m: a.displacement_m,
                        force_n: 2.0e5 * a.displacement_m,
                    })
                    .collect(),
                duration: SimTime::from_millis(120),
            })
        });
        let out = plugin
            .execute(&[ControlPoint::displacement("dof-0", 0.002, 400.0)])
            .unwrap();
        assert!((out.results[0].force_n - 400.0).abs() < 1e-9);
        assert_eq!(out.duration, SimTime::from_millis(120));
    }

    #[test]
    fn backend_errors_propagate() {
        let mut plugin = BufferedPlugin::new("mplugin", |_| {
            Err(PluginError::permanent("xPC target offline"))
        });
        let err = plugin
            .execute(&[ControlPoint::displacement("dof-0", 0.0, 0.0)])
            .unwrap_err();
        assert_eq!(err.message, "xPC target offline");
    }

    #[test]
    fn human_approval_gates_execution() {
        let inner = sim_plugin(1.0e5);
        let mut approvals = vec![true, false];
        let mut p = HumanApprovalPlugin::new(
            Box::new(inner),
            Box::new(move |_| approvals.pop().unwrap_or(false)),
        );
        // First call pops `false` → denied.
        let err = p
            .execute(&[ControlPoint::displacement("dof-0", 0.001, 100.0)])
            .unwrap_err();
        assert!(err.message.contains("declined"));
        assert_eq!(p.denials(), 1);
        // Second call pops `true` → approved.
        let out = p
            .execute(&[ControlPoint::displacement("dof-0", 0.001, 100.0)])
            .unwrap();
        assert!((out.results[0].force_n - 100.0).abs() < 1e-9);
    }

    #[test]
    fn plugin_state_accumulates_across_executions() {
        // A hysteretic substructure driven through the plugin keeps state
        // between transactions (the physical reality NTCP models).
        use neesgrid_structsim::BilinearHysteretic;
        let mut p = SimulationPlugin::new(
            "uiuc",
            Box::new(SimulatedSubstructure::spring_to_ground(
                "col",
                Box::new(BilinearHysteretic::new(1.0e5, 100.0, 0.1)),
            )),
        );
        p.execute(&[ControlPoint::displacement("dof-0", 0.01, 0.0)])
            .unwrap(); // yields
        let out = p
            .execute(&[ControlPoint::displacement("dof-0", 0.0, 0.0)])
            .unwrap();
        assert!(out.results[0].force_n < -10.0, "no plastic memory");
    }
}

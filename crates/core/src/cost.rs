//! The cost model (§2.3).
//!
//! "The cost of an action is … estimated based on the action profile and the
//! estimated costs of the atomic operations on the type of devices."
//! Sequential composition adds, parallel composition takes the maximum, and
//! rated operations (head movement) consume travel units derived from the
//! device's *probed physical status* — which is why probing precedes costing
//! in device-selection optimization.

use aorta_device::{AtomicCost, OpCostTable, PhysicalStatus, PtzPosition};
use aorta_sim::SimDuration;

use crate::actions::{ActionProfile, ProfileNode, UnitsSpec};

/// The execution context units are derived from.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostContext {
    /// Camera head: current (probed) position.
    pub from: Option<PtzPosition>,
    /// Camera head: target position of this action.
    pub to: Option<PtzPosition>,
    /// Sensor depth in the multi-hop network.
    pub depth: Option<u8>,
}

impl CostContext {
    /// A context for a camera movement from `from` to `to`.
    pub fn camera(from: PtzPosition, to: PtzPosition) -> Self {
        CostContext {
            from: Some(from),
            to: Some(to),
            depth: None,
        }
    }

    /// A context built from a probed status (target filled in separately).
    pub fn from_status(status: &PhysicalStatus) -> Self {
        match status {
            PhysicalStatus::CameraHead(p) => CostContext {
                from: Some(*p),
                to: None,
                depth: None,
            },
            PhysicalStatus::SensorLink { depth, .. } => CostContext {
                from: None,
                to: None,
                depth: Some(*depth),
            },
            PhysicalStatus::PhoneCoverage { .. } | PhysicalStatus::RfidField { .. } => {
                CostContext::default()
            }
        }
    }

    /// Sets the camera target, builder style.
    pub fn with_target(mut self, to: PtzPosition) -> Self {
        self.to = Some(to);
        self
    }

    fn units(&self, spec: UnitsSpec) -> Result<f64, String> {
        match spec {
            UnitsSpec::One => Ok(1.0),
            UnitsSpec::PanDelta | UnitsSpec::TiltDelta | UnitsSpec::ZoomDelta => {
                let (from, to) = match (self.from, self.to) {
                    (Some(f), Some(t)) => (f, t),
                    _ => {
                        return Err(format!(
                            "units spec {spec:?} needs camera from/to positions in the cost context"
                        ))
                    }
                };
                let (dp, dt, dz) = from.axis_distances(&to);
                Ok(match spec {
                    UnitsSpec::PanDelta => dp,
                    UnitsSpec::TiltDelta => dt,
                    _ => dz,
                })
            }
            UnitsSpec::DepthHops => self
                .depth
                .map(f64::from)
                .ok_or_else(|| "units spec DepthHops needs a sensor depth".to_string()),
        }
    }
}

/// Estimates the cost of executing an action, composing atomic-operation
/// costs per the profile.
///
/// # Errors
///
/// Returns a message when the profile references an operation missing from
/// the cost table, or when the context lacks the status a units spec needs.
pub fn estimate_action_cost(
    profile: &ActionProfile,
    table: &OpCostTable,
    ctx: &CostContext,
) -> Result<SimDuration, String> {
    ResolvedProfile::resolve(profile, table).evaluate(ctx)
}

/// An action profile resolved against its device kind's cost table: each
/// atomic operation holds its [`AtomicCost`], or — when the table lacks it —
/// the table's error naming it, so evaluating the profile looks nothing up
/// by name. Dispatch resolves a batch's profiles once and evaluates them per
/// (request, candidate); [`estimate_action_cost`] is resolve-then-evaluate.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ResolvedProfile {
    root: Resolved,
}

#[derive(Debug, Clone, PartialEq)]
enum Resolved {
    Op {
        cost: Result<AtomicCost, String>,
        units: UnitsSpec,
    },
    Seq(Vec<Resolved>),
    Par(Vec<Resolved>),
}

impl ResolvedProfile {
    /// Looks every operation of `profile` up in `table`, once.
    pub(crate) fn resolve(profile: &ActionProfile, table: &OpCostTable) -> Self {
        fn node(n: &ProfileNode, table: &OpCostTable) -> Resolved {
            match n {
                ProfileNode::Op { name, units } => Resolved::Op {
                    cost: table.require(name),
                    units: *units,
                },
                ProfileNode::Seq(children) => {
                    Resolved::Seq(children.iter().map(|c| node(c, table)).collect())
                }
                ProfileNode::Par(children) => {
                    Resolved::Par(children.iter().map(|c| node(c, table)).collect())
                }
            }
        }
        ResolvedProfile {
            root: node(&profile.root, table),
        }
    }

    /// The action's cost in `ctx`: sequential composition adds, parallel
    /// takes the maximum. The first failing operation in profile order —
    /// missing from the table, or lacking the context its units need —
    /// names the error.
    pub(crate) fn evaluate(&self, ctx: &CostContext) -> Result<SimDuration, String> {
        self.root.evaluate(ctx)
    }
}

impl Resolved {
    fn evaluate(&self, ctx: &CostContext) -> Result<SimDuration, String> {
        match self {
            Resolved::Op { cost, units } => {
                let cost = cost.as_ref().map_err(Clone::clone)?;
                Ok(cost.evaluate(ctx.units(*units)?))
            }
            Resolved::Seq(children) => {
                let mut total = SimDuration::ZERO;
                for c in children {
                    total += c.evaluate(ctx)?;
                }
                Ok(total)
            }
            Resolved::Par(children) => {
                let mut max = SimDuration::ZERO;
                for c in children {
                    max = max.max(c.evaluate(ctx)?);
                }
                Ok(max)
            }
        }
    }
}

/// The by-name profile walker [`ResolvedProfile`] replaced, kept as the
/// reference the resolved evaluator and the dispatch reference path are
/// compared against.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    /// [`super::estimate_action_cost`] as a walk that looks each operation
    /// up by name on every evaluation.
    pub(crate) fn estimate_action_cost(
        profile: &ActionProfile,
        table: &OpCostTable,
        ctx: &CostContext,
    ) -> Result<SimDuration, String> {
        estimate_node(&profile.root, table, ctx)
    }

    fn estimate_node(
        node: &ProfileNode,
        table: &OpCostTable,
        ctx: &CostContext,
    ) -> Result<SimDuration, String> {
        match node {
            ProfileNode::Op { name, units } => {
                let cost = table.require(name)?;
                Ok(cost.evaluate(ctx.units(*units)?))
            }
            ProfileNode::Seq(children) => {
                let mut total = SimDuration::ZERO;
                for c in children {
                    total += estimate_node(c, table, ctx)?;
                }
                Ok(total)
            }
            ProfileNode::Par(children) => {
                let mut max = SimDuration::ZERO;
                for c in children {
                    max = max.max(estimate_node(c, table, ctx)?);
                }
                Ok(max)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actions::ActionProfile;
    use aorta_device::{CameraSpec, DeviceKind, PhotoSize};

    fn camera_table() -> OpCostTable {
        OpCostTable::defaults_for(DeviceKind::Camera)
    }

    #[test]
    fn photo_estimate_matches_camera_kinematics() {
        let profile = ActionProfile::photo();
        let table = camera_table();
        let spec = CameraSpec::axis_2130();
        let from = PtzPosition::new(-20.0, 5.0, 0.1);
        let to = PtzPosition::new(120.0, -40.0, 0.8);
        let est = estimate_action_cost(&profile, &table, &CostContext::camera(from, to)).unwrap();
        let truth = spec.photo_time(&from, &to, PhotoSize::Medium);
        let diff = est.max(truth) - est.min(truth);
        assert!(
            diff <= SimDuration::from_micros(3),
            "estimate {est} vs ground truth {truth}"
        );
    }

    #[test]
    fn zero_movement_is_capture_only() {
        let est = estimate_action_cost(
            &ActionProfile::photo(),
            &camera_table(),
            &CostContext::camera(PtzPosition::HOME, PtzPosition::HOME),
        )
        .unwrap();
        assert_eq!(
            est,
            SimDuration::from_millis(360),
            "the paper's 0.36s floor"
        );
    }

    #[test]
    fn par_takes_max_seq_takes_sum() {
        let table = camera_table();
        // Pure pan (5s full travel) dominates tilt (1s of travel).
        let ctx = CostContext::camera(
            PtzPosition::new(-170.0, 0.0, 0.0),
            PtzPosition::new(170.0, 20.0, 0.0),
        );
        let par = ProfileNode::Par(vec![
            ProfileNode::Op {
                name: "move_head_pan".into(),
                units: UnitsSpec::PanDelta,
            },
            ProfileNode::Op {
                name: "move_head_tilt".into(),
                units: UnitsSpec::TiltDelta,
            },
        ]);
        let profile = ActionProfile {
            kind: DeviceKind::Camera,
            root: par.clone(),
        };
        let par_cost = estimate_action_cost(&profile, &table, &ctx).unwrap();
        // Per-unit table entries are rounded to whole microseconds, so allow
        // sub-millisecond slack against the exact 5 s kinematic value.
        assert!(
            (par_cost.as_secs_f64() - 5.0).abs() < 0.001,
            "par cost {par_cost}"
        );
        let seq_profile = ActionProfile {
            kind: DeviceKind::Camera,
            root: ProfileNode::Seq(vec![par.clone(), par]),
        };
        let seq_cost = estimate_action_cost(&seq_profile, &table, &ctx).unwrap();
        assert!(
            (seq_cost.as_secs_f64() - 10.0).abs() < 0.001,
            "seq cost {seq_cost}"
        );
    }

    #[test]
    fn sendphoto_estimate_is_connect_plus_mms() {
        let est = estimate_action_cost(
            &ActionProfile::sendphoto(),
            &OpCostTable::defaults_for(DeviceKind::Phone),
            &CostContext::default(),
        )
        .unwrap();
        assert_eq!(
            est,
            SimDuration::from_millis(1500) + SimDuration::from_secs(4)
        );
    }

    #[test]
    fn beep_cost_scales_with_depth() {
        let table = OpCostTable::defaults_for(DeviceKind::Sensor);
        let shallow = estimate_action_cost(
            &ActionProfile::beep(),
            &table,
            &CostContext {
                depth: Some(1),
                ..CostContext::default()
            },
        )
        .unwrap();
        let deep = estimate_action_cost(
            &ActionProfile::beep(),
            &table,
            &CostContext {
                depth: Some(4),
                ..CostContext::default()
            },
        )
        .unwrap();
        assert!(deep > shallow, "{shallow} vs {deep}");
    }

    #[test]
    fn missing_context_and_ops_are_errors() {
        let err = estimate_action_cost(
            &ActionProfile::photo(),
            &camera_table(),
            &CostContext::default(),
        )
        .unwrap_err();
        assert!(err.contains("cost context"), "{err}");

        let err = estimate_action_cost(
            &ActionProfile::photo(),
            &OpCostTable::new(DeviceKind::Camera),
            &CostContext::camera(PtzPosition::HOME, PtzPosition::HOME),
        )
        .unwrap_err();
        assert!(err.contains("no atomic operation"), "{err}");
    }

    /// A random profile tree: `Seq` and `Par` nest up to `depth` levels
    /// (empty ones included), and some ops name nothing in any table.
    fn random_node(rng: &mut aorta_sim::SimRng, depth: u32) -> ProfileNode {
        const NAMES: [&str; 9] = [
            "connect",
            "move_head_pan",
            "zoom",
            "capture_small",
            "connect_hop",
            "read_attr",
            "receive_mms",
            "scan_inventory",
            "warp_drive",
        ];
        const UNITS: [UnitsSpec; 5] = [
            UnitsSpec::One,
            UnitsSpec::PanDelta,
            UnitsSpec::TiltDelta,
            UnitsSpec::ZoomDelta,
            UnitsSpec::DepthHops,
        ];
        if depth == 0 || rng.chance(0.3) {
            return ProfileNode::Op {
                name: rng.pick(&NAMES).unwrap().to_string(),
                units: *rng.pick(&UNITS).unwrap(),
            };
        }
        let children = (0..rng.range(0..4usize))
            .map(|_| random_node(rng, depth - 1))
            .collect();
        if rng.chance(0.5) {
            ProfileNode::Seq(children)
        } else {
            ProfileNode::Par(children)
        }
    }

    fn position() -> impl proptest::strategy::Strategy<Value = Option<PtzPosition>> {
        use proptest::strategy::Strategy;
        proptest::option::of((-180.0..180.0f64, -90.0..90.0f64, 0.0..1.0f64))
            .prop_map(|p| p.map(|(pan, tilt, zoom)| PtzPosition::new(pan, tilt, zoom)))
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// The resolved evaluator is the by-name walker: on any profile tree
        /// against any kind's table, in any context, the same cost or the
        /// same error text.
        #[test]
        fn resolved_profiles_cost_like_the_by_name_walker(
            seed in 0u64..1_000_000,
            kind in 0usize..4,
            from in position(),
            to in position(),
            depth in proptest::option::of(0u8..8),
        ) {
            let mut rng = aorta_sim::SimRng::seed(seed);
            let kind = [
                DeviceKind::Camera,
                DeviceKind::Sensor,
                DeviceKind::Phone,
                DeviceKind::Rfid,
            ][kind];
            let profile = ActionProfile {
                kind,
                root: random_node(&mut rng, 4),
            };
            let table = OpCostTable::defaults_for(kind);
            let ctx = CostContext { from, to, depth };
            proptest::prop_assert_eq!(
                estimate_action_cost(&profile, &table, &ctx),
                reference::estimate_action_cost(&profile, &table, &ctx),
                "{:?}",
                profile
            );
        }
    }

    #[test]
    fn status_to_context() {
        let cam = CostContext::from_status(&PhysicalStatus::CameraHead(PtzPosition::HOME))
            .with_target(PtzPosition::new(10.0, 0.0, 0.0));
        assert_eq!(cam.from, Some(PtzPosition::HOME));
        assert!(cam.to.is_some());
        let sensor = CostContext::from_status(&PhysicalStatus::SensorLink {
            depth: 3,
            battery_volts: 3.0,
        });
        assert_eq!(sensor.depth, Some(3));
    }
}

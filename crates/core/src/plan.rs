//! Query planning: actions as first-class operators (§2.3).
//!
//! An action-embedded query like the paper's snapshot query has three
//! plannable parts:
//!
//! * an **event part** — the sensor-table scan plus the conjuncts that only
//!   touch it (`s.accel_x > 500`): evaluated every sampling epoch to detect
//!   events,
//! * an optional **device part** — the action-target table plus the
//!   conjuncts involving it (`coverage(c.id, s.loc)`): evaluated per event
//!   to compute the candidate device set,
//! * the **action operators** — the action calls in the projection, with
//!   their argument expressions.

use std::fmt;

use aorta_data::{Value, ValueType};
use aorta_device::pushdown::{PushAgg, PushOp};
use aorta_device::DeviceKind;
use aorta_sql::ast::{AggFunc, BinOp, Expr, Select};

use crate::catalog::Catalog;
use crate::EngineError;

/// The device (action-target) part of a plan.
#[derive(Debug, Clone, PartialEq)]
pub struct DevicePart {
    /// Binding name of the device table (`c`).
    pub binding: String,
    /// The device kind (from the table name).
    pub kind: DeviceKind,
    /// Conjuncts that involve the device binding (pure-device and
    /// cross-binding ones alike); a candidate must satisfy all of them.
    pub conjuncts: Vec<Expr>,
}

/// One windowed-aggregate comparison among a plan's event conjuncts:
/// `AGG(attr) OVER LAST n <op> constant` at conjunct index `idx`.
///
/// The planner only admits window aggregates in this shape (and only over
/// the event table), so detection can evaluate them from the device-resident
/// [`aorta_device::pushdown::SampleRing`]s and pushdown can count them as
/// decided on the device.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowedCmp {
    /// Index into [`AqPlan::event_conjuncts`].
    pub idx: usize,
    /// The aggregate function.
    pub agg: PushAgg,
    /// The aggregated event-table attribute.
    pub attr: String,
    /// Window length in samples.
    pub window: u32,
    /// Comparison operator, normalized so the aggregate is the left operand.
    pub op: PushOp,
    /// The literal the aggregate is compared against.
    pub constant: Value,
}

/// One action operator in the plan.
#[derive(Debug, Clone, PartialEq)]
pub struct ActionCallPlan {
    /// The registered action's name.
    pub action: String,
    /// Argument expressions (may reference both event and device bindings).
    pub args: Vec<Expr>,
}

/// A planned action-embedded continuous query.
#[derive(Debug, Clone, PartialEq)]
pub struct AqPlan {
    /// Engine-assigned query ID (tags tuples into shared action operators).
    pub query_id: u32,
    /// The query's registered name.
    pub name: String,
    /// Binding name of the event table (`s`).
    pub event_binding: String,
    /// The event table's device kind.
    pub event_kind: DeviceKind,
    /// Conjuncts involving only the event binding.
    pub event_conjuncts: Vec<Expr>,
    /// The windowed-aggregate comparisons among `event_conjuncts`, in
    /// ascending `idx` order. Empty for plans without window clauses —
    /// those run through the shared predicate index unchanged.
    pub windowed: Vec<WindowedCmp>,
    /// The action-target part, when the query embeds actions.
    pub device: Option<DevicePart>,
    /// The action operators.
    pub actions: Vec<ActionCallPlan>,
}

impl AqPlan {
    /// Builds a plan from a validated SELECT.
    ///
    /// # Errors
    ///
    /// [`EngineError::Planning`] when the query shape is outside the
    /// supported class: it must have exactly one event table, at most one
    /// device table (determined by the embedded actions' device kind), and
    /// every projection must be an action call registered in the catalog.
    pub fn plan(name: &str, select: &Select, catalog: &Catalog) -> Result<AqPlan, EngineError> {
        // Identify the action calls among the projections.
        let mut actions = Vec::new();
        for p in &select.projections {
            match p {
                Expr::Call { name, args } if catalog.action(name).is_some() => {
                    actions.push(ActionCallPlan {
                        action: name.clone(),
                        args: args.clone(),
                    });
                }
                other => {
                    return Err(EngineError::Planning(format!(
                        "projection '{other}' is not a registered action \
                         (continuous queries must project action calls)"
                    )))
                }
            }
        }
        if actions.is_empty() {
            return Err(EngineError::Planning(
                "an action-embedded query needs at least one action".into(),
            ));
        }
        // All actions must target the same device kind — they share the
        // device part.
        let kinds: Vec<DeviceKind> = actions
            .iter()
            .map(|a| catalog.action(&a.action).expect("checked above").kind())
            .collect();
        let action_kind = kinds[0];
        if kinds.iter().any(|&k| k != action_kind) {
            return Err(EngineError::Planning(
                "all actions in one query must target the same device kind".into(),
            ));
        }

        // Partition the FROM clause into the device table and event tables.
        let mut device_binding: Option<(String, DeviceKind)> = None;
        let mut event_binding: Option<(String, DeviceKind)> = None;
        for t in &select.tables {
            let kind: DeviceKind = t.table.parse().map_err(|e: String| {
                EngineError::Planning(format!("FROM references a non-device table: {e}"))
            })?;
            if kind == action_kind && device_binding.is_none() {
                device_binding = Some((t.binding().to_string(), kind));
            } else if event_binding.is_none() {
                event_binding = Some((t.binding().to_string(), kind));
            } else {
                return Err(EngineError::Planning(format!(
                    "unsupported query shape: more than one event table ('{}')",
                    t.binding()
                )));
            }
        }
        let (event_binding, event_kind) = event_binding.ok_or_else(|| {
            EngineError::Planning(
                "query has no event table (the action-target table cannot drive events)".into(),
            )
        })?;

        // Split the predicate conjuncts by the bindings they reference.
        let mut event_conjuncts = Vec::new();
        let mut device_conjuncts = Vec::new();
        if let Some(pred) = &select.predicate {
            for conjunct in pred.conjuncts() {
                if let Some((db, _)) = &device_binding {
                    if references_binding(conjunct, db) {
                        device_conjuncts.push(conjunct.clone());
                        continue;
                    }
                }
                event_conjuncts.push(conjunct.clone());
            }
        }

        // Window aggregates are detection-time constructs backed by
        // device-resident window state: they are only meaningful as whole
        // event conjuncts of the form `AGG(col) OVER LAST n <op> literal`.
        // Anywhere else — action arguments, device-part conjuncts, or a
        // conjunct of any other shape — there is no window to read from,
        // so the plan is rejected up front rather than erroring per tuple.
        for a in &actions {
            if a.args.iter().any(contains_window) {
                return Err(EngineError::Planning(format!(
                    "window aggregates cannot appear in action arguments \
                     (action '{}')",
                    a.action
                )));
            }
        }
        if let Some(c) = device_conjuncts.iter().find(|c| contains_window(c)) {
            return Err(EngineError::Planning(format!(
                "window aggregates must be over the event table, but '{c}' \
                 involves the action-target table"
            )));
        }
        let event_schema = crate::catalog::builtin_schema(event_kind);
        let mut windowed = Vec::new();
        for (idx, conjunct) in event_conjuncts.iter().enumerate() {
            if !contains_window(conjunct) {
                continue;
            }
            windowed.push(extract_windowed(
                conjunct,
                idx,
                &event_binding,
                event_schema,
            )?);
        }

        Ok(AqPlan {
            query_id: u32::MAX, // assigned at registration
            name: name.to_string(),
            event_binding,
            event_kind,
            event_conjuncts,
            windowed,
            device: device_binding.map(|(binding, kind)| DevicePart {
                binding,
                kind,
                conjuncts: device_conjuncts,
            }),
            actions,
        })
    }

    /// A minimal plan for catalog unit tests.
    #[doc(hidden)]
    pub fn test_dummy(name: &str) -> AqPlan {
        AqPlan {
            query_id: u32::MAX,
            name: name.to_string(),
            event_binding: "s".into(),
            event_kind: DeviceKind::Sensor,
            event_conjuncts: Vec::new(),
            windowed: Vec::new(),
            device: None,
            actions: vec![ActionCallPlan {
                action: "photo".into(),
                args: Vec::new(),
            }],
        }
    }
}

/// True when the expression contains a window-aggregate subexpression.
fn contains_window(expr: &Expr) -> bool {
    let mut found = false;
    expr.walk(&mut |e| {
        if matches!(e, Expr::WindowAgg { .. }) {
            found = true;
        }
    });
    found
}

fn push_op(op: BinOp) -> Option<PushOp> {
    match op {
        BinOp::Eq => Some(PushOp::Eq),
        BinOp::Ne => Some(PushOp::Ne),
        BinOp::Lt => Some(PushOp::Lt),
        BinOp::Le => Some(PushOp::Le),
        BinOp::Gt => Some(PushOp::Gt),
        BinOp::Ge => Some(PushOp::Ge),
        _ => None,
    }
}

fn push_agg(f: AggFunc) -> PushAgg {
    match f {
        AggFunc::Avg => PushAgg::Avg,
        AggFunc::Max => PushAgg::Max,
        AggFunc::Min => PushAgg::Min,
        AggFunc::Count => PushAgg::Count,
    }
}

/// Admits a window-bearing event conjunct only in the supported shape
/// `AGG(col) OVER LAST n <op> literal` (either operand order) with the
/// column on the event table and of a numeric type.
fn extract_windowed(
    conjunct: &Expr,
    idx: usize,
    event_binding: &str,
    event_schema: &aorta_data::Schema,
) -> Result<crate::plan::WindowedCmp, EngineError> {
    let shape_err = || {
        EngineError::Planning(format!(
            "window aggregate comparisons must have the form \
             'AGG(column) OVER LAST n <op> literal', got '{conjunct}'"
        ))
    };
    let Expr::Binary { op, lhs, rhs } = conjunct else {
        return Err(shape_err());
    };
    let Some(op) = push_op(*op) else {
        return Err(shape_err());
    };
    let (window_expr, constant, op) = match (lhs.as_ref(), rhs.as_ref()) {
        (w @ Expr::WindowAgg { .. }, Expr::Literal(v)) => (w, v.clone(), op),
        (Expr::Literal(v), w @ Expr::WindowAgg { .. }) => (w, v.clone(), op.flipped()),
        _ => return Err(shape_err()),
    };
    let Expr::WindowAgg { func, arg, window } = window_expr else {
        unreachable!("matched above");
    };
    let Expr::Column { qualifier, name } = arg.as_ref() else {
        return Err(shape_err());
    };
    if qualifier.as_deref().is_some_and(|q| q != event_binding) {
        return Err(EngineError::Planning(format!(
            "window aggregates must be over the event table ('{event_binding}'), \
             got '{window_expr}'"
        )));
    }
    let attr = event_schema.require(name).map_err(|e| {
        EngineError::Planning(format!("window aggregate over unknown attribute: {e}"))
    })?;
    if !matches!(attr.value_type(), ValueType::Int | ValueType::Float) {
        return Err(EngineError::Planning(format!(
            "{func} OVER LAST aggregates a numeric attribute, but '{name}' is \
             {:?}",
            attr.value_type()
        )));
    }
    Ok(crate::plan::WindowedCmp {
        idx,
        agg: push_agg(*func),
        attr: name.clone(),
        window: *window,
        op,
        constant,
    })
}

/// True when the expression mentions a column qualified by `binding`, or an
/// unqualified column (conservatively treated as possibly-device-related
/// only when qualified names don't say otherwise — unqualified columns bind
/// to the event table by planner convention, so they do not count).
fn references_binding(expr: &Expr, binding: &str) -> bool {
    let mut found = false;
    expr.walk(&mut |e| {
        if let Expr::Column {
            qualifier: Some(q), ..
        } = e
        {
            if q == binding {
                found = true;
            }
        }
    });
    found
}

impl fmt::Display for AqPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "AQ {} (id {})", self.name, self.query_id)?;
        writeln!(
            f,
            "  EventScan {} [{}]",
            self.event_binding,
            self.event_conjuncts
                .iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
                .join(" AND ")
        )?;
        if let Some(d) = &self.device {
            writeln!(
                f,
                "  CandidateFilter {} ({}) [{}]",
                d.binding,
                d.kind,
                d.conjuncts
                    .iter()
                    .map(|c| c.to_string())
                    .collect::<Vec<_>>()
                    .join(" AND ")
            )?;
        }
        for a in &self.actions {
            writeln!(
                f,
                "  ActionOp {}({})",
                a.action,
                a.args
                    .iter()
                    .map(|x| x.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aorta_sql::ast::Statement;
    use aorta_sql::parse;

    fn plan(sql: &str) -> Result<AqPlan, EngineError> {
        let catalog = Catalog::with_builtins();
        let stmts = parse(sql).unwrap();
        match stmts.into_iter().next().unwrap() {
            Statement::CreateAq(aq) => AqPlan::plan(&aq.name, &aq.select, &catalog),
            Statement::Select(s) => AqPlan::plan("adhoc", &s, &catalog),
            _ => panic!("expected a query"),
        }
    }

    #[test]
    fn plans_the_paper_snapshot_query() {
        let p = plan(
            r#"CREATE AQ snapshot AS SELECT photo(c.ip, s.loc, "photos/admin")
               FROM sensor s, camera c
               WHERE s.accel_x > 500 AND coverage(c.id, s.loc)"#,
        )
        .unwrap();
        assert_eq!(p.event_binding, "s");
        assert_eq!(p.event_kind, DeviceKind::Sensor);
        assert_eq!(p.event_conjuncts.len(), 1);
        assert_eq!(p.event_conjuncts[0].to_string(), "(s.accel_x > 500)");
        let d = p.device.as_ref().unwrap();
        assert_eq!(d.binding, "c");
        assert_eq!(d.kind, DeviceKind::Camera);
        assert_eq!(d.conjuncts.len(), 1);
        assert!(d.conjuncts[0].to_string().contains("coverage"));
        assert_eq!(p.actions.len(), 1);
        assert_eq!(p.actions[0].action, "photo");
    }

    #[test]
    fn display_shows_operators() {
        let p =
            plan(r#"SELECT photo(c.ip, s.loc, "d") FROM sensor s, camera c WHERE s.accel_x > 500"#)
                .unwrap();
        let text = p.to_string();
        assert!(text.contains("EventScan s"), "{text}");
        assert!(text.contains("CandidateFilter c (camera)"), "{text}");
        assert!(text.contains("ActionOp photo"), "{text}");
    }

    #[test]
    fn phone_action_query_plans() {
        let p = plan(
            r#"SELECT sendphoto(p.number, "photos/latest.jpg")
               FROM sensor s, phone p
               WHERE s.accel_x > 500 AND p.in_coverage = TRUE"#,
        )
        .unwrap();
        let d = p.device.unwrap();
        assert_eq!(d.kind, DeviceKind::Phone);
        assert_eq!(d.conjuncts.len(), 1);
        assert_eq!(p.event_conjuncts.len(), 1);
    }

    #[test]
    fn non_action_projection_rejected() {
        let err = plan("SELECT s.accel_x FROM sensor s").unwrap_err();
        assert!(err.to_string().contains("not a registered action"), "{err}");
    }

    #[test]
    fn missing_event_table_rejected() {
        let err = plan(r#"SELECT photo(c.ip, c.loc, "d") FROM camera c"#).unwrap_err();
        assert!(err.to_string().contains("no event table"), "{err}");
    }

    #[test]
    fn two_event_tables_rejected() {
        let err =
            plan(r#"SELECT photo(c.ip, s.loc, "d") FROM sensor s, phone p, camera c"#).unwrap_err();
        assert!(
            err.to_string().contains("more than one event table"),
            "{err}"
        );
    }

    #[test]
    fn mixed_action_kinds_rejected() {
        let err = plan(r#"SELECT photo(c.ip, s.loc, "d"), beep(s.id) FROM sensor s, camera c"#)
            .unwrap_err();
        assert!(err.to_string().contains("same device kind"), "{err}");
    }

    #[test]
    fn windowed_conjuncts_are_extracted() {
        let p = plan(
            r#"SELECT beep(t.id) FROM sensor t, sensor s
               WHERE s.accel_x > 100 AND AVG(s.accel_x) OVER LAST 5 > 400"#,
        )
        .unwrap();
        assert_eq!(p.event_conjuncts.len(), 2);
        assert_eq!(p.windowed.len(), 1);
        let w = &p.windowed[0];
        assert_eq!(w.idx, 1);
        assert_eq!(w.agg, aorta_device::pushdown::PushAgg::Avg);
        assert_eq!(w.attr, "accel_x");
        assert_eq!(w.window, 5);
        assert_eq!(w.op, aorta_device::pushdown::PushOp::Gt);
        assert_eq!(w.constant, Value::Int(400));
    }

    #[test]
    fn flipped_windowed_comparison_normalizes() {
        let p = plan(
            r#"SELECT beep(t.id) FROM sensor t, sensor s
               WHERE 400 < MIN(s.accel_x) OVER LAST 3"#,
        )
        .unwrap();
        let w = &p.windowed[0];
        assert_eq!(w.agg, aorta_device::pushdown::PushAgg::Min);
        assert_eq!(w.op, aorta_device::pushdown::PushOp::Gt);
    }

    #[test]
    fn windowed_shapes_outside_the_supported_class_are_rejected() {
        // Not compared to a literal.
        let err = plan(
            r#"SELECT beep(t.id) FROM sensor t, sensor s
               WHERE AVG(s.accel_x) OVER LAST 5 > s.temp"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("must have the form"), "{err}");
        // In an action argument.
        let err = plan(
            r#"SELECT beep(COUNT(s.id) OVER LAST 2) FROM sensor t, sensor s
               WHERE s.accel_x > 500"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("action arguments"), "{err}");
        // Over the action-target table.
        let err = plan(
            r#"SELECT beep(t.id) FROM sensor t, sensor s
               WHERE MAX(t.accel_x) OVER LAST 4 > 500"#,
        )
        .unwrap_err();
        assert!(
            err.to_string().contains("must be over the event table"),
            "{err}"
        );
        // Over a non-numeric attribute.
        let err = plan(
            r#"SELECT beep(t.id) FROM sensor t, sensor s
               WHERE MAX(s.loc) OVER LAST 4 = 1"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("numeric attribute"), "{err}");
    }

    #[test]
    fn sensor_event_can_trigger_sensor_action() {
        // beep() targets sensors, and the event table is also the sensor
        // table: the first sensor table becomes the device part, so a second
        // sensor table must provide events.
        let p = plan(r#"SELECT beep(t.id) FROM sensor t, sensor s WHERE s.accel_x > 500"#).unwrap();
        assert_eq!(p.device.as_ref().unwrap().binding, "t");
        assert_eq!(p.event_binding, "s");
    }
}

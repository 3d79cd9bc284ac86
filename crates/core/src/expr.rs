//! Expression evaluation over bound tuples.

use std::cmp::Ordering;

use aorta_data::{Schema, Tuple, Value};
use aorta_net::DeviceRegistry;
use aorta_sql::ast::{BinOp, Expr, UnOp};

use crate::EngineError;

/// Read-only engine state scalar builtins may consult.
pub struct EvalContext<'a> {
    /// The device registry (for `coverage()`).
    pub registry: &'a DeviceRegistry,
}

/// A set of table bindings: binding name → (schema, current tuple).
#[derive(Debug, Default)]
pub struct Env<'a> {
    bindings: Vec<(&'a str, &'a Schema, &'a Tuple)>,
}

impl<'a> Env<'a> {
    /// An empty environment.
    pub fn new() -> Self {
        Env::default()
    }

    /// Adds a binding, builder style.
    pub fn bind(mut self, name: &'a str, schema: &'a Schema, tuple: &'a Tuple) -> Self {
        self.bindings.push((name, schema, tuple));
        self
    }

    /// Points the most recent binding at `tuple`, so that a join walking
    /// one binding over a scan reuses its environment row after row.
    pub fn rebind_last(&mut self, tuple: &'a Tuple) {
        if let Some((_, _, bound)) = self.bindings.last_mut() {
            *bound = tuple;
        }
    }

    fn lookup(&self, qualifier: Option<&str>, name: &str) -> Result<Value, EngineError> {
        match qualifier {
            Some(q) => {
                let (_, schema, tuple) = self
                    .bindings
                    .iter()
                    .find(|(b, _, _)| *b == q)
                    .ok_or_else(|| EngineError::Eval(format!("unbound table '{q}'")))?;
                let idx = schema.index_of(name).ok_or_else(|| {
                    EngineError::Eval(format!("table '{q}' has no attribute '{name}'"))
                })?;
                Ok(tuple.get(idx).cloned().unwrap_or(Value::Null))
            }
            None => {
                for (_, schema, tuple) in &self.bindings {
                    if let Some(idx) = schema.index_of(name) {
                        return Ok(tuple.get(idx).cloned().unwrap_or(Value::Null));
                    }
                }
                Err(EngineError::Eval(format!("unknown attribute '{name}'")))
            }
        }
    }
}

/// Evaluates an expression to a value.
///
/// SQL three-valued logic is approximated conservatively: any comparison or
/// arithmetic with a NULL operand yields NULL, and a NULL predicate is
/// treated as *not satisfied* by callers.
///
/// # Errors
///
/// [`EngineError::Eval`] on unbound names, type mismatches, unknown
/// functions, or division by zero.
pub fn eval_expr(expr: &Expr, env: &Env<'_>, ctx: &EvalContext<'_>) -> Result<Value, EngineError> {
    match expr {
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Column { qualifier, name } => env.lookup(qualifier.as_deref(), name),
        Expr::Unary { op, expr } => {
            let v = eval_expr(expr, env, ctx)?;
            match (op, v) {
                (_, Value::Null) => Ok(Value::Null),
                (UnOp::Not, Value::Bool(b)) => Ok(Value::Bool(!b)),
                (UnOp::Neg, Value::Int(i)) => Ok(Value::Int(-i)),
                (UnOp::Neg, Value::Float(f)) => Ok(Value::Float(-f)),
                (op, v) => Err(EngineError::Eval(format!("cannot apply {op:?} to {v}"))),
            }
        }
        Expr::Binary { op, lhs, rhs } => {
            let l = eval_expr(lhs, env, ctx)?;
            // Short-circuit logic (also gives NULL-safe AND/OR).
            match op {
                BinOp::And => {
                    if l == Value::Bool(false) {
                        return Ok(Value::Bool(false));
                    }
                    let r = eval_expr(rhs, env, ctx)?;
                    return logic_and(l, r);
                }
                BinOp::Or => {
                    if l == Value::Bool(true) {
                        return Ok(Value::Bool(true));
                    }
                    let r = eval_expr(rhs, env, ctx)?;
                    return logic_or(l, r);
                }
                _ => {}
            }
            let r = eval_expr(rhs, env, ctx)?;
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            match op {
                BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                    let ord = l
                        .compare(&r)
                        .map_err(|e| EngineError::Eval(e.to_string()))?;
                    let b = match op {
                        BinOp::Eq => ord == Ordering::Equal,
                        BinOp::Ne => ord != Ordering::Equal,
                        BinOp::Lt => ord == Ordering::Less,
                        BinOp::Le => ord != Ordering::Greater,
                        BinOp::Gt => ord == Ordering::Greater,
                        BinOp::Ge => ord != Ordering::Less,
                        _ => unreachable!(),
                    };
                    Ok(Value::Bool(b))
                }
                BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => arith(*op, l, r),
                BinOp::And | BinOp::Or => unreachable!("handled above"),
            }
        }
        Expr::Call { name, args } => {
            let mut values = Vec::with_capacity(args.len());
            for a in args {
                values.push(eval_expr(a, env, ctx)?);
            }
            call_builtin(name, &values, ctx)
        }
        // Window aggregates need per-(query, source) sample history, which
        // only the continuous-detection path carries. The planner routes
        // every windowed conjunct to that path (see `AqPlan::plan`), so
        // reaching this arm means a one-shot SELECT (or a projection) tried
        // to use one as a scalar.
        Expr::WindowAgg { func, .. } => Err(EngineError::Eval(format!(
            "{func} OVER LAST is only supported in continuous-query predicates (CREATE AQ)"
        ))),
    }
}

fn logic_and(l: Value, r: Value) -> Result<Value, EngineError> {
    match (l.as_bool(), r.as_bool(), l.is_null() || r.is_null()) {
        (Some(a), Some(b), _) => Ok(Value::Bool(a && b)),
        (_, Some(false), _) | (Some(false), _, _) => Ok(Value::Bool(false)),
        (_, _, true) => Ok(Value::Null),
        _ => Err(EngineError::Eval("AND expects boolean operands".into())),
    }
}

fn logic_or(l: Value, r: Value) -> Result<Value, EngineError> {
    match (l.as_bool(), r.as_bool(), l.is_null() || r.is_null()) {
        (Some(a), Some(b), _) => Ok(Value::Bool(a || b)),
        (_, Some(true), _) | (Some(true), _, _) => Ok(Value::Bool(true)),
        (_, _, true) => Ok(Value::Null),
        _ => Err(EngineError::Eval("OR expects boolean operands".into())),
    }
}

fn arith(op: BinOp, l: Value, r: Value) -> Result<Value, EngineError> {
    // Integer arithmetic when both sides are integers; float otherwise.
    if let (Some(a), Some(b)) = (l.as_i64(), r.as_i64()) {
        return match op {
            BinOp::Add => Ok(Value::Int(a.wrapping_add(b))),
            BinOp::Sub => Ok(Value::Int(a.wrapping_sub(b))),
            BinOp::Mul => Ok(Value::Int(a.wrapping_mul(b))),
            BinOp::Div => {
                if b == 0 {
                    Err(EngineError::Eval("division by zero".into()))
                } else {
                    Ok(Value::Int(a / b))
                }
            }
            _ => unreachable!(),
        };
    }
    let (a, b) = match (l.as_f64(), r.as_f64()) {
        (Some(a), Some(b)) => (a, b),
        _ => {
            return Err(EngineError::Eval(format!(
                "cannot apply {op} to non-numeric operands"
            )))
        }
    };
    match op {
        BinOp::Add => Ok(Value::Float(a + b)),
        BinOp::Sub => Ok(Value::Float(a - b)),
        BinOp::Mul => Ok(Value::Float(a * b)),
        BinOp::Div => {
            if b == 0.0 {
                Err(EngineError::Eval("division by zero".into()))
            } else {
                Ok(Value::Float(a / b))
            }
        }
        _ => unreachable!(),
    }
}

/// Scalar builtins: `coverage(camera_id, location)` (the paper's Boolean
/// coverage test) and `distance(location, location)`.
fn call_builtin(name: &str, args: &[Value], ctx: &EvalContext<'_>) -> Result<Value, EngineError> {
    match name {
        "coverage" => {
            if args.iter().any(Value::is_null) {
                return Ok(Value::Null);
            }
            let id = args[0]
                .as_i64()
                .ok_or_else(|| EngineError::Eval("coverage() expects a camera id".into()))?;
            let loc = args[1]
                .as_location()
                .ok_or_else(|| EngineError::Eval("coverage() expects a location".into()))?;
            // An id outside the u32 range names no camera: `as u32` would
            // alias it onto some *other* camera's id. Not covered, like any
            // camera that does not exist.
            let covered = u32::try_from(id)
                .ok()
                .and_then(|idx| ctx.registry.camera(aorta_device::DeviceId::camera(idx)))
                .is_some_and(|c| c.covers(loc));
            Ok(Value::Bool(covered))
        }
        "distance" => {
            if args.iter().any(Value::is_null) {
                return Ok(Value::Null);
            }
            let a = args[0]
                .as_location()
                .ok_or_else(|| EngineError::Eval("distance() expects locations".into()))?;
            let b = args[1]
                .as_location()
                .ok_or_else(|| EngineError::Eval("distance() expects locations".into()))?;
            Ok(Value::Float(a.distance(b)))
        }
        other => Err(EngineError::Eval(format!(
            "unknown scalar function '{other}' (actions are not evaluated as scalars)"
        ))),
    }
}

/// A comparison operator in an indexable `<attr> <op> <constant>` conjunct.
///
/// Mirrors the comparison subset of [`aorta_sql::ast::BinOp`]; the predicate
/// index stores these instead of whole expressions so distinct queries with
/// the same threshold share one evaluation per batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Whether an ordering between the column value and the constant
    /// satisfies this operator. The table mirrors [`eval_expr`]'s comparison
    /// arm exactly — the vectorized path must agree with the scalar oracle
    /// bit for bit.
    pub(crate) fn matches(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }

    fn from_binop(op: BinOp) -> Option<CmpOp> {
        match op {
            BinOp::Eq => Some(CmpOp::Eq),
            BinOp::Ne => Some(CmpOp::Ne),
            BinOp::Lt => Some(CmpOp::Lt),
            BinOp::Le => Some(CmpOp::Le),
            BinOp::Gt => Some(CmpOp::Gt),
            BinOp::Ge => Some(CmpOp::Ge),
            _ => None,
        }
    }

    /// The operator with its operands swapped: `500 < s.accel_x` is the same
    /// predicate as `s.accel_x > 500`. `Value::compare` errors are symmetric
    /// in their operands, so flipping preserves error behaviour too.
    fn flipped(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }
}

/// An event-attribute-vs-constant comparison extracted from a WHERE-clause
/// conjunct, normalized so the column is always on the left.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct VectorizableCmp {
    /// Attribute name in the event table's schema.
    pub attr: String,
    /// Normalized comparison operator.
    pub op: CmpOp,
    /// The constant operand (`Bool`, `Int`, `Float` or `Str`).
    pub constant: Value,
}

/// Decomposes a conjunct into a comparison the predicate index can evaluate
/// in batch, or `None` when the conjunct needs the scalar fallback.
///
/// Indexable shape: `Column <cmp> Literal` (or flipped), where the column is
/// unqualified or qualified by the event binding, the attribute exists in
/// the event schema, and the literal is a comparable constant. Everything
/// else — calls, arithmetic, OR-trees, column-vs-column, unknown bindings or
/// attributes (which must keep erroring per tuple), NULL or location
/// literals — stays on the scalar path.
pub(crate) fn extract_comparison(
    conjunct: &Expr,
    event_binding: &str,
    schema: &Schema,
) -> Option<VectorizableCmp> {
    let Expr::Binary { op, lhs, rhs } = conjunct else {
        return None;
    };
    let op = CmpOp::from_binop(*op)?;
    let (column, constant, op) = match (lhs.as_ref(), rhs.as_ref()) {
        (Expr::Column { qualifier, name }, Expr::Literal(v)) => ((qualifier, name), v, op),
        (Expr::Literal(v), Expr::Column { qualifier, name }) => {
            ((qualifier, name), v, op.flipped())
        }
        _ => return None,
    };
    let (qualifier, name) = column;
    if qualifier.as_deref().is_some_and(|q| q != event_binding) {
        return None;
    }
    schema.index_of(name)?;
    if !matches!(
        constant,
        Value::Bool(_) | Value::Int(_) | Value::Float(_) | Value::Str(_)
    ) {
        return None;
    }
    Some(VectorizableCmp {
        attr: name.clone(),
        op,
        constant: constant.clone(),
    })
}

/// Convenience: evaluate a predicate; NULL counts as not satisfied.
pub(crate) fn eval_predicate(
    expr: &Expr,
    env: &Env<'_>,
    ctx: &EvalContext<'_>,
) -> Result<bool, EngineError> {
    match eval_expr(expr, env, ctx)? {
        Value::Bool(b) => Ok(b),
        Value::Null => Ok(false),
        other => Err(EngineError::Eval(format!(
            "predicate evaluated to non-boolean {other}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aorta_data::{AttrKind, Location, ValueType};
    use aorta_device::PervasiveLab;
    use aorta_sql::ast::Statement;
    use aorta_sql::parse;

    fn sensor_schema() -> Schema {
        Schema::builder("sensor")
            .attr("id", ValueType::Int, AttrKind::NonSensory)
            .attr("loc", ValueType::Location, AttrKind::NonSensory)
            .attr("accel_x", ValueType::Int, AttrKind::Sensory)
            .build()
    }

    fn predicate_of(sql: &str) -> Expr {
        let stmts = parse(sql).unwrap();
        match stmts.into_iter().next().unwrap() {
            Statement::Select(s) => s.predicate.unwrap(),
            _ => panic!("expected SELECT"),
        }
    }

    fn registry() -> DeviceRegistry {
        DeviceRegistry::from_lab(PervasiveLab::standard())
    }

    #[test]
    fn threshold_predicate_fires_on_spike() {
        let reg = registry();
        let ctx = EvalContext { registry: &reg };
        let schema = sensor_schema();
        let pred = predicate_of("SELECT id FROM sensor s WHERE s.accel_x > 500");
        let quiet = Tuple::new(vec![
            Value::Int(0),
            Value::Location(Location::ORIGIN),
            Value::Int(12),
        ]);
        let spike = Tuple::new(vec![
            Value::Int(0),
            Value::Location(Location::ORIGIN),
            Value::Int(612),
        ]);
        let env = Env::new().bind("s", &schema, &quiet);
        assert_eq!(eval_predicate(&pred, &env, &ctx), Ok(false));
        let env = Env::new().bind("s", &schema, &spike);
        assert_eq!(eval_predicate(&pred, &env, &ctx), Ok(true));
    }

    #[test]
    fn null_sensory_value_does_not_fire() {
        let reg = registry();
        let ctx = EvalContext { registry: &reg };
        let schema = sensor_schema();
        let pred = predicate_of("SELECT id FROM sensor s WHERE s.accel_x > 500");
        let lost = Tuple::new(vec![Value::Int(0), Value::Null, Value::Null]);
        let env = Env::new().bind("s", &schema, &lost);
        assert_eq!(eval_predicate(&pred, &env, &ctx), Ok(false));
    }

    #[test]
    fn coverage_builtin_consults_cameras() {
        let reg = registry();
        let ctx = EvalContext { registry: &reg };
        // Mote 0's location is covered in the standard lab.
        let mote_loc = reg
            .get(aorta_device::DeviceId::sensor(0))
            .unwrap()
            .sim
            .location()
            .unwrap();
        let covered = call_builtin(
            "coverage",
            &[Value::Int(0), Value::Location(mote_loc)],
            &ctx,
        )
        .unwrap();
        assert_eq!(covered, Value::Bool(true));
        // A location far outside the lab is not.
        let far = call_builtin(
            "coverage",
            &[
                Value::Int(0),
                Value::Location(Location::new(500.0, 0.0, 0.0)),
            ],
            &ctx,
        )
        .unwrap();
        assert_eq!(far, Value::Bool(false));
        // Unknown camera id → false, not an error.
        let unknown = call_builtin(
            "coverage",
            &[Value::Int(99), Value::Location(mote_loc)],
            &ctx,
        )
        .unwrap();
        assert_eq!(unknown, Value::Bool(false));
    }

    /// `id as u32` used to alias ids past the u32 range onto real cameras
    /// (2^32 → camera 0, 2^32 + k → camera k, -1 → camera u32::MAX).
    #[test]
    fn coverage_rejects_ids_that_cannot_name_a_camera() {
        let reg = registry();
        let ctx = EvalContext { registry: &reg };
        let mote_loc = reg
            .get(aorta_device::DeviceId::sensor(0))
            .unwrap()
            .sim
            .location()
            .unwrap();
        let coverage = |id: i64| {
            call_builtin(
                "coverage",
                &[Value::Int(id), Value::Location(mote_loc)],
                &ctx,
            )
            .unwrap()
        };
        for k in [0, 1] {
            assert_eq!(coverage(k), Value::Bool(true), "camera {k} covers mote 0");
            assert_eq!(coverage((1 << 32) + k), Value::Bool(false));
        }
        assert_eq!(coverage(-1), Value::Bool(false));
        assert_eq!(coverage(i64::MIN), Value::Bool(false));
    }

    #[test]
    fn distance_builtin() {
        let reg = registry();
        let ctx = EvalContext { registry: &reg };
        let d = call_builtin(
            "distance",
            &[
                Value::Location(Location::new(0.0, 0.0, 0.0)),
                Value::Location(Location::new(3.0, 4.0, 0.0)),
            ],
            &ctx,
        )
        .unwrap();
        assert_eq!(d, Value::Float(5.0));
    }

    #[test]
    fn arithmetic_and_precedence() {
        let reg = registry();
        let ctx = EvalContext { registry: &reg };
        let schema = sensor_schema();
        let t = Tuple::new(vec![
            Value::Int(2),
            Value::Location(Location::ORIGIN),
            Value::Int(100),
        ]);
        let env = Env::new().bind("s", &schema, &t);
        let pred = predicate_of("SELECT id FROM sensor s WHERE s.accel_x = 10 * s.id + 80");
        assert_eq!(eval_predicate(&pred, &env, &ctx), Ok(true));
        let float_pred = predicate_of("SELECT id FROM sensor s WHERE s.accel_x / 8.0 = 12.5");
        assert_eq!(eval_predicate(&float_pred, &env, &ctx), Ok(true));
    }

    #[test]
    fn division_by_zero_is_an_error() {
        let reg = registry();
        let ctx = EvalContext { registry: &reg };
        let env = Env::new();
        let pred = predicate_of("SELECT x FROM t WHERE 1 / 0 = 1");
        assert!(matches!(
            eval_predicate(&pred, &env, &ctx),
            Err(EngineError::Eval(_))
        ));
    }

    #[test]
    fn logic_short_circuits_avoid_rhs_errors() {
        let reg = registry();
        let ctx = EvalContext { registry: &reg };
        let env = Env::new();
        // FALSE AND <error> → false.
        let pred = predicate_of("SELECT x FROM t WHERE FALSE AND nosuch > 1");
        assert_eq!(eval_predicate(&pred, &env, &ctx), Ok(false));
        // TRUE OR <error> → true.
        let pred = predicate_of("SELECT x FROM t WHERE TRUE OR nosuch > 1");
        assert_eq!(eval_predicate(&pred, &env, &ctx), Ok(true));
    }

    #[test]
    fn not_and_negation() {
        let reg = registry();
        let ctx = EvalContext { registry: &reg };
        let env = Env::new();
        let pred = predicate_of("SELECT x FROM t WHERE NOT FALSE");
        assert_eq!(eval_predicate(&pred, &env, &ctx), Ok(true));
        let pred = predicate_of("SELECT x FROM t WHERE -3 < -2");
        assert_eq!(eval_predicate(&pred, &env, &ctx), Ok(true));
    }

    #[test]
    fn extraction_accepts_normalized_and_flipped_comparisons() {
        let schema = sensor_schema();
        let pred = predicate_of("SELECT x FROM sensor s WHERE s.accel_x > 500");
        let cmp = extract_comparison(&pred, "s", &schema).unwrap();
        assert_eq!(cmp.attr, "accel_x");
        assert_eq!(cmp.op, CmpOp::Gt);
        assert_eq!(cmp.constant, Value::Int(500));
        // Flipped operands normalize: `500 >= s.accel_x` ⇔ `s.accel_x <= 500`.
        let pred = predicate_of("SELECT x FROM sensor s WHERE 500 >= s.accel_x");
        let cmp = extract_comparison(&pred, "s", &schema).unwrap();
        assert_eq!(cmp.op, CmpOp::Le);
        // Unqualified columns bind to the event table by planner convention.
        let pred = predicate_of("SELECT x FROM sensor s WHERE accel_x = 7");
        assert!(extract_comparison(&pred, "s", &schema).is_some());
    }

    #[test]
    fn extraction_rejects_non_indexable_conjuncts() {
        let schema = sensor_schema();
        for sql in [
            // Arithmetic, calls, OR-trees and column-vs-column need eval.
            "SELECT x FROM sensor s WHERE s.accel_x + 1 > 500",
            "SELECT x FROM sensor s WHERE coverage(s.id, s.loc)",
            "SELECT x FROM sensor s WHERE s.accel_x > 500 OR s.id = 1",
            "SELECT x FROM sensor s WHERE s.accel_x > s.id",
            // Wrong binding / unknown attribute must keep erroring per tuple.
            "SELECT x FROM sensor s WHERE c.accel_x > 500",
            "SELECT x FROM sensor s WHERE s.nosuch > 500",
            // Bare boolean literal is not a comparison.
            "SELECT x FROM sensor s WHERE TRUE",
        ] {
            let pred = predicate_of(sql);
            assert!(
                extract_comparison(&pred, "s", &schema).is_none(),
                "{sql} should not be indexable"
            );
        }
    }

    #[test]
    fn cmp_op_matches_mirrors_eval_expr() {
        use Ordering::*;
        let table = [
            (CmpOp::Eq, [false, true, false]),
            (CmpOp::Ne, [true, false, true]),
            (CmpOp::Lt, [true, false, false]),
            (CmpOp::Le, [true, true, false]),
            (CmpOp::Gt, [false, false, true]),
            (CmpOp::Ge, [false, true, true]),
        ];
        for (op, expect) in table {
            for (ord, want) in [Less, Equal, Greater].into_iter().zip(expect) {
                assert_eq!(op.matches(ord), want, "{op:?} {ord:?}");
            }
        }
    }

    #[test]
    fn unbound_names_are_errors() {
        let reg = registry();
        let ctx = EvalContext { registry: &reg };
        let env = Env::new();
        let pred = predicate_of("SELECT x FROM t WHERE z.a > 1");
        let err = eval_predicate(&pred, &env, &ctx).unwrap_err();
        assert!(err.to_string().contains("unbound table"), "{err}");
    }
}

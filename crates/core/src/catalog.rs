//! The engine catalog: registered actions, queries, and virtual tables.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use aorta_data::Schema;
use aorta_device::DeviceKind;
use aorta_sql::validate::ValidationContext;

use crate::actions::ActionDef;
use crate::plan::AqPlan;
use crate::EngineError;

/// Scalar (non-action) builtin functions and their arities, available in
/// predicates: `coverage(camera_id, location)` and `distance(loc, loc)`.
pub(crate) const BUILTIN_FUNCTIONS: &[(&str, usize)] = &[("coverage", 2), ("distance", 2)];

/// The schema of a built-in device kind. The built-in XML catalogs are
/// constants of the program, so they are parsed once per process into one
/// table that the planner and the validation context both read.
pub(crate) fn builtin_schema(kind: DeviceKind) -> &'static Schema {
    static SCHEMAS: OnceLock<BTreeMap<DeviceKind, Schema>> = OnceLock::new();
    let schemas = SCHEMAS.get_or_init(|| {
        DeviceKind::ALL
            .into_iter()
            .map(|kind| {
                let xml = aorta_device::catalog_for(kind);
                let schema =
                    aorta_device::parse_catalog(&xml).expect("built-in catalogs always parse");
                (kind, schema)
            })
            .collect()
    });
    &schemas[&kind]
}

/// The catalog of actions and registered continuous queries.
///
/// `Clone` supports crash-recovery snapshots: custom action handlers are
/// `Arc`-shared closures, so a cloned catalog shares handler code while
/// owning its query plans.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    actions: BTreeMap<String, ActionDef>,
    queries: BTreeMap<String, AqPlan>,
    next_query_id: u32,
}

impl Catalog {
    /// A catalog pre-loaded with the built-in actions (`photo`, `sendphoto`,
    /// `beep`).
    pub fn with_builtins() -> Self {
        let mut c = Catalog::default();
        for def in [
            ActionDef::builtin_photo(),
            ActionDef::builtin_sendphoto(),
            ActionDef::builtin_beep(),
        ] {
            c.actions.insert(def.name.clone(), def);
        }
        c
    }

    /// Registers an action (the `CREATE ACTION` path).
    ///
    /// # Errors
    ///
    /// [`EngineError::Catalog`] when the name is taken.
    pub fn register_action(&mut self, def: ActionDef) -> Result<(), EngineError> {
        if self.actions.contains_key(&def.name) {
            return Err(EngineError::Catalog(format!(
                "action '{}' already registered",
                def.name
            )));
        }
        self.actions.insert(def.name.clone(), def);
        Ok(())
    }

    /// Looks up an action.
    pub fn action(&self, name: &str) -> Option<&ActionDef> {
        self.actions.get(name)
    }

    /// All registered action names.
    pub fn action_names(&self) -> Vec<&str> {
        self.actions.keys().map(String::as_str).collect()
    }

    /// Registers a planned continuous query, assigning its query ID.
    ///
    /// # Errors
    ///
    /// [`EngineError::Catalog`] when the name is taken.
    pub fn register_query(&mut self, mut plan: AqPlan) -> Result<u32, EngineError> {
        if self.queries.contains_key(&plan.name) {
            return Err(EngineError::Catalog(format!(
                "query '{}' already registered",
                plan.name
            )));
        }
        let id = self.next_query_id;
        self.next_query_id += 1;
        plan.query_id = id;
        self.queries.insert(plan.name.clone(), plan);
        Ok(id)
    }

    /// Unregisters a query (the `DROP AQ` path).
    ///
    /// # Errors
    ///
    /// [`EngineError::Catalog`] when the query does not exist.
    pub fn drop_query(&mut self, name: &str) -> Result<AqPlan, EngineError> {
        self.queries
            .remove(name)
            .ok_or_else(|| EngineError::Catalog(format!("no registered query named '{name}'")))
    }

    /// Looks up a registered query by name.
    pub fn query(&self, name: &str) -> Option<&AqPlan> {
        self.queries.get(name)
    }

    /// All registered queries, in name order.
    pub fn queries(&self) -> impl Iterator<Item = &AqPlan> {
        self.queries.values()
    }

    /// Number of registered queries.
    pub fn query_count(&self) -> usize {
        self.queries.len()
    }

    /// Builds the SQL validation context: the virtual tables plus all
    /// registered actions and scalar builtins as functions.
    ///
    /// The tables and scalar builtins are constants of the program — the
    /// built-in schemas the planner reads too — so they are assembled once
    /// per process; only the action list, the one part `CREATE ACTION`
    /// changes, is derived per call.
    pub fn validation_context(&self) -> ValidationContext {
        static TABLES_AND_BUILTINS: OnceLock<ValidationContext> = OnceLock::new();
        let mut ctx = TABLES_AND_BUILTINS
            .get_or_init(|| {
                let mut ctx = ValidationContext::new();
                for kind in DeviceKind::ALL {
                    ctx = ctx.with_table(builtin_schema(kind).clone());
                }
                for (name, arity) in BUILTIN_FUNCTIONS {
                    ctx = ctx.with_function(*name, *arity);
                }
                ctx
            })
            .clone();
        for def in self.actions.values() {
            ctx = ctx.with_function(def.name.clone(), def.arity());
        }
        ctx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aorta_sql::parse;

    #[test]
    fn builtins_are_preloaded() {
        let c = Catalog::with_builtins();
        assert!(c.action("photo").is_some());
        assert!(c.action("sendphoto").is_some());
        assert!(c.action("beep").is_some());
        assert_eq!(c.action_names().len(), 3);
    }

    #[test]
    fn duplicate_action_rejected() {
        let mut c = Catalog::with_builtins();
        let err = c.register_action(ActionDef::builtin_photo()).unwrap_err();
        assert!(err.to_string().contains("already registered"));
    }

    #[test]
    fn query_ids_are_sequential() {
        let mut c = Catalog::with_builtins();
        let id0 = c.register_query(AqPlan::test_dummy("a")).unwrap();
        let id1 = c.register_query(AqPlan::test_dummy("b")).unwrap();
        assert_eq!((id0, id1), (0, 1));
        assert_eq!(c.query_count(), 2);
        assert!(c.query("a").is_some());
        assert!(c.register_query(AqPlan::test_dummy("a")).is_err());
        assert_eq!(c.drop_query("a").unwrap().name, "a");
        assert!(c.drop_query("a").is_err());
        assert_eq!(c.query_count(), 1);
    }

    #[test]
    fn validation_context_accepts_the_paper_query() {
        let c = Catalog::with_builtins();
        let ctx = c.validation_context();
        let stmts = parse(
            r#"CREATE AQ snapshot AS SELECT photo(c.ip, s.loc, "d")
               FROM sensor s, camera c
               WHERE s.accel_x > 500 AND coverage(c.id, s.loc)"#,
        )
        .unwrap();
        assert_eq!(ctx.validate(&stmts[0]), Ok(()));
    }

    /// The table part of the context is built once per process; an action
    /// registered after it was first built must still reach the next one.
    #[test]
    fn an_action_registered_after_the_first_context_is_visible_to_the_next() {
        let mut c = Catalog::with_builtins();
        let stmts = parse("SELECT late_action(s.id) FROM sensor s WHERE s.light < 100").unwrap();
        let before = c.validation_context().validate(&stmts[0]).unwrap_err();
        assert!(before.to_string().contains("late_action"), "{before}");
        let mut custom = ActionDef::builtin_beep();
        custom.name = "late_action".into();
        c.register_action(custom).unwrap();
        assert_eq!(c.validation_context().validate(&stmts[0]), Ok(()));
        // And it stays this catalog's action: another catalog does not see it.
        let other = Catalog::with_builtins().validation_context();
        assert!(other.validate(&stmts[0]).is_err());
    }

    #[test]
    fn validation_context_knows_user_actions() {
        let mut c = Catalog::with_builtins();
        let mut custom = ActionDef::builtin_beep();
        custom.name = "blink_twice".into();
        c.register_action(custom).unwrap();
        let ctx = c.validation_context();
        let stmts = parse("SELECT blink_twice(s.id) FROM sensor s WHERE s.light < 100").unwrap();
        assert_eq!(ctx.validate(&stmts[0]), Ok(()));
    }
}

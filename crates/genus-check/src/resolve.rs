//! Default model resolution (§4.4, §4.7).
//!
//! When a `with` clause is omitted, Genus resolves a default model. Models
//! are *enabled* as default candidates in four ways:
//!
//! 1. natural models, when the types structurally conform;
//! 2. models introduced by `where` clauses in scope;
//! 3. models enabled by `use` declarations (possibly parameterized — their
//!    subgoals are resolved recursively);
//! 4. a model inside its own definition.
//!
//! Resolution rules: a unique enabled model wins; more than one enabled
//! model is an ambiguity error that requires an explicit `with`; if none is
//! enabled, a unique in-scope declared model witnessing the constraint wins.
//!
//! # Memoization
//!
//! Resolution is a pure function of the declaration table, the goal, and
//! the scope-enabled witnesses, so results are memoized in the table's
//! [`QueryCache`]: the key is a *canonicalized*
//! goal (inference variables renumbered in first-occurrence order, see
//! [`canonical_inst`]) paired with a fingerprint of the enabled set.
//! Negative results (`NotFound`, `Ambiguous`) are cached too — they are
//! depth-independent because depth exhaustion aborts the whole resolution
//! eagerly instead of silently dropping a candidate. `DepthExceeded`
//! itself is never cached (it depends on the remaining budget at the
//! failure point).
//!
//! Truly *cyclic* goals — a goal reappearing as its own subgoal — are
//! detected with an active-goal stack (with or without the memo) and fail
//! as `NotFound`: no candidate chain through them can ever ground out, at
//! any budget, so dropping the candidate is depth-independent. Results
//! computed while a cycle was cut are provisional and stay uncached.
//! `DepthExceeded` is therefore reserved for *divergent* chains whose
//! goals keep growing (e.g. a recursive `use` producing `Cl[Box[E]]`
//! from `Cl[E]` in reverse).

use crate::entail::{entails, prereq_closure};
use crate::natural::conforms;
use genus_types::subtype::model_eq;
use genus_types::{
    caches_enabled, unify::unify, ConstraintId, ConstraintInst, Model, QueryCache, Subst, Table,
    Type,
};
use std::any::Any;
use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};

/// Maximum recursion depth for subgoal resolution — a belt-and-braces bound
/// on top of the syntactic termination restriction (§9).
pub const MAX_DEPTH: usize = 32;

/// Why resolution failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ResolveError {
    /// More than one model is enabled; programmer intent is ambiguous and an
    /// explicit `with` clause is required (§4.4 rule 2).
    Ambiguous(Vec<Model>),
    /// No enabled or uniquely in-scope model witnesses the constraint.
    NotFound,
    /// Recursion bound exceeded. Carries the goal chain from the requested
    /// constraint (first) down to the subgoal where the budget ran out
    /// (last), so diagnostics can name which recursive `use` is to blame.
    DepthExceeded(Vec<ConstraintInst>),
}

/// The resolution memo stored (type-erased) in the table's query cache.
/// Keyed by the scope fingerprint plus the canonicalized goal.
#[derive(Default)]
struct ResolveMemo {
    map: genus_common::FastMap<(u64, ConstraintInst), Result<Model, ResolveError>>,
}

/// Resolution context: the table plus the models enabled in the current
/// scope (where-clause witnesses, self-enabled models, capture-converted
/// witnesses).
pub struct ResolveCtx<'a> {
    /// The program.
    pub table: &'a Table,
    /// Scope-enabled witnesses: `(what it witnesses, the witness)`.
    pub enabled: &'a [(ConstraintInst, Model)],
    /// Source of fresh inference variables.
    pub next_infer: &'a Cell<u32>,
    /// Lazily computed hash of `enabled`, part of every memo key.
    scope_fp: Cell<Option<u64>>,
    /// Goals currently being resolved, outermost first (cycle detection).
    active: RefCell<Vec<ConstraintInst>>,
    /// Bumped every time a cycle is cut; results computed while it moves
    /// are provisional and must not be memoized.
    cycle_events: Cell<u64>,
}

impl<'a> ResolveCtx<'a> {
    /// Creates a context.
    pub fn new(
        table: &'a Table,
        enabled: &'a [(ConstraintInst, Model)],
        next_infer: &'a Cell<u32>,
    ) -> Self {
        ResolveCtx {
            table,
            enabled,
            next_infer,
            scope_fp: Cell::new(None),
            active: RefCell::new(Vec::new()),
            cycle_events: Cell::new(0),
        }
    }

    fn fresh_infer(&self) -> u32 {
        let i = self.next_infer.get();
        self.next_infer.set(i + 1);
        i
    }

    /// Hash of the enabled set, distinguishing memo entries made under
    /// different scopes over the same table.
    fn scope_fingerprint(&self) -> u64 {
        if let Some(fp) = self.scope_fp.get() {
            return fp;
        }
        let mut h = DefaultHasher::new();
        self.enabled.hash(&mut h);
        let fp = h.finish();
        self.scope_fp.set(Some(fp));
        fp
    }
}

/// Renumbers inference variables in first-occurrence order so that goals
/// differing only in inference-variable identity share a memo entry:
/// `Eq[?7, ?9]` and `Eq[?3, ?5]` both canonicalize to `Eq[?0, ?1]`.
pub fn canonical_inst(inst: &ConstraintInst) -> ConstraintInst {
    let mut map = CanonMap::default();
    canon_inst(inst, &mut map)
}

#[derive(Default)]
struct CanonMap {
    tys: HashMap<u32, u32>,
    models: HashMap<u32, u32>,
}

impl CanonMap {
    fn ty(&mut self, id: u32) -> u32 {
        let next = (self.tys.len() + self.models.len()) as u32;
        *self.tys.entry(id).or_insert(next)
    }

    fn model(&mut self, id: u32) -> u32 {
        let next = (self.tys.len() + self.models.len()) as u32;
        *self.models.entry(id).or_insert(next)
    }
}

fn canon_inst(inst: &ConstraintInst, map: &mut CanonMap) -> ConstraintInst {
    ConstraintInst {
        id: inst.id,
        args: inst.args.iter().map(|t| canon_ty(t, map)).collect(),
    }
}

fn canon_ty(t: &Type, map: &mut CanonMap) -> Type {
    match t {
        Type::Infer(i) => Type::Infer(map.ty(*i)),
        Type::Array(e) => Type::Array(Box::new(canon_ty(e, map))),
        Type::Class { id, args, models } => Type::Class {
            id: *id,
            args: args.iter().map(|a| canon_ty(a, map)).collect(),
            models: models.iter().map(|m| canon_model(m, map)).collect(),
        },
        Type::Existential {
            params,
            bounds,
            wheres,
            body,
        } => Type::Existential {
            params: params.clone(),
            bounds: bounds
                .iter()
                .map(|b| b.as_ref().map(|t| canon_ty(t, map)))
                .collect(),
            wheres: wheres
                .iter()
                .map(|w| genus_types::WhereReq {
                    inst: canon_inst(&w.inst, map),
                    mv: w.mv,
                    named: w.named,
                })
                .collect(),
            body: Box::new(canon_ty(body, map)),
        },
        other => other.clone(),
    }
}

fn canon_model(m: &Model, map: &mut CanonMap) -> Model {
    match m {
        Model::Infer(i) => Model::Infer(map.model(*i)),
        Model::Natural { inst } => Model::Natural {
            inst: canon_inst(inst, map),
        },
        Model::Decl {
            id,
            type_args,
            model_args,
        } => Model::Decl {
            id: *id,
            type_args: type_args.iter().map(|t| canon_ty(t, map)).collect(),
            model_args: model_args.iter().map(|x| canon_model(x, map)).collect(),
        },
        Model::Var(_) => m.clone(),
    }
}

thread_local! {
    /// Constraints whose goals reached rule 3 on this thread while a
    /// [`record_declared_fallbacks`] scope is active.
    static DECLARED_FALLBACKS: RefCell<Option<HashSet<ConstraintId>>> =
        const { RefCell::new(None) };
}

fn note_declared_fallback(id: ConstraintId) {
    DECLARED_FALLBACKS.with(|r| {
        if let Some(set) = r.borrow_mut().as_mut() {
            set.insert(id);
        }
    });
}

/// Runs `f` and returns, beside its result, every constraint whose goals
/// reached declared-model fallback (rule 3) during the call, whatever the
/// outcome. Rule 3 is the one place resolution consults every declared
/// model in the program, so these are the goals a model declared in
/// *another* unit could decide differently.
pub fn record_declared_fallbacks<R>(f: impl FnOnce() -> R) -> (R, HashSet<ConstraintId>) {
    let outer = DECLARED_FALLBACKS.with(|r| r.replace(Some(HashSet::new())));
    let out = f();
    let set = DECLARED_FALLBACKS.with(|r| r.replace(outer));
    (out, set.unwrap_or_default())
}

/// Forks `table` for a program that extends it: declarations are shared,
/// and the resolution memo keeps only positive results. A negative result
/// (`NotFound`, `Ambiguous`) recorded for the base may be answered
/// differently once the extension declares more models, so it must not be
/// replayed there.
pub fn fork_table(table: &Table) -> Table {
    table.fork(positive_resolutions)
}

/// [`fork_table`] for the query cache alone.
pub fn fork_cache(cache: &QueryCache) -> QueryCache {
    cache.fork(positive_resolutions)
}

fn positive_resolutions(slot: &(dyn Any + Send)) -> Option<Box<dyn Any + Send>> {
    let memo = slot.downcast_ref::<ResolveMemo>()?;
    let map = memo
        .map
        .iter()
        .filter(|(_, r)| r.is_ok())
        .map(|(k, r)| (k.clone(), r.clone()))
        .collect();
    Some(Box::new(ResolveMemo { map }))
}

/// Resolves the default model for `inst`.
///
/// # Errors
///
/// See [`ResolveError`].
pub fn resolve_default(ctx: &ResolveCtx<'_>, inst: &ConstraintInst) -> Result<Model, ResolveError> {
    resolve_depth(ctx, inst, MAX_DEPTH)
}

/// Memoizing entry point for one resolution goal.
fn resolve_depth(
    ctx: &ResolveCtx<'_>,
    inst: &ConstraintInst,
    depth: usize,
) -> Result<Model, ResolveError> {
    if depth == 0 {
        return Err(ResolveError::DepthExceeded(vec![inst.clone()]));
    }
    if inst.args.iter().any(Type::has_infer) {
        // Resolution never guides unification (§4.7); with unsolved types we
        // cannot decide.
        return Err(ResolveError::NotFound);
    }
    if ctx.active.borrow().iter().any(|g| g == inst) {
        // Cyclic goal: no candidate chain through it can ground out at any
        // budget, so the candidate above fails as plain "not found".
        ctx.cycle_events.set(ctx.cycle_events.get() + 1);
        return Err(ResolveError::NotFound);
    }
    let key = if caches_enabled() {
        let key = (ctx.scope_fingerprint(), canonical_inst(inst));
        let hit = ctx.table.cache.with_resolve_slot(|slot| {
            let memo = slot
                .get_or_insert_with(|| Box::<ResolveMemo>::default() as Box<dyn Any + Send>)
                .downcast_mut::<ResolveMemo>()
                .expect("resolve slot holds ResolveMemo");
            memo.map.get(&key).cloned()
        });
        if let Some(r) = hit {
            ctx.table.cache.note_resolve_hit();
            return r;
        }
        ctx.table.cache.note_resolve_miss();
        Some(key)
    } else {
        None
    };
    ctx.active.borrow_mut().push(inst.clone());
    let events_before = ctx.cycle_events.get();
    let result = resolve_goal(ctx, inst, depth);
    ctx.active.borrow_mut().pop();
    if let Some(key) = key {
        // Everything except depth exhaustion is budget-independent and
        // safe to cache (including negative results) — unless a cycle was
        // cut underneath us, which makes this result provisional.
        let provisional = ctx.cycle_events.get() != events_before;
        if !provisional && !matches!(result, Err(ResolveError::DepthExceeded(_))) {
            ctx.table.cache.with_resolve_slot(|slot| {
                if let Some(memo) = slot.as_mut().and_then(|b| b.downcast_mut::<ResolveMemo>()) {
                    memo.map.insert(key, result.clone());
                }
            });
        }
    }
    result
}

/// Prepends this level's goal to a propagating depth-exhaustion chain.
fn prepend_goal(inst: &ConstraintInst, e: ResolveError) -> ResolveError {
    match e {
        ResolveError::DepthExceeded(mut chain) => {
            chain.insert(0, inst.clone());
            ResolveError::DepthExceeded(chain)
        }
        other => other,
    }
}

/// Deduplicating candidate insert; clones the model only when it is
/// actually kept.
fn add_candidate(table: &Table, cands: &mut Vec<Model>, m: Cow<'_, Model>) {
    if !cands.iter().any(|c| model_eq(table, c, &m)) {
        cands.push(m.into_owned());
    }
}

/// The uncached search behind [`resolve_depth`].
fn resolve_goal(
    ctx: &ResolveCtx<'_>,
    inst: &ConstraintInst,
    depth: usize,
) -> Result<Model, ResolveError> {
    let mut candidates: Vec<Model> = Vec::new();
    // 1. Natural model.
    if conforms(ctx.table, inst) {
        add_candidate(
            ctx.table,
            &mut candidates,
            Cow::Owned(Model::Natural { inst: inst.clone() }),
        );
    }
    // 2. Scope-enabled witnesses (where clauses, self-models, captures),
    //    through entailment.
    for (winst, model) in ctx.enabled {
        if entails(ctx.table, winst, inst) {
            add_candidate(ctx.table, &mut candidates, Cow::Borrowed(model));
        }
    }
    // 3. `use`-enabled models, with recursive subgoal resolution.
    for u in &ctx.table.uses {
        match try_use(ctx, u, inst, depth) {
            Ok(Some(m)) => add_candidate(ctx.table, &mut candidates, Cow::Owned(m)),
            Ok(None) => {}
            Err(e) => return Err(prepend_goal(inst, e)),
        }
    }
    match candidates.len() {
        1 => return Ok(candidates.pop().expect("len checked")),
        0 => {}
        _ => return Err(ResolveError::Ambiguous(candidates)),
    }
    // Rule 3: no enabled model — a unique in-scope declared model.
    note_declared_fallback(inst.id);
    let mut in_scope: Vec<Model> = Vec::new();
    for (i, _) in ctx.table.models.iter().enumerate() {
        let mid = genus_types::ModelId(i as u32);
        match try_declared(ctx, mid, inst, depth) {
            Ok(Some(m)) => add_candidate(ctx.table, &mut in_scope, Cow::Owned(m)),
            Ok(None) => {}
            Err(e) => return Err(prepend_goal(inst, e)),
        }
    }
    match in_scope.len() {
        1 => Ok(in_scope.pop().expect("len checked")),
        0 => Err(ResolveError::NotFound),
        _ => Err(ResolveError::Ambiguous(in_scope)),
    }
}

/// Tries to use a `use` declaration to witness `inst`: unify its enabled
/// constraint with the goal, then resolve its subgoals recursively.
///
/// # Errors
///
/// Propagates subgoal depth exhaustion; any other subgoal failure just
/// drops this candidate (`Ok(None)`).
fn try_use(
    ctx: &ResolveCtx<'_>,
    u: &genus_types::UseDef,
    inst: &ConstraintInst,
    depth: usize,
) -> Result<Option<Model>, ResolveError> {
    instantiate_and_match(
        ctx,
        &u.tparams,
        &u.wheres,
        &u.model,
        &u.for_inst,
        inst,
        depth,
    )
}

/// Tries a declared model directly (rule 3): its `for` constraint — or any
/// constraint in the prerequisite closure — must unify with the goal, and
/// its own `where` subgoals must resolve.
///
/// # Errors
///
/// Propagates subgoal depth exhaustion.
fn try_declared(
    ctx: &ResolveCtx<'_>,
    mid: genus_types::ModelId,
    inst: &ConstraintInst,
    depth: usize,
) -> Result<Option<Model>, ResolveError> {
    let def = ctx.table.model(mid);
    // Both match paths below can only succeed through a constraint in the
    // prerequisite closure whose id is the goal's; skip the model (and the
    // self-model allocation) outright when none is.
    let closure = prereq_closure(ctx.table, &def.for_inst);
    if !closure.iter().any(|h| h.id == inst.id) {
        return Ok(None);
    }
    let self_model = Model::Decl {
        id: mid,
        type_args: def.tparams.iter().map(|t| Type::Var(*t)).collect(),
        model_args: def.wheres.iter().map(|w| Model::Var(w.mv)).collect(),
    };
    // Non-generic models may also match through variance-based entailment.
    if def.tparams.is_empty() && def.wheres.is_empty() {
        if entails(ctx.table, &def.for_inst, inst) {
            return Ok(Some(self_model));
        }
        return Ok(None);
    }
    for head in closure.iter() {
        if let Some(m) = instantiate_and_match(
            ctx,
            &def.tparams,
            &def.wheres,
            &self_model,
            head,
            inst,
            depth,
        )? {
            return Ok(Some(m));
        }
    }
    Ok(None)
}

/// Shared engine: freshen `tparams`/`wheres`, unify `head` against the goal,
/// resolve subgoals, and return the substituted `model`.
///
/// # Errors
///
/// Propagates subgoal depth exhaustion.
fn instantiate_and_match(
    ctx: &ResolveCtx<'_>,
    tparams: &[genus_types::TvId],
    wheres: &[genus_types::WhereReq],
    model: &Model,
    head: &ConstraintInst,
    goal: &ConstraintInst,
    depth: usize,
) -> Result<Option<Model>, ResolveError> {
    if head.id != goal.id {
        return Ok(None);
    }
    // Freshen the declaration's type parameters as inference variables.
    let mut inst_subst = Subst::new();
    let mut infer_ids = Vec::new();
    for tp in tparams {
        let i = ctx.fresh_infer();
        infer_ids.push(i);
        inst_subst.tys.insert(*tp, Type::Infer(i));
    }
    let head = if inst_subst.is_empty() {
        Cow::Borrowed(head)
    } else {
        Cow::Owned(inst_subst.apply_inst(head))
    };
    let mut solution = Subst::new();
    for (h, g) in head.args.iter().zip(&goal.args) {
        if unify(ctx.table, h, g, &mut solution).is_err() {
            return Ok(None);
        }
    }
    // All type parameters must be determined by the head match.
    for i in &infer_ids {
        if solution.apply(&Type::Infer(*i)).has_infer() {
            return Ok(None);
        }
    }
    // Resolve subgoals recursively.
    let mut model_subst = Subst::new();
    for w in wheres {
        let sub = if inst_subst.is_empty() {
            solution.apply_inst(&w.inst)
        } else {
            solution.apply_inst(&inst_subst.apply_inst(&w.inst))
        };
        match resolve_depth(ctx, &sub, depth - 1) {
            Ok(m) => {
                model_subst.models.insert(w.mv, m);
            }
            Err(e @ ResolveError::DepthExceeded(_)) => return Err(e),
            Err(_) => return Ok(None),
        }
    }
    // Apply only the non-empty substitutions — each application walks and
    // rebuilds the whole model.
    let mut m = Cow::Borrowed(model);
    for s in [&inst_subst, &solution, &model_subst] {
        if !s.is_empty() {
            m = Cow::Owned(s.apply_model(&m));
        }
    }
    Ok(Some(m.into_owned()))
}

/// Resolution for an elided *expander* (§4.4): find the unique enabled model
/// containing an operation `name` applicable to a receiver of type
/// `recv_ty`. Returns `(model, constraint-instantiation)` candidates.
pub fn resolve_expander(
    ctx: &ResolveCtx<'_>,
    recv_ty: &Type,
    name: genus_common::Symbol,
    arity: usize,
) -> Vec<(ConstraintInst, Model)> {
    let mut out: Vec<(ConstraintInst, Model)> = Vec::new();
    for (winst, model) in ctx.enabled {
        for inst in prereq_closure(ctx.table, winst).iter() {
            let def = ctx.table.constraint(inst.id);
            // Arity-inconsistent instantiations only arise from headers
            // that failed to resolve (already diagnosed); skip them
            // rather than substituting with mismatched parameter lists.
            if def.params.len() != inst.args.len() {
                continue;
            }
            let subst = Subst::from_pairs(&def.params, &inst.args);
            for op in &def.ops {
                if op.name == name && op.params.len() == arity && !op.is_static {
                    let r = subst.apply(&Type::Var(op.receiver));
                    if genus_types::is_subtype(ctx.table, recv_ty, &r)
                        && !out
                            .iter()
                            .any(|(i2, m2)| i2 == inst && model_eq(ctx.table, m2, model))
                    {
                        out.push((inst.clone(), model.clone()));
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use genus_common::{Span, Symbol};
    use genus_types::{ConstraintDef, ConstraintOp, ModelDef, PrimTy, Table};

    fn eq_constraint(tb: &mut Table) -> genus_types::ConstraintId {
        let t = tb.fresh_tv(Symbol::intern("T"));
        tb.add_constraint(ConstraintDef {
            name: Symbol::intern("Eq"),
            params: vec![t],
            prereqs: vec![],
            ops: vec![ConstraintOp {
                name: Symbol::intern("equals"),
                is_static: false,
                receiver: t,
                params: vec![(Symbol::intern("o"), Type::Var(t))],
                ret: Type::Prim(PrimTy::Boolean),
                span: Span::dummy(),
            }],
            variance: vec![],
            span: Span::dummy(),
        })
    }

    #[test]
    fn natural_model_wins() {
        let mut tb = Table::new();
        let eq = eq_constraint(&mut tb);
        genus_types::variance::store_variances(&mut tb);
        let next = Cell::new(0);
        let enabled = vec![];
        let ctx = ResolveCtx::new(&tb, &enabled, &next);
        let inst = ConstraintInst {
            id: eq,
            args: vec![Type::Prim(PrimTy::Int)],
        };
        let m = resolve_default(&ctx, &inst).unwrap();
        assert_eq!(m, Model::Natural { inst });
    }

    #[test]
    fn where_clause_model_and_natural_conflict_is_ambiguous() {
        let mut tb = Table::new();
        let eq = eq_constraint(&mut tb);
        genus_types::variance::store_variances(&mut tb);
        let mv = tb.fresh_mv(Symbol::intern("c"));
        let inst = ConstraintInst {
            id: eq,
            args: vec![Type::Prim(PrimTy::Int)],
        };
        let enabled = vec![(inst.clone(), Model::Var(mv))];
        let next = Cell::new(0);
        let ctx = ResolveCtx::new(&tb, &enabled, &next);
        match resolve_default(&ctx, &inst) {
            Err(ResolveError::Ambiguous(ms)) => assert_eq!(ms.len(), 2),
            other => panic!("expected ambiguity, got {other:?}"),
        }
    }

    #[test]
    fn where_clause_model_wins_without_natural() {
        let mut tb = Table::new();
        let eq = eq_constraint(&mut tb);
        genus_types::variance::store_variances(&mut tb);
        let mv = tb.fresh_mv(Symbol::intern("c"));
        // A type variable does not conform structurally (no bound), so only
        // the where-clause model witnesses Eq[T].
        let tv = tb.fresh_tv(Symbol::intern("T"));
        let inst = ConstraintInst {
            id: eq,
            args: vec![Type::Var(tv)],
        };
        let enabled = vec![(inst.clone(), Model::Var(mv))];
        let next = Cell::new(0);
        let ctx = ResolveCtx::new(&tb, &enabled, &next);
        assert_eq!(resolve_default(&ctx, &inst).unwrap(), Model::Var(mv));
    }

    #[test]
    fn unique_in_scope_model_rule3() {
        let mut tb = Table::new();
        let eq = eq_constraint(&mut tb);
        genus_types::variance::store_variances(&mut tb);
        let tv = tb.fresh_tv(Symbol::intern("T"));
        let inst = ConstraintInst {
            id: eq,
            args: vec![Type::Var(tv)],
        };
        tb.add_model(ModelDef {
            name: Symbol::intern("OnlyEq"),
            tparams: vec![],
            wheres: vec![],
            for_inst: inst.clone(),
            extends: vec![],
            methods: vec![],
            span: Span::dummy(),
        });
        let enabled = vec![];
        let next = Cell::new(0);
        let ctx = ResolveCtx::new(&tb, &enabled, &next);
        match resolve_default(&ctx, &inst).unwrap() {
            Model::Decl { id, .. } => assert_eq!(tb.model(id).name.as_str(), "OnlyEq"),
            other => panic!("expected declared model, got {other:?}"),
        }
    }

    #[test]
    fn parameterized_use_resolves_recursively() {
        // constraint Cl[T]; use [E where Cl[E] c] M[E with c] for Cl[Box[E]];
        // Resolving Cl[Box[int]] requires the subgoal Cl[int] (natural).
        let mut tb = Table::new();
        let t = tb.fresh_tv(Symbol::intern("T"));
        let cl = tb.add_constraint(ConstraintDef {
            name: Symbol::intern("Cl"),
            params: vec![t],
            prereqs: vec![],
            ops: vec![ConstraintOp {
                name: Symbol::intern("hashCode"),
                is_static: false,
                receiver: t,
                params: vec![],
                ret: Type::Prim(PrimTy::Int),
                span: Span::dummy(),
            }],
            variance: vec![],
            span: Span::dummy(),
        });
        let box_param = tb.fresh_tv(Symbol::intern("E"));
        let bx = tb.add_class(genus_types::ClassDef {
            name: Symbol::intern("Box"),
            is_interface: false,
            is_abstract: false,
            params: vec![box_param],
            wheres: vec![],
            extends: None,
            implements: vec![],
            fields: vec![],
            ctors: vec![],
            methods: vec![],
            span: Span::dummy(),
        });
        genus_types::variance::store_variances(&mut tb);
        let e = tb.fresh_tv(Symbol::intern("E"));
        let c = tb.fresh_mv(Symbol::intern("c"));
        let box_e = Type::Class {
            id: bx,
            args: vec![Type::Var(e)],
            models: vec![],
        };
        let mid = tb.add_model(ModelDef {
            name: Symbol::intern("M"),
            tparams: vec![e],
            wheres: vec![genus_types::WhereReq {
                inst: ConstraintInst {
                    id: cl,
                    args: vec![Type::Var(e)],
                },
                mv: c,
                named: true,
            }],
            for_inst: ConstraintInst {
                id: cl,
                args: vec![box_e.clone()],
            },
            extends: vec![],
            methods: vec![],
            span: Span::dummy(),
        });
        tb.uses.push(std::sync::Arc::new(genus_types::UseDef {
            tparams: vec![e],
            wheres: vec![genus_types::WhereReq {
                inst: ConstraintInst {
                    id: cl,
                    args: vec![Type::Var(e)],
                },
                mv: c,
                named: true,
            }],
            model: Model::Decl {
                id: mid,
                type_args: vec![Type::Var(e)],
                model_args: vec![Model::Var(c)],
            },
            for_inst: ConstraintInst {
                id: cl,
                args: vec![box_e],
            },
            span: Span::dummy(),
        }));
        let box_int = Type::Class {
            id: bx,
            args: vec![Type::Prim(PrimTy::Int)],
            models: vec![],
        };
        let goal = ConstraintInst {
            id: cl,
            args: vec![box_int],
        };
        let enabled = vec![];
        let next = Cell::new(0);
        let ctx = ResolveCtx::new(&tb, &enabled, &next);
        match resolve_default(&ctx, &goal).unwrap() {
            Model::Decl {
                id,
                type_args,
                model_args,
            } => {
                assert_eq!(id, mid);
                assert_eq!(type_args, vec![Type::Prim(PrimTy::Int)]);
                assert_eq!(
                    model_args,
                    vec![Model::Natural {
                        inst: ConstraintInst {
                            id: cl,
                            args: vec![Type::Prim(PrimTy::Int)]
                        }
                    }]
                );
            }
            other => panic!("expected instantiated model, got {other:?}"),
        }
    }

    #[test]
    fn failing_subgoal_removes_candidate() {
        // Same as above but the element type does not satisfy Cl.
        let mut tb = Table::new();
        let t = tb.fresh_tv(Symbol::intern("T"));
        let cl = tb.add_constraint(ConstraintDef {
            name: Symbol::intern("Cl"),
            params: vec![t],
            prereqs: vec![],
            ops: vec![ConstraintOp {
                name: Symbol::intern("definitelyMissing"),
                is_static: false,
                receiver: t,
                params: vec![],
                ret: Type::Prim(PrimTy::Int),
                span: Span::dummy(),
            }],
            variance: vec![],
            span: Span::dummy(),
        });
        genus_types::variance::store_variances(&mut tb);
        let goal = ConstraintInst {
            id: cl,
            args: vec![Type::Prim(PrimTy::Int)],
        };
        let enabled = vec![];
        let next = Cell::new(0);
        let ctx = ResolveCtx::new(&tb, &enabled, &next);
        assert_eq!(resolve_default(&ctx, &goal), Err(ResolveError::NotFound));
    }

    #[test]
    fn repeated_resolution_hits_memo() {
        // The assertion below is about the memo itself, so force the
        // caches on even when built with `--features no-cache`.
        genus_types::set_caches_enabled(true);
        let mut tb = Table::new();
        let eq = eq_constraint(&mut tb);
        genus_types::variance::store_variances(&mut tb);
        let next = Cell::new(0);
        let enabled = vec![];
        let ctx = ResolveCtx::new(&tb, &enabled, &next);
        let inst = ConstraintInst {
            id: eq,
            args: vec![Type::Prim(PrimTy::Int)],
        };
        let before = tb.cache.stats();
        let m1 = resolve_default(&ctx, &inst).unwrap();
        let m2 = resolve_default(&ctx, &inst).unwrap();
        assert_eq!(m1, m2);
        let after = tb.cache.stats();
        assert_eq!(after.resolve_misses, before.resolve_misses + 1);
        assert_eq!(after.resolve_hits, before.resolve_hits + 1);
    }

    #[test]
    fn different_scopes_do_not_share_memo_entries() {
        let mut tb = Table::new();
        let eq = eq_constraint(&mut tb);
        genus_types::variance::store_variances(&mut tb);
        let mv = tb.fresh_mv(Symbol::intern("c"));
        let tv = tb.fresh_tv(Symbol::intern("T"));
        let inst = ConstraintInst {
            id: eq,
            args: vec![Type::Var(tv)],
        };
        let next = Cell::new(0);
        // Empty scope: nothing witnesses Eq[T].
        let empty = vec![];
        let ctx1 = ResolveCtx::new(&tb, &empty, &next);
        assert_eq!(resolve_default(&ctx1, &inst), Err(ResolveError::NotFound));
        // A scope with a where-clause witness resolves the same goal.
        let enabled = vec![(inst.clone(), Model::Var(mv))];
        let ctx2 = ResolveCtx::new(&tb, &enabled, &next);
        assert_eq!(resolve_default(&ctx2, &inst).unwrap(), Model::Var(mv));
    }

    #[test]
    fn canonicalization_renumbers_infer_vars() {
        let cid = genus_types::ConstraintId(0);
        let a = ConstraintInst {
            id: cid,
            args: vec![Type::Infer(7), Type::Infer(9), Type::Infer(7)],
        };
        let b = ConstraintInst {
            id: cid,
            args: vec![Type::Infer(3), Type::Infer(5), Type::Infer(3)],
        };
        assert_eq!(canonical_inst(&a), canonical_inst(&b));
        assert_eq!(
            canonical_inst(&a),
            ConstraintInst {
                id: cid,
                args: vec![Type::Infer(0), Type::Infer(1), Type::Infer(0)]
            }
        );
        // Distinct sharing patterns stay distinct.
        let c = ConstraintInst {
            id: cid,
            args: vec![Type::Infer(3), Type::Infer(5), Type::Infer(5)],
        };
        assert_ne!(canonical_inst(&a), canonical_inst(&c));
    }

    #[test]
    fn canonicalization_handles_nested_types_and_models() {
        let mut tb = Table::new();
        let t = tb.fresh_tv(Symbol::intern("T"));
        let bx = tb.add_class(genus_types::ClassDef {
            name: Symbol::intern("Box"),
            is_interface: false,
            is_abstract: false,
            params: vec![t],
            wheres: vec![],
            extends: None,
            implements: vec![],
            fields: vec![],
            ctors: vec![],
            methods: vec![],
            span: Span::dummy(),
        });
        let cid = genus_types::ConstraintId(0);
        let mk = |ti: u32, mi: u32| ConstraintInst {
            id: cid,
            args: vec![Type::Class {
                id: bx,
                args: vec![Type::Array(Box::new(Type::Infer(ti)))],
                models: vec![Model::Infer(mi)],
            }],
        };
        assert_eq!(canonical_inst(&mk(4, 8)), canonical_inst(&mk(2, 6)));
        // Type-infer and model-infer namespaces draw from one counter in
        // first-occurrence order.
        assert_eq!(canonical_inst(&mk(4, 8)), mk(0, 1));
    }

    #[test]
    fn depth_chain_names_the_goals() {
        // use [E where Cl[Box[E]] c] M[E with c] for Cl[Box[E]];
        // Resolving Cl[Box[int]] requires Cl[Box[Box[int]]], which requires
        // Cl[Box[Box[Box[int]]]], ... — divergent, so the depth bound trips
        // and the chain lists the widening goals.
        let mut tb = Table::new();
        let t = tb.fresh_tv(Symbol::intern("T"));
        let cl = tb.add_constraint(ConstraintDef {
            name: Symbol::intern("Cl"),
            params: vec![t],
            prereqs: vec![],
            ops: vec![],
            variance: vec![],
            span: Span::dummy(),
        });
        let box_param = tb.fresh_tv(Symbol::intern("E"));
        let bx = tb.add_class(genus_types::ClassDef {
            name: Symbol::intern("Box"),
            is_interface: false,
            is_abstract: false,
            params: vec![box_param],
            wheres: vec![],
            extends: None,
            implements: vec![],
            fields: vec![],
            ctors: vec![],
            methods: vec![],
            span: Span::dummy(),
        });
        genus_types::variance::store_variances(&mut tb);
        let e = tb.fresh_tv(Symbol::intern("E"));
        let c = tb.fresh_mv(Symbol::intern("c"));
        let box_e = Type::Class {
            id: bx,
            args: vec![Type::Var(e)],
            models: vec![],
        };
        let box_box_e = Type::Class {
            id: bx,
            args: vec![box_e.clone()],
            models: vec![],
        };
        let mid = tb.add_model(ModelDef {
            name: Symbol::intern("M"),
            tparams: vec![e],
            wheres: vec![genus_types::WhereReq {
                inst: ConstraintInst {
                    id: cl,
                    args: vec![box_box_e.clone()],
                },
                mv: c,
                named: true,
            }],
            for_inst: ConstraintInst {
                id: cl,
                args: vec![box_e.clone()],
            },
            extends: vec![],
            methods: vec![],
            span: Span::dummy(),
        });
        tb.uses.push(std::sync::Arc::new(genus_types::UseDef {
            tparams: vec![e],
            wheres: vec![genus_types::WhereReq {
                inst: ConstraintInst {
                    id: cl,
                    args: vec![box_box_e],
                },
                mv: c,
                named: true,
            }],
            model: Model::Decl {
                id: mid,
                type_args: vec![Type::Var(e)],
                model_args: vec![Model::Var(c)],
            },
            for_inst: ConstraintInst {
                id: cl,
                args: vec![box_e],
            },
            span: Span::dummy(),
        }));
        let box_int = Type::Class {
            id: bx,
            args: vec![Type::Prim(PrimTy::Int)],
            models: vec![],
        };
        let goal = ConstraintInst {
            id: cl,
            args: vec![box_int],
        };
        let enabled = vec![];
        let next = Cell::new(0);
        let ctx = ResolveCtx::new(&tb, &enabled, &next);
        match resolve_default(&ctx, &goal) {
            Err(ResolveError::DepthExceeded(chain)) => {
                assert!(
                    chain.len() >= 2,
                    "chain should name several goals, got {chain:?}"
                );
                assert_eq!(chain[0], goal, "outermost goal leads the chain");
                assert!(chain.iter().all(|g| g.id == cl));
            }
            other => panic!("expected depth exhaustion, got {other:?}"),
        }
    }
}

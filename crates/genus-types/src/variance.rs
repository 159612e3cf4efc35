//! Variance inference for constraint parameters (§5.2).
//!
//! "Variance is inferred automatically by the compiler, with bivariance
//! downgraded to contravariance." A model for `Eq[Shape]` can witness
//! `Eq[Circle]` because `Eq`'s parameter occurs only in input
//! (contravariant) positions.

use crate::table::Table;
use crate::ty::{Model, TvId, Type};
use std::sync::Arc;

/// Variance of one constraint parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variance {
    /// Parameter does not occur (downgraded to contravariant for entailment,
    /// per the paper, but recorded faithfully).
    Bivariant,
    /// Occurs only in output positions: a model for `K[S]` witnesses `K[T]`
    /// when `S <: T`.
    Covariant,
    /// Occurs only in input positions: a model for `K[S]` witnesses `K[T]`
    /// when `T <: S`.
    Contravariant,
    /// Occurs in both (or under invariant positions): only exact matches.
    Invariant,
}

impl Variance {
    /// Least upper bound in the lattice `Bi < {Co, Contra} < In`.
    pub fn join(self, other: Variance) -> Variance {
        use Variance::*;
        match (self, other) {
            (Bivariant, v) | (v, Bivariant) => v,
            (Covariant, Covariant) => Covariant,
            (Contravariant, Contravariant) => Contravariant,
            _ => Invariant,
        }
    }

    /// The variance used for entailment: bivariance downgrades to
    /// contravariance (§5.2).
    pub fn for_entailment(self) -> Variance {
        match self {
            Variance::Bivariant => Variance::Contravariant,
            v => v,
        }
    }
}

/// Computes the variance vectors of all constraints in the table by fixpoint
/// iteration (constraints may reference each other through prerequisites).
pub fn compute_variances(table: &Table) -> Vec<Vec<Variance>> {
    let n = table.constraints.len();
    let mut result: Vec<Vec<Variance>> = (0..n)
        .map(|i| vec![Variance::Bivariant; table.constraints[i].params.len()])
        .collect();
    loop {
        let mut changed = false;
        for (ci, def) in table.constraints.iter().enumerate() {
            for (pi, &param) in def.params.iter().enumerate() {
                let mut v = Variance::Bivariant;
                for op in &def.ops {
                    // Instance-operation receivers are value inputs.
                    if !op.is_static && op.receiver == param {
                        v = v.join(Variance::Contravariant);
                    }
                    for (_, pty) in &op.params {
                        v = v.join(occurrence(param, pty, Variance::Contravariant));
                    }
                    v = v.join(occurrence(param, &op.ret, Variance::Covariant));
                }
                for pre in &def.prereqs {
                    let pre_vars = &result[pre.id.0 as usize];
                    for (ai, arg) in pre.args.iter().enumerate() {
                        let pv = pre_vars.get(ai).copied().unwrap_or(Variance::Invariant);
                        match arg {
                            Type::Var(x) if *x == param => {
                                v = v.join(pv);
                            }
                            _ => {
                                if occurs_anywhere(param, arg) {
                                    v = v.join(Variance::Invariant);
                                }
                            }
                        }
                    }
                }
                if result[ci][pi] != v {
                    // The lattice is finite and `join` is monotone, so this
                    // terminates.
                    result[ci][pi] = result[ci][pi].join(v);
                    changed = true;
                }
            }
        }
        if !changed {
            return result;
        }
    }
}

/// Variance contribution of occurrences of `param` in `ty` at position
/// `pos`. Occurrences nested inside generic arguments or arrays are
/// invariant (generics are invariant in Genus).
fn occurrence(param: TvId, ty: &Type, pos: Variance) -> Variance {
    match ty {
        Type::Var(v) if *v == param => pos,
        Type::Var(_) | Type::Prim(_) | Type::Null | Type::Infer(_) => Variance::Bivariant,
        Type::Array(e) => {
            if occurs_anywhere(param, e) {
                Variance::Invariant
            } else {
                Variance::Bivariant
            }
        }
        Type::Class { args, models, .. } => {
            let in_args = args.iter().any(|a| occurs_anywhere(param, a));
            let in_models = models.iter().any(|m| occurs_in_model(param, m));
            if in_args || in_models {
                Variance::Invariant
            } else {
                Variance::Bivariant
            }
        }
        Type::Existential { wheres, body, .. } => {
            let inside = occurs_anywhere(param, body)
                || wheres
                    .iter()
                    .any(|w| w.inst.args.iter().any(|a| occurs_anywhere(param, a)));
            if inside {
                Variance::Invariant
            } else {
                Variance::Bivariant
            }
        }
    }
}

fn occurs_anywhere(param: TvId, ty: &Type) -> bool {
    let mut tvs = Vec::new();
    ty.free_tvs(&mut tvs);
    tvs.contains(&param)
}

fn occurs_in_model(param: TvId, m: &Model) -> bool {
    let mut tvs = Vec::new();
    m.free_tvs(&mut tvs);
    tvs.contains(&param)
}

/// Applies computed variances back into the table.
pub fn store_variances(table: &mut Table) {
    let vs = compute_variances(table);
    for (i, v) in vs.into_iter().enumerate() {
        // Unchanged entries stay shared with any table this one forked.
        if table.constraints[i].variance != v {
            Arc::make_mut(&mut table.constraints[i]).variance = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{ConstraintDef, ConstraintOp, Table};
    use crate::ty::{ConstraintInst, PrimTy};
    use genus_common::{Span, Symbol};

    fn op(
        name: &str,
        is_static: bool,
        receiver: TvId,
        params: Vec<Type>,
        ret: Type,
    ) -> ConstraintOp {
        ConstraintOp {
            name: Symbol::intern(name),
            is_static,
            receiver,
            params: params
                .into_iter()
                .enumerate()
                .map(|(i, t)| (Symbol::intern(&format!("p{i}")), t))
                .collect(),
            ret,
            span: Span::dummy(),
        }
    }

    #[test]
    fn eq_is_contravariant() {
        let mut tb = Table::new();
        let t = tb.fresh_tv(Symbol::intern("T"));
        tb.add_constraint(ConstraintDef {
            name: Symbol::intern("Eq"),
            params: vec![t],
            prereqs: vec![],
            ops: vec![op(
                "equals",
                false,
                t,
                vec![Type::Var(t)],
                Type::Prim(PrimTy::Boolean),
            )],
            variance: vec![],
            span: Span::dummy(),
        });
        let v = compute_variances(&tb);
        assert_eq!(v[0], vec![Variance::Contravariant]);
    }

    #[test]
    fn comparable_inherits_contra_via_prereq() {
        let mut tb = Table::new();
        let t = tb.fresh_tv(Symbol::intern("T"));
        let eq = tb.add_constraint(ConstraintDef {
            name: Symbol::intern("Eq"),
            params: vec![t],
            prereqs: vec![],
            ops: vec![op(
                "equals",
                false,
                t,
                vec![Type::Var(t)],
                Type::Prim(PrimTy::Boolean),
            )],
            variance: vec![],
            span: Span::dummy(),
        });
        let u = tb.fresh_tv(Symbol::intern("T"));
        tb.add_constraint(ConstraintDef {
            name: Symbol::intern("Comparable"),
            params: vec![u],
            prereqs: vec![ConstraintInst {
                id: eq,
                args: vec![Type::Var(u)],
            }],
            ops: vec![op(
                "compareTo",
                false,
                u,
                vec![Type::Var(u)],
                Type::Prim(PrimTy::Int),
            )],
            variance: vec![],
            span: Span::dummy(),
        });
        let v = compute_variances(&tb);
        assert_eq!(v[1], vec![Variance::Contravariant]);
    }

    #[test]
    fn ordring_is_invariant() {
        let mut tb = Table::new();
        let t = tb.fresh_tv(Symbol::intern("T"));
        tb.add_constraint(ConstraintDef {
            name: Symbol::intern("OrdRing"),
            params: vec![t],
            prereqs: vec![],
            ops: vec![
                op("zero", true, t, vec![], Type::Var(t)),
                op("plus", false, t, vec![Type::Var(t)], Type::Var(t)),
            ],
            variance: vec![],
            span: Span::dummy(),
        });
        let v = compute_variances(&tb);
        assert_eq!(v[0], vec![Variance::Invariant]);
    }

    #[test]
    fn unused_param_is_bivariant_then_downgraded() {
        let mut tb = Table::new();
        let t = tb.fresh_tv(Symbol::intern("T"));
        tb.add_constraint(ConstraintDef {
            name: Symbol::intern("Marker"),
            params: vec![t],
            prereqs: vec![],
            ops: vec![],
            variance: vec![],
            span: Span::dummy(),
        });
        let v = compute_variances(&tb);
        assert_eq!(v[0], vec![Variance::Bivariant]);
        assert_eq!(v[0][0].for_entailment(), Variance::Contravariant);
    }

    #[test]
    fn covariant_output_only() {
        let mut tb = Table::new();
        let t = tb.fresh_tv(Symbol::intern("T"));
        let r = tb.fresh_tv(Symbol::intern("R"));
        tb.add_constraint(ConstraintDef {
            name: Symbol::intern("Producer"),
            params: vec![t, r],
            prereqs: vec![],
            ops: vec![op("produce", false, t, vec![], Type::Var(r))],
            variance: vec![],
            span: Span::dummy(),
        });
        let v = compute_variances(&tb);
        assert_eq!(v[0], vec![Variance::Contravariant, Variance::Covariant]);
    }

    #[test]
    fn nested_occurrence_is_invariant() {
        let mut tb = Table::new();
        let t = tb.fresh_tv(Symbol::intern("T"));
        tb.add_constraint(ConstraintDef {
            name: Symbol::intern("ArrayLike"),
            params: vec![t],
            prereqs: vec![],
            ops: vec![op(
                "toArray",
                false,
                t,
                vec![],
                Type::Array(Box::new(Type::Var(t))),
            )],
            variance: vec![],
            span: Span::dummy(),
        });
        let v = compute_variances(&tb);
        assert_eq!(v[0], vec![Variance::Invariant]);
    }
}

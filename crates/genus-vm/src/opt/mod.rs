//! The bytecode optimizer: automatic heterogeneous translation (§7.3)
//! plus classic intra-function cleanup.
//!
//! The VM's baseline compilation is the paper's *homogeneous* translation:
//! one copy of each generic body, parameterized over runtime type/model
//! witnesses passed through frame environments, with every constraint
//! operation dispatched through `Op::CallModel`. This module closes the
//! gap to the *heterogeneous* translation the paper credits for its
//! Table 1 wins, without giving up the dictionary-passing fallback:
//!
//! 1. **Specialization** (`specialize`): walk every function, find call
//!    sites whose type/model-argument tuples are closed terms (statically
//!    known), clone the callee per tuple with the bindings substituted
//!    into its spec tables, and rewrite the site to a direct call. Inside
//!    those clones, `Op::CallModel` sites become direct calls to model
//!    methods, virtual calls, or primitive built-ins. A per-function and
//!    global clone budget bounds code growth; over-budget or dynamically
//!    known sites (model variables bound by `Open`, existential
//!    witnesses) keep the dictionary-passing original.
//! 2. **Cleanup** (`cleanup`): constant folding and propagation, branch
//!    folding on constant conditions, jump threading, `Move` coalescing,
//!    and unreachable-code elimination.
//! 3. **Type reification**: `types`-table entries that are closed and
//!    existential-free are pre-evaluated once into
//!    [`VmProgram::rt_types`], so `NewArray`/`DefaultValue`/`InstanceOf`/
//!    `Cast` skip per-execution type evaluation.
//!
//! Every transformation preserves observable behaviour exactly — values,
//! output bytes, error codes *and* messages — which the differential
//! suites check at every opt level.

pub(crate) mod cleanup;
pub(crate) mod specialize;
pub(crate) mod subst;

use crate::bytecode::VmProgram;
use genus_check::CheckedProgram;
use genus_interp::rtti::{self, MEnv, TEnv};

/// Counters reported by `--stats`: what the pipeline did to a program.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct OptStats {
    /// The level the program was optimized at (0 = untouched).
    pub level: u8,
    /// Specialized clones created (heterogeneous translation).
    pub funcs_specialized: usize,
    /// Call sites rewritten to `Op::CallDirect`.
    pub calls_directed: usize,
    /// `Op::CallModel` sites devirtualized (to direct, virtual, static,
    /// or primitive calls).
    pub call_model_devirted: usize,
    /// Specialization requests declined by the clone budget.
    pub budget_fallbacks: usize,
    /// `CallModel` sites kept on dictionary passing because the witness
    /// or receiver/argument types are only dynamically known.
    pub dynamic_fallbacks: usize,
    /// Operations folded to constants.
    pub consts_folded: usize,
    /// Conditional branches folded on constant conditions.
    pub branches_folded: usize,
    /// `Move`s coalesced into their producing instruction.
    pub moves_coalesced: usize,
    /// Instructions removed (dead code, threaded jumps, no-ops).
    pub ops_eliminated: usize,
    /// `types`-table entries pre-reified into `rt_types`.
    pub types_reified: usize,
}

/// Compiles `prog` and runs the optimization pipeline at `level`
/// (clamped to `0..=2`), segment by segment: the program's library files
/// are lowered and optimized to completion before the rest (see
/// [`crate::link`]), so a program extending a prebuilt library gets the
/// same bytecode from [`crate::link::link_to_stdlib`].
#[must_use]
pub fn compile_optimized(prog: &CheckedProgram, level: u8) -> VmProgram {
    crate::link::compile_segmented(prog, level)
}

/// Runs the pipeline in place over an already lowered program, as one
/// segment: specialization (level ≥ 2), then cleanup and type reification
/// (level ≥ 1). Level 0 leaves the program untouched.
pub fn optimize(code: &mut VmProgram, prog: &CheckedProgram, level: u8) {
    let level = level.min(2);
    code.opt_stats.level = level;
    if level == 0 {
        return;
    }
    if level >= 2 {
        specialize::specialize(code, prog);
    }
    cleanup::cleanup(code);
    reify_types(code, prog);
}

/// Pre-evaluates every closed, existential-free `types` entry. Closed
/// terms evaluate identically under any environment, and non-existential
/// targets take the plain reified path in `instanceof`/`cast`, so the VM
/// can substitute the cached reification wherever one exists.
pub(crate) fn reify_types(code: &mut VmProgram, prog: &CheckedProgram) {
    code.rt_types.clear();
    reify_types_from(code, prog, 0);
}

/// [`reify_types`] of the `types` entries from `first` on, appended to
/// `rt_types` (which covers exactly the entries before `first`).
pub(crate) fn reify_types_from(code: &mut VmProgram, prog: &CheckedProgram, first: usize) {
    let (tenv, menv) = (TEnv::new(), MEnv::new());
    for t in &code.types[first..] {
        if subst::ty_closed(t) && !subst::contains_existential(t) {
            code.opt_stats.types_reified += 1;
            code.rt_types
                .push(Some(rtti::eval_type(prog, &tenv, &menv, t)));
        } else {
            code.rt_types.push(None);
        }
    }
}

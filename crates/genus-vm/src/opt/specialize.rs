//! The heterogeneous translation (§7.3): per-tuple function cloning and
//! call devirtualization.
//!
//! A worklist walks every compiled function. At each call site whose
//! type/model-argument tuple is a *closed* term (see [`super::subst`]),
//! the callee is cloned with the tuple substituted through its spec
//! tables and the site is rewritten to [`Op::CallDirect`] — no runtime
//! environment, no dispatch. Clones are enqueued and rewritten in turn,
//! so specialization cascades: `isort[int]`'s body sees its inner
//! `CallModel compareTo` with a closed witness and devirtualizes it all
//! the way down to a primitive built-in.
//!
//! Safety mirrors the dynamic dispatch rules exactly:
//!
//! - a `CallModel` through a **declared model** is only devirtualized
//!   when exactly one candidate matches the name/kind/arity *and* the
//!   static receiver/argument types prove it applicable for every value
//!   that can reach the site; a null-receiver check re-creates the
//!   dynamic path's `NullPointer` trap;
//! - a `CallModel` through a **natural model** becomes a virtual call
//!   (instance receivers — bit-for-bit the dynamic behaviour, plus an
//!   inline-cache site) or a static/primitive call (receiver types);
//! - everything else — open witnesses (`Open`-bound model variables,
//!   existential packages), multi-candidate multimethods, over-budget
//!   requests — keeps the dictionary-passing original.

use super::subst::{contains_existential, model_closed, mv_to_model, rt_to_type, ty_closed};
use crate::bytecode::{
    DirectSpec, FuncId, ModelSpec, Op, PrimSpec, StaticSpec, VirtSpec, VmProgram,
};
use genus_check::CheckedProgram;
use genus_interp::rtti::{self, MEnv, TEnv};
use genus_interp::{ModelValue, RtType};
use genus_types::{Model, ModelId, MvId, Subst, TvId, Type};
use std::collections::HashMap;

/// Max specialized clones per original function. Beyond this the site
/// keeps dictionary passing — the budget that bounds code growth under
/// polymorphic recursion (`f[T]` calling `f[Box[T]]`).
const MAX_CLONES_PER_FUNC: usize = 8;
/// Global clone cap across the whole program.
const MAX_CLONES_TOTAL: usize = 256;

/// Identity of an original (pre-specialization) body.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Target {
    /// `(class, method index)`.
    Method(u32, u32),
    /// Global index.
    Global(u32),
    /// `(model, method index)`.
    ModelMethod(u32, u32),
}

/// Canonical binding tuple: the memo key for one specialization.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct SpecKey {
    target: Target,
    tys: Vec<(TvId, Type)>,
    models: Vec<(MvId, Model)>,
}

/// Specialization decisions carried from one segment to the next: the
/// memo of clones made (or declined) and the clone budget spent.
#[derive(Debug, Clone, Default)]
pub(crate) struct SpecState {
    done: HashMap<SpecKey, Option<FuncId>>,
    clones_per: HashMap<Target, usize>,
    total_clones: usize,
}

/// Runs specialization over `code` in place.
pub fn specialize(code: &mut VmProgram, prog: &CheckedProgram) {
    specialize_from(code, prog, &mut SpecState::default(), 0);
}

/// Runs specialization over the functions from `first` on (and the clones
/// they cascade into), continuing the decisions and budget in `state`.
pub(crate) fn specialize_from(
    code: &mut VmProgram,
    prog: &CheckedProgram,
    state: &mut SpecState,
    first: usize,
) {
    let mut sp = Specializer {
        code,
        prog,
        state: std::mem::take(state),
        queue: Vec::new(),
    };
    let n = sp.code.funcs.len() as u32;
    sp.queue.extend((first as u32..n).map(FuncId));
    let mut i = 0;
    while i < sp.queue.len() {
        let fid = sp.queue[i];
        i += 1;
        sp.rewrite_fn(fid);
    }
    *state = sp.state;
}

struct Specializer<'a> {
    code: &'a mut VmProgram,
    prog: &'a CheckedProgram,
    state: SpecState,
    queue: Vec<FuncId>,
}

impl Specializer<'_> {
    fn rewrite_fn(&mut self, fid: FuncId) {
        // Take the body out so spec tables (and other functions, for
        // cloning) stay mutably reachable while we rewrite it.
        let mut body = std::mem::take(&mut self.code.funcs[fid.0 as usize].code);
        for op in &mut body {
            let new = match *op {
                Op::CallStatic { dst, spec } => self.rewrite_static(dst, spec),
                Op::CallGlobal { dst, spec } => self.rewrite_global(dst, spec),
                Op::CallModel { dst, spec, .. } => self.rewrite_model(dst, spec),
                _ => None,
            };
            if let Some(new) = new {
                *op = new;
            }
        }
        self.code.funcs[fid.0 as usize].code = body;
    }

    // ------------------------------------------------------------------
    // Site rewrites
    // ------------------------------------------------------------------

    /// `CallStatic` with closed type/model arguments: direct call to the
    /// original (non-generic) or a specialized clone. The dynamic path
    /// binds only *method-level* parameters for this op, so that is all
    /// the substitution carries.
    fn rewrite_static(&mut self, dst: u16, spec: u32) -> Option<Op> {
        let s = self.code.static_specs[spec as usize].clone();
        let def = self.prog.table.class(s.class);
        let m = &def.methods[s.method];
        if m.is_native
            || !self
                .code
                .methods
                .contains_key(&(s.class.0, s.method as u32))
        {
            return None;
        }
        if !s.targs.iter().all(ty_closed) || !s.margs.iter().all(model_closed) {
            return None;
        }
        let orig = self.code.methods[&(s.class.0, s.method as u32)];
        let tys = m
            .tparams
            .iter()
            .copied()
            .zip(s.targs.iter().cloned())
            .collect();
        let models = m
            .wheres
            .iter()
            .map(|w| w.mv)
            .zip(s.margs.iter().cloned())
            .collect();
        let callee = self.request(
            Target::Method(s.class.0, s.method as u32),
            orig,
            tys,
            models,
        )?;
        Some(self.direct(dst, callee, None, false, s.args))
    }

    /// `CallGlobal` with closed type/model arguments.
    fn rewrite_global(&mut self, dst: u16, spec: u32) -> Option<Op> {
        let s = self.code.global_specs[spec as usize].clone();
        let g = &self.prog.table.globals[s.index];
        if g.is_native || !self.code.globals.contains_key(&(s.index as u32)) {
            return None;
        }
        if !s.targs.iter().all(ty_closed) || !s.margs.iter().all(model_closed) {
            return None;
        }
        let orig = self.code.globals[&(s.index as u32)];
        let tys = g
            .tparams
            .iter()
            .copied()
            .zip(s.targs.iter().cloned())
            .collect();
        let models = g
            .wheres
            .iter()
            .map(|w| w.mv)
            .zip(s.margs.iter().cloned())
            .collect();
        let callee = self.request(Target::Global(s.index as u32), orig, tys, models)?;
        Some(self.direct(dst, callee, None, false, s.args))
    }

    /// `CallModel` with a closed witness: devirtualize per the model kind.
    fn rewrite_model(&mut self, dst: u16, spec: u32) -> Option<Op> {
        let s = self.code.model_specs[spec as usize].clone();
        if !model_closed(&s.model) {
            self.code.opt_stats.dynamic_fallbacks += 1;
            return None;
        }
        let (tenv, menv) = (TEnv::new(), MEnv::new());
        let new = match rtti::eval_model(self.prog, &tenv, &menv, &s.model) {
            ModelValue::Natural { .. } => self.rewrite_natural(dst, &s),
            ModelValue::Decl { id, targs, margs } => self.rewrite_decl(dst, &s, id, &targs, &margs),
        };
        if new.is_some() {
            self.code.opt_stats.call_model_devirted += 1;
        } else {
            self.code.opt_stats.dynamic_fallbacks += 1;
        }
        new
    }

    /// Natural-model operation: the dynamic path is `prepare_virtual` for
    /// instance receivers and a static-method/primitive lookup for type
    /// receivers. Reproduce it with the cheapest equivalent op.
    fn rewrite_natural(&mut self, dst: u16, s: &ModelSpec) -> Option<Op> {
        let (tenv, menv) = (TEnv::new(), MEnv::new());
        match s.recv {
            Some(recv) => {
                // A statically primitive receiver can never be an object,
                // a string, or null: the dynamic path lands in the
                // primitive built-ins unconditionally.
                if let Some(rt) = &s.recv_ty {
                    if ty_closed(rt) && !contains_existential(rt) {
                        if let RtType::Prim(p) = rtti::eval_type(self.prog, &tenv, &menv, rt) {
                            let idx = self.code.prim_specs.len() as u32;
                            self.code.prim_specs.push(PrimSpec {
                                prim: p,
                                name: s.name,
                                recv: Some(recv),
                                args: s.args.clone(),
                            });
                            return Some(Op::PrimCall { dst, spec: idx });
                        }
                    }
                }
                // Otherwise the dynamic path is exactly a virtual call
                // with no method-level arguments — rewrite to one, which
                // skips the per-call witness evaluation and gains an
                // inline-cache site.
                let idx = self.code.virt_specs.len() as u32;
                self.code.virt_specs.push(VirtSpec {
                    name: s.name,
                    arity: s.args.len(),
                    targs: vec![],
                    margs: vec![],
                    args: s.args.clone(),
                });
                let site = self.fresh_site();
                Some(Op::CallVirtual {
                    dst,
                    recv,
                    spec: idx,
                    site,
                })
            }
            None => {
                let srt = s.static_recv.as_ref()?;
                if !ty_closed(srt) || contains_existential(srt) {
                    return None;
                }
                match rtti::eval_type(self.prog, &tenv, &menv, srt) {
                    RtType::Prim(p) => {
                        let idx = self.code.prim_specs.len() as u32;
                        self.code.prim_specs.push(PrimSpec {
                            prim: p,
                            name: s.name,
                            recv: None,
                            args: s.args.clone(),
                        });
                        Some(Op::PrimCall { dst, spec: idx })
                    }
                    RtType::Class {
                        id,
                        args: cargs,
                        models: cmodels,
                    } => {
                        let def = self.prog.table.class(id);
                        let mi = def.methods.iter().position(|m| {
                            m.is_static && m.name == s.name && m.params.len() == s.args.len()
                        })?;
                        let m = &def.methods[mi];
                        if m.is_native {
                            // Native statics ignore the class environment,
                            // so a plain `CallStatic` (which passes empty
                            // class bindings) reproduces the dynamic path.
                            let idx = self.code.static_specs.len() as u32;
                            self.code.static_specs.push(StaticSpec {
                                class: id,
                                method: mi,
                                targs: vec![],
                                margs: vec![],
                                args: s.args.clone(),
                            });
                            return Some(Op::CallStatic { dst, spec: idx });
                        }
                        if !self.code.methods.contains_key(&(id.0, mi as u32)) {
                            return None;
                        }
                        // The dynamic path binds the *class* parameters
                        // from the receiver type; specialize under them.
                        let orig = self.code.methods[&(id.0, mi as u32)];
                        let tys = def
                            .params
                            .iter()
                            .copied()
                            .zip(cargs.iter().map(rt_to_type))
                            .collect();
                        let models = def
                            .wheres
                            .iter()
                            .map(|w| w.mv)
                            .zip(cmodels.iter().map(mv_to_model))
                            .collect();
                        let callee =
                            self.request(Target::Method(id.0, mi as u32), orig, tys, models)?;
                        Some(self.direct(dst, callee, None, false, s.args.clone()))
                    }
                    _ => None,
                }
            }
        }
    }

    /// Declared-model operation (a multimethod, §5.1): provable only when
    /// exactly one candidate matches and the static receiver/argument
    /// types guarantee it applicable for every value reaching the site.
    fn rewrite_decl(
        &mut self,
        dst: u16,
        s: &ModelSpec,
        id: ModelId,
        targs: &[RtType],
        margs: &[ModelValue],
    ) -> Option<Op> {
        let mut cands = Vec::new();
        rtti::model_candidates(self.prog, id, targs, margs, &mut cands, 0);
        let is_static = s.recv.is_none();
        let mut matching = cands.iter().filter(|c| {
            let m = &self.prog.table.model(c.0).methods[c.1];
            m.name == s.name && m.is_static == is_static && m.params.len() == s.args.len()
        });
        // More than one candidate would need the dynamic specificity
        // ordering over runtime types; keep the multimethod dispatch.
        let (mid, mi, tenv, menv) = matching.next()?;
        if matching.next().is_some() {
            return None;
        }
        let (mid, mi) = (*mid, *mi);
        let m = &self.prog.table.model(mid).methods[mi];
        let recv_t = rtti::eval_type(self.prog, tenv, menv, &m.receiver);
        let (empty_t, empty_m) = (TEnv::new(), MEnv::new());
        // Receiver guarantee.
        let null_check = if is_static {
            // Static operations match the receiver *type* exactly.
            let srt = s.static_recv.as_ref()?;
            if !ty_closed(srt) || contains_existential(srt) {
                return None;
            }
            if rtti::eval_type(self.prog, &empty_t, &empty_m, srt) != recv_t {
                return None;
            }
            false
        } else {
            // Instance operations need every possible dynamic receiver
            // type to be a subtype of the candidate's receiver type —
            // guaranteed by soundness when the *static* type already is.
            // Null receivers make no candidate applicable and fall back
            // to a "call on null" trap, which the null check re-creates.
            let rt = s.recv_ty.as_ref()?;
            if !ty_closed(rt) || contains_existential(rt) {
                return None;
            }
            let vrt = rtti::eval_type(self.prog, &empty_t, &empty_m, rt);
            if !rtti::rt_subtype(self.prog, &vrt, &recv_t) {
                return None;
            }
            !matches!(vrt, RtType::Prim(_))
        };
        // Argument guarantees: the dynamic rule accepts any null argument
        // and any value for a primitive-typed parameter; otherwise the
        // static argument type must already prove the subtyping.
        for (i, (_, pt)) in m.params.iter().enumerate() {
            let param_t = rtti::eval_type(self.prog, tenv, menv, pt);
            if matches!(param_t, RtType::Prim(_)) {
                continue;
            }
            let at = s.arg_tys.get(i)?;
            if !ty_closed(at) || contains_existential(at) {
                return None;
            }
            let art = rtti::eval_type(self.prog, &empty_t, &empty_m, at);
            if !rtti::rt_subtype(self.prog, &art, &param_t) {
                return None;
            }
        }
        // Clone the model method under the candidate's environment.
        let orig = *self.code.model_methods.get(&(mid.0, mi as u32))?;
        let tys = tenv.iter().map(|(tv, t)| (*tv, rt_to_type(t))).collect();
        let models = menv.iter().map(|(mv, m)| (*mv, mv_to_model(m))).collect();
        let callee = self.request(Target::ModelMethod(mid.0, mi as u32), orig, tys, models)?;
        Some(self.direct(dst, callee, s.recv, null_check, s.args.clone()))
    }

    // ------------------------------------------------------------------
    // Clone management
    // ------------------------------------------------------------------

    /// Returns the function to call directly for `target` under the given
    /// bindings: the original itself when nothing needs substituting, a
    /// (possibly memoized) specialized clone otherwise, or `None` when
    /// the clone budget declines the request.
    fn request(
        &mut self,
        target: Target,
        orig: FuncId,
        mut tys: Vec<(TvId, Type)>,
        mut models: Vec<(MvId, Model)>,
    ) -> Option<FuncId> {
        if tys.is_empty() && models.is_empty() {
            // Non-generic callee: the dynamic path would build an empty
            // environment anyway — call the shared body directly.
            return Some(orig);
        }
        tys.sort_by_key(|(v, _)| *v);
        models.sort_by_key(|(v, _)| *v);
        let key = SpecKey {
            target,
            tys,
            models,
        };
        if let Some(r) = self.state.done.get(&key) {
            return *r;
        }
        let per = self.state.clones_per.entry(target).or_insert(0);
        if *per >= MAX_CLONES_PER_FUNC || self.state.total_clones >= MAX_CLONES_TOTAL {
            self.code.opt_stats.budget_fallbacks += 1;
            self.state.done.insert(key, None);
            return None;
        }
        *per += 1;
        self.state.total_clones += 1;
        let mut subst = Subst::new();
        for (v, t) in &key.tys {
            subst.tys.insert(*v, t.clone());
        }
        for (v, m) in &key.models {
            subst.models.insert(*v, m.clone());
        }
        let fid = self.clone_func(orig, &subst);
        self.code.opt_stats.funcs_specialized += 1;
        // Register before the clone's own body is rewritten (it happens
        // later, off the queue) so recursive requests memo-hit instead of
        // cloning forever.
        self.state.done.insert(key, Some(fid));
        self.queue.push(fid);
        Some(fid)
    }

    /// Clones `orig` with `s` applied to every type/model term its code
    /// references, appending fresh spec-table entries (tables only grow,
    /// so existing indices stay valid). Virtual sites in the clone get
    /// fresh inline-cache ids — clone-local caches stay monomorphic.
    fn clone_func(&mut self, orig: FuncId, s: &Subst) -> FuncId {
        let mut f = self.code.funcs[orig.0 as usize].clone();
        f.name = format!("{} <spec>", f.name);
        for op in &mut f.code {
            match op {
                Op::NewArray { elem: ty, .. }
                | Op::InstanceOf { ty, .. }
                | Op::Cast { ty, .. }
                | Op::DefaultValue { ty, .. } => {
                    let t = s.apply(&self.code.types[*ty as usize]);
                    *ty = self.code.types.len() as u32;
                    self.code.types.push(t);
                }
                Op::Pack { spec, .. } => {
                    let mut p = self.code.pack_specs[*spec as usize].clone();
                    p.types = p.types.iter().map(|t| s.apply(t)).collect();
                    p.models = p.models.iter().map(|m| s.apply_model(m)).collect();
                    *spec = self.code.pack_specs.len() as u32;
                    self.code.pack_specs.push(p);
                }
                Op::CallVirtual { spec, site, .. } => {
                    let mut v = self.code.virt_specs[*spec as usize].clone();
                    v.targs = v.targs.iter().map(|t| s.apply(t)).collect();
                    v.margs = v.margs.iter().map(|m| s.apply_model(m)).collect();
                    *spec = self.code.virt_specs.len() as u32;
                    self.code.virt_specs.push(v);
                    *site = self.fresh_site();
                }
                Op::CallStatic { spec, .. } => {
                    let mut v = self.code.static_specs[*spec as usize].clone();
                    v.targs = v.targs.iter().map(|t| s.apply(t)).collect();
                    v.margs = v.margs.iter().map(|m| s.apply_model(m)).collect();
                    *spec = self.code.static_specs.len() as u32;
                    self.code.static_specs.push(v);
                }
                Op::CallGlobal { spec, .. } => {
                    let mut v = self.code.global_specs[*spec as usize].clone();
                    v.targs = v.targs.iter().map(|t| s.apply(t)).collect();
                    v.margs = v.margs.iter().map(|m| s.apply_model(m)).collect();
                    *spec = self.code.global_specs.len() as u32;
                    self.code.global_specs.push(v);
                }
                Op::CallModel { spec, site, .. } => {
                    let mut v = self.code.model_specs[*spec as usize].clone();
                    v.model = s.apply_model(&v.model);
                    v.static_recv = v.static_recv.as_ref().map(|t| s.apply(t));
                    v.recv_ty = v.recv_ty.as_ref().map(|t| s.apply(t));
                    v.arg_tys = v.arg_tys.iter().map(|t| s.apply(t)).collect();
                    *spec = self.code.model_specs.len() as u32;
                    self.code.model_specs.push(v);
                    *site = self.fresh_model_site();
                }
                Op::New { spec, .. } => {
                    let mut v = self.code.new_specs[*spec as usize].clone();
                    v.targs = v.targs.iter().map(|t| s.apply(t)).collect();
                    v.models = v.models.iter().map(|m| s.apply_model(m)).collect();
                    *spec = self.code.new_specs.len() as u32;
                    self.code.new_specs.push(v);
                }
                // `Open` binds fresh variables at run time (its spec holds
                // ids, not terms) and everything else carries no types.
                _ => {}
            }
        }
        let fid = FuncId(self.code.funcs.len() as u32);
        self.code.funcs.push(f);
        fid
    }

    fn direct(
        &mut self,
        dst: u16,
        func: FuncId,
        recv: Option<u16>,
        null_check: bool,
        args: Vec<u16>,
    ) -> Op {
        let spec = self.code.direct_specs.len() as u32;
        self.code.direct_specs.push(DirectSpec {
            func,
            recv,
            null_check,
            args,
        });
        self.code.opt_stats.calls_directed += 1;
        Op::CallDirect { dst, spec }
    }

    fn fresh_site(&mut self) -> u32 {
        let s = self.code.num_sites as u32;
        self.code.num_sites += 1;
        s
    }

    fn fresh_model_site(&mut self) -> u32 {
        let s = self.code.num_model_sites as u32;
        self.code.num_model_sites += 1;
        s
    }
}

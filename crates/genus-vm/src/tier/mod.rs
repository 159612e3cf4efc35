//! Tier 2: a closure-compiled execution engine.
//!
//! The register VM (`crate::vm`) interprets bytecode through a central
//! fetch/decode loop: every executed instruction pays for the stack-top
//! lookup, the function/code indexing, the `pc` bump, and the big opcode
//! match. This module removes that loop by translating each compiled
//! [`VmFunc`] — *after* the optimizer has run, so specialization and
//! devirtualization (§7.3 heterogeneous translation) have already done
//! their work — into a tree of pre-resolved nested Rust closures:
//!
//! - Operands become **captured register indices**; there is no operand
//!   decoding at run time.
//! - `CallDirect` payloads are **resolved at tier-compile time**: the
//!   callee [`FuncId`], receiver/argument registers, and null-check flag
//!   are captured directly, so a specialized call is a frame push with
//!   zero dispatch.
//! - Reified type images (`rt_types`) are **pre-materialized** into the
//!   closures for `instanceof`/casts/array allocation, hoisting the
//!   side-table lookup out of the hot path.
//! - Inline-cache sites (`CallVirtual`'s `site`, `CallModel`'s model
//!   site) capture their slot index, feeding the same monomorphic caches
//!   the VM uses.
//! - Hot arithmetic/comparison shapes (`int` add/sub/mul and the six
//!   orderings) are specialized into closures that test the operand
//!   variants inline, falling back to the shared [`ops`](genus_interp::ops) helpers — and
//!   their exact error identities — on any mismatch.
//!
//! # Block structure and the outer loop
//!
//! A function is split into basic blocks at jump targets and after every
//! frame-pushing call. Each block is compiled *backwards* into one nested
//! closure chain: the closure for instruction `i` captures the closure
//! for instruction `i + 1` and tail-calls it, so straight-line code runs
//! with no dispatch at all. A block returns a `Ctl` transfer:
//! `Jump(block)`, `Ret(value)`, or `Call(frame)`. The outer loop in
//! [`Vm::run_main_tier`] keeps Genus frames in the same explicit stack
//! the VM uses (`VmFrame::pc` is reinterpreted as a *block* index — entry
//! is block 0, matching the VM's `pc = 0` convention), so the host stack
//! stays flat and `max_depth` keeps its meaning.
//!
//! # Going faster than the loop
//!
//! Removing fetch/decode alone roughly breaks even with the VM's
//! jump-table match, so the tier's wins come from doing *less work per
//! executed op*, never from skipping accounting:
//!
//! - **Leaf call inlining.** A `CallDirect` whose callee never pushes a
//!   Genus frame (no calls, no `new` — the shape §7.3 specialization
//!   produces for model methods like `IntOrd.before`) embeds the
//!   callee's compiled blocks in the call-site closure and runs them to
//!   completion on a pooled local frame: no argument vector, no
//!   `Ctl::Call` round trip through the outer loop, no frame-stack
//!   push/pop. Depth is still counted (`StackOverflow` parity) and every
//!   callee op still steps the meter.
//! - **Compare-and-branch fusion.** `Cmp` immediately followed by a
//!   `JumpIfFalse`/`JumpIfTrue` on its destination (the shape of every
//!   loop header) becomes one closure that steps twice, still writes the
//!   compare result register, and branches on the unboxed boolean.
//! - **Borrowed fast paths.** Array and field ops index the register
//!   file in place — no `Rc` refcount round trip on the receiver, one
//!   `RefCell` borrow instead of two. Primitive constants are captured
//!   immediates instead of pool lookups.
//!
//! # Meter parity (R0009/R0010 by construction)
//!
//! Every op closure begins with `vm.meter.step()?` — exactly one step per
//! executed opcode, the same accounting as the VM loop's per-iteration
//! step — and allocation sites charge the same costs through
//! [`Meter::charge`](genus_heap::meter::Meter::charge). Fuel and memory traps therefore fire after the
//! *identical* step/unit sequence on both tiers: the differential
//! harness asserts `fuel_used` equality, not mere trap agreement.
//! Nested execution (field-initializer chains, `toString` dispatch from
//! stringification, static initializers) runs on the VM loop via the
//! shared `run_call` machinery, which meters identically.

use crate::bytecode::{Const, FuncId, Op, VmFunc, VmProgram};
use crate::vm::{Action, Vm, VmFrame};
use genus_check::hir::NumKind;
use genus_common::FastMap;
use genus_heap::str_bytes;
use genus_interp::natives;
use genus_interp::ops::{arith, compare, widen_value};
use genus_interp::rtti;
use genus_interp::{ErrorKind, ModelValue, RtType, RuntimeError, Value};
use genus_syntax::ast::BinOp;
use genus_types::Type;
use std::rc::Rc;
use std::sync::Arc;

type RResult<T> = Result<T, RuntimeError>;

/// Control transfer out of a compiled block.
///
/// Deliberately small: every op closure in a chain returns
/// `Result<Ctl>` by value, so a frame-sized variant would put a
/// `VmFrame` memcpy on every executed instruction. Call transfers park
/// the callee in [`Vm::pending_call`] instead.
pub(crate) enum Ctl {
    /// Continue at this block of the current function.
    Jump(u32),
    /// Return a value to the parent frame (or finish the root).
    Ret(Value),
    /// Push the callee frame parked in `Vm::pending_call`. Its `dst` is
    /// already set, and the *caller's* `pc` already points at the
    /// resume block.
    Call,
}

/// One compiled instruction chain. Thunks capture only `Send + Sync`
/// data (indices, [`crate::bytecode::Const`]-style literals, types,
/// symbols — never `Value`s), so a [`TierProgram`] can be cached once
/// and shared across serve workers like the bytecode it was built from.
pub(crate) type Thunk =
    Box<dyn for<'a, 'p> Fn(&'a Vm<'p>, &mut VmFrame) -> RResult<Ctl> + Send + Sync>;

/// A function compiled to closure trees, one per basic block.
pub struct CompiledFunc {
    pub(crate) blocks: Vec<Thunk>,
}

/// Counters from tier compilation (the `funcs_tiered` anti-vacuity
/// signal of the differential proptests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Functions translated to closure trees.
    pub funcs_tiered: usize,
    /// Total basic blocks across all functions.
    pub blocks: usize,
}

/// A whole program compiled to Tier 2, pinned to the exact bytecode it
/// was built from (thunks capture indices into that program's pools).
pub struct TierProgram {
    code: Arc<VmProgram>,
    pub(crate) funcs: Vec<CompiledFunc>,
    /// Compilation counters.
    pub stats: TierStats,
}

impl TierProgram {
    /// The bytecode this tier program was compiled from.
    #[must_use]
    pub fn code(&self) -> &Arc<VmProgram> {
        &self.code
    }
}

/// Compile-time proof that a tier-compiled program can be cached once
/// and shared across serve workers (`Arc<TierProgram>`).
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<TierProgram>();
};

/// Compiles every function of `code` into closure trees.
#[must_use]
pub fn compile_tier(code: &Arc<VmProgram>) -> TierProgram {
    let mut funcs = Vec::with_capacity(code.funcs.len());
    let mut blocks = 0;
    for f in &code.funcs {
        let cf = compile_func(code, f);
        blocks += cf.blocks.len();
        funcs.push(cf);
    }
    let stats = TierStats {
        funcs_tiered: funcs.len(),
        blocks,
    };
    TierProgram {
        code: Arc::clone(code),
        funcs,
        stats,
    }
}

impl<'p> Vm<'p> {
    /// Runs static initializers then `main()` on the closure-compiled
    /// tier. `tier` must have been compiled from this VM's bytecode.
    ///
    /// # Errors
    ///
    /// Returns the first uncaught [`RuntimeError`].
    ///
    /// # Panics
    ///
    /// Panics if `tier` was compiled from a different [`VmProgram`].
    pub fn run_main_tier(&mut self, tier: &TierProgram) -> RResult<Value> {
        assert!(
            Arc::ptr_eq(self.code(), tier.code()),
            "tier program was compiled from different bytecode"
        );
        self.init_statics()?;
        let Some(main) = self.prog.main_index() else {
            return Err(RuntimeError::new(ErrorKind::Other, "no `main()` method"));
        };
        match self.prepare_global(main, vec![], vec![], vec![])? {
            Action::Value(v) => Ok(v),
            Action::Frame(f) => self.run_tier_call(tier, f),
        }
    }

    /// Runs `root` (and every frame it pushes) to completion on the tier,
    /// restoring the Genus depth budget on error like the VM's
    /// `run_call`.
    fn run_tier_call(&self, tier: &TierProgram, root: VmFrame) -> RResult<Value> {
        let base = self.depth.get();
        self.nesting.set(self.nesting.get() + 1);
        let r = self.tier_frames(tier, root);
        self.nesting.set(self.nesting.get() - 1);
        if r.is_err() {
            self.depth.set(base);
        }
        r
    }

    /// The tier's outer loop: runs block thunks, applying their control
    /// transfers against the same explicit frame stack as the VM.
    fn tier_frames(&self, tier: &TierProgram, root: VmFrame) -> RResult<Value> {
        self.enter(root.counted)?;
        let mut cur: &CompiledFunc = &tier.funcs[root.func.0 as usize];
        let mut stack: Vec<VmFrame> = vec![root];
        loop {
            // Block granularity is a coarser GC cadence than the VM
            // loop's per-op poll — byte accounting and R0010 sites are
            // charge-driven and GC-timing independent, so parity holds.
            if self.nesting.get() == 1 {
                self.maybe_gc(&stack);
            }
            let frame = stack.last_mut().expect("frame");
            match cur.blocks[frame.pc](self, frame)? {
                Ctl::Jump(b) => frame.pc = b as usize,
                Ctl::Ret(v) => {
                    if let Some(v) = self.pop_frame(&mut stack, v) {
                        return Ok(v);
                    }
                    cur = &tier.funcs[stack.last().expect("frame").func.0 as usize];
                }
                Ctl::Call => {
                    let callee = self.pending_call.take().expect("parked callee frame");
                    self.enter(callee.counted)?;
                    cur = &tier.funcs[callee.func.0 as usize];
                    stack.push(callee);
                }
            }
        }
    }
}

/// Type alias soup for the block maps.
type BlockMap = FastMap<usize, u32>;

fn compile_func(code: &VmProgram, f: &VmFunc) -> CompiledFunc {
    // Leaders: entry, every jump target, and the resume point after
    // every frame-pushing call (returns re-enter at a block boundary).
    let mut leaders: Vec<usize> = vec![0];
    for (pc, op) in f.code.iter().enumerate() {
        match op {
            Op::Jump { target }
            | Op::JumpIfFalse { target, .. }
            | Op::JumpIfTrue { target, .. } => leaders.push(*target as usize),
            // An inlined leaf call completes inside its own closure, so
            // execution falls straight through — no resume block needed.
            Op::CallDirect { spec, .. }
                if leaf_func(code, code.direct_specs[*spec as usize].func).is_some() => {}
            Op::CallDirect { .. }
            | Op::CallVirtual { .. }
            | Op::CallStatic { .. }
            | Op::CallGlobal { .. }
            | Op::CallModel { .. }
            | Op::New { .. } => leaders.push(pc + 1),
            _ => {}
        }
    }
    leaders.sort_unstable();
    leaders.dedup();
    leaders.retain(|&l| l < f.code.len());
    let block_of: BlockMap = leaders
        .iter()
        .enumerate()
        .map(|(i, &pc)| (pc, i as u32))
        .collect();
    let mut blocks = Vec::with_capacity(leaders.len());
    for (i, &start) in leaders.iter().enumerate() {
        let end = leaders.get(i + 1).copied().unwrap_or(f.code.len());
        blocks.push(compile_block(code, f, start, end, &block_of));
    }
    CompiledFunc { blocks }
}

/// Compiles `f.code[start..end]` into one closure chain, built backwards
/// so each op captures its continuation.
fn compile_block(
    code: &VmProgram,
    f: &VmFunc,
    start: usize,
    end: usize,
    blocks: &BlockMap,
) -> Thunk {
    // Fall-through continuation into the next leader. Never invoked when
    // the block ends in a terminator (those closures don't capture it).
    let mut next: Thunk = match blocks.get(&end) {
        Some(&b) => Box::new(move |_, _| Ok(Ctl::Jump(b))),
        None => Box::new(|_, _| unreachable!("block falls off the function end")),
    };
    let mut pc = end;
    while pc > start {
        pc -= 1;
        // Fuse `Cmp` + `JumpIf*` on its result (nothing can enter at the
        // branch: it is inside the block, hence not a leader).
        if pc > start {
            if let (Op::Cmp { dst, op, nk, l, r }, jump) = (f.code[pc - 1], f.code[pc]) {
                let taken = match jump {
                    Op::JumpIfFalse { cond, target } if cond == dst => Some((false, target)),
                    Op::JumpIfTrue { cond, target } if cond == dst => Some((true, target)),
                    _ => None,
                };
                if let Some((jump_on, target)) = taken {
                    let b = target_block(blocks, target);
                    next = fused_cmp_branch(dst, op, nk, l, r, jump_on, b, next);
                    pc -= 1;
                    continue;
                }
            }
        }
        next = op_thunk(code, f.code[pc], pc, next, blocks);
    }
    next
}

/// A `Cmp` and the conditional branch on its result as one closure: two
/// meter steps (one per fused op), the result register still written,
/// but the branch decided on the unboxed boolean with no second
/// dispatch.
#[allow(clippy::too_many_arguments)]
fn fused_cmp_branch(
    dst: u16,
    op: BinOp,
    nk: NumKind,
    l: u16,
    r: u16,
    jump_on: bool,
    target: u32,
    rest: Thunk,
) -> Thunk {
    let (dst, l, r) = (dst as usize, l as usize, r as usize);
    let int_kind = matches!(nk, NumKind::Int);
    thunk(move |vm, f| {
        vm.meter.step()?;
        let v = match (&f.regs[l], &f.regs[r]) {
            (&Value::Int(a), &Value::Int(b)) if int_kind => match int_cmp(op, a, b) {
                Some(t) => Value::Bool(t),
                None => compare(op, nk, Value::Int(a), Value::Int(b))?,
            },
            _ => compare(op, nk, f.regs[l].clone(), f.regs[r].clone())?,
        };
        let taken = match &v {
            Value::Bool(t) => Some(*t),
            _ => None,
        };
        f.regs[dst] = v;
        vm.meter.step()?;
        match taken {
            Some(t) if t == jump_on => Ok(Ctl::Jump(target)),
            Some(_) => rest(vm, f),
            None => Err(RuntimeError::new(
                ErrorKind::Other,
                format!("condition evaluated to non-boolean {:?}", f.regs[dst]),
            )),
        }
    })
}

/// `int × int` comparison outcomes (`None`: not a comparison operator —
/// fall through to the shared helper for its exact error).
fn int_cmp(op: BinOp, a: i32, b: i32) -> Option<bool> {
    Some(match op {
        BinOp::Lt => a < b,
        BinOp::Le => a <= b,
        BinOp::Gt => a > b,
        BinOp::Ge => a >= b,
        BinOp::Eq => a == b,
        BinOp::Ne => a != b,
        _ => return None,
    })
}

/// The callee of a `CallDirect` site, if it is a *leaf* the tier can
/// inline: a function that never pushes a Genus frame (no calls, no
/// `new`), so its compiled blocks can run to completion inside the
/// call-site closure on a local frame. Leaves cannot recurse, so the
/// native stack stays bounded; nested VM execution inside leaf ops
/// (stringification, natives) is fine — it meters and traps
/// identically. Depth is still counted at entry, preserving the
/// `StackOverflow` trap point.
fn leaf_func(code: &VmProgram, func: FuncId) -> Option<&VmFunc> {
    let f = &code.funcs[func.0 as usize];
    f.code
        .iter()
        .all(|op| {
            !matches!(
                op,
                Op::CallVirtual { .. }
                    | Op::CallStatic { .. }
                    | Op::CallGlobal { .. }
                    | Op::CallModel { .. }
                    | Op::CallDirect { .. }
                    | Op::New { .. }
            )
        })
        .then_some(f)
}

/// The block index a jump target belongs to (targets are leaders by
/// construction).
fn target_block(blocks: &BlockMap, target: u32) -> u32 {
    *blocks
        .get(&(target as usize))
        .expect("jump target is a block leader")
}

/// A type operand resolved at tier-compile time: either the optimizer's
/// pre-reified image (closed terms) or the open term to evaluate against
/// the frame's environment — the same split the VM makes per call, but
/// decided once here.
enum TyRef {
    Reified(RtType),
    Open(Type),
}

impl TyRef {
    fn of(code: &VmProgram, ty: u32) -> TyRef {
        match code.rt_types.get(ty as usize).and_then(Option::as_ref) {
            Some(rt) => TyRef::Reified(rt.clone()),
            None => TyRef::Open(code.types[ty as usize].clone()),
        }
    }

    fn reify(&self, vm: &Vm<'_>, f: &VmFrame) -> RtType {
        match self {
            TyRef::Reified(rt) => rt.clone(),
            TyRef::Open(t) => rtti::eval_type(vm.prog, &f.tenv, &f.menv, t),
        }
    }
}

/// Applies a resolved call: immediate values jump straight to the resume
/// block, frames park the caller at the resume block and the callee in
/// `Vm::pending_call` for the outer loop to push.
fn finish_call(
    vm: &Vm<'_>,
    f: &mut VmFrame,
    dst: u16,
    resume: u32,
    action: Action,
) -> RResult<Ctl> {
    match action {
        Action::Value(v) => {
            f.regs[dst as usize] = v;
            Ok(Ctl::Jump(resume))
        }
        Action::Frame(mut callee) => {
            f.pc = resume as usize;
            callee.dst = Some(dst);
            vm.pending_call.set(Some(callee));
            Ok(Ctl::Call)
        }
    }
}

/// Boxes a closure as a [`Thunk`] (guides HRTB inference).
fn thunk(
    t: impl for<'a, 'p> Fn(&'a Vm<'p>, &mut VmFrame) -> RResult<Ctl> + Send + Sync + 'static,
) -> Thunk {
    Box::new(t)
}

/// Compiles one instruction into a closure over its continuation.
///
/// Every closure's first action is `vm.meter.step()?` — see the module
/// docs on meter parity. Error messages are verbatim copies of the VM
/// loop's, so `(code, span, message)` identity is preserved, not just
/// `(code, span)`.
#[allow(clippy::too_many_lines)]
fn op_thunk(code: &VmProgram, op: Op, pc: usize, rest: Thunk, blocks: &BlockMap) -> Thunk {
    match op {
        Op::Const { dst, k } => {
            let (dst, k) = (dst as usize, k as usize);
            match code.consts[k].clone() {
                // Strings stay indexed clones: the VM's pool shares one
                // `Rc` per literal, and `Const::to_value` would rebuild
                // the allocation on every execution.
                Const::Str(_) => thunk(move |vm, f| {
                    vm.meter.step()?;
                    f.regs[dst] = vm.consts[k].clone();
                    rest(vm, f)
                }),
                // Primitives become captured immediates — no pool
                // lookup, no clone dispatch.
                c => thunk(move |vm, f| {
                    vm.meter.step()?;
                    f.regs[dst] = c.to_value();
                    rest(vm, f)
                }),
            }
        }
        Op::Move { dst, src } => {
            let (dst, src) = (dst as usize, src as usize);
            thunk(move |vm, f| {
                vm.meter.step()?;
                f.regs[dst] = f.regs[src].clone();
                rest(vm, f)
            })
        }
        Op::Jump { target } => {
            let b = target_block(blocks, target);
            thunk(move |vm, _| {
                vm.meter.step()?;
                Ok(Ctl::Jump(b))
            })
        }
        Op::JumpIfFalse { cond, target } => {
            let cond = cond as usize;
            let b = target_block(blocks, target);
            thunk(move |vm, f| {
                vm.meter.step()?;
                match &f.regs[cond] {
                    Value::Bool(false) => Ok(Ctl::Jump(b)),
                    Value::Bool(true) => rest(vm, f),
                    other => Err(RuntimeError::new(
                        ErrorKind::Other,
                        format!("condition evaluated to non-boolean {other:?}"),
                    )),
                }
            })
        }
        Op::JumpIfTrue { cond, target } => {
            let cond = cond as usize;
            let b = target_block(blocks, target);
            thunk(move |vm, f| {
                vm.meter.step()?;
                match &f.regs[cond] {
                    Value::Bool(true) => Ok(Ctl::Jump(b)),
                    Value::Bool(false) => rest(vm, f),
                    other => Err(RuntimeError::new(
                        ErrorKind::Other,
                        format!("condition evaluated to non-boolean {other:?}"),
                    )),
                }
            })
        }
        Op::Return { src } => {
            let src = src as usize;
            thunk(move |vm, f| {
                vm.meter.step()?;
                Ok(Ctl::Ret(f.regs[src].clone()))
            })
        }
        Op::ReturnVoid => thunk(move |vm, _| {
            vm.meter.step()?;
            Ok(Ctl::Ret(Value::Void))
        }),
        Op::FallOff => thunk(move |vm, _| {
            vm.meter.step()?;
            Err(RuntimeError::new(
                ErrorKind::MissingReturn,
                "non-void body completed without returning",
            ))
        }),
        Op::Escaped => thunk(move |vm, _| {
            vm.meter.step()?;
            Err(RuntimeError::new(
                ErrorKind::Other,
                "break/continue escaped a body",
            ))
        }),
        Op::GetField {
            dst,
            obj,
            class,
            field,
        } => {
            let (dst, obj) = (dst as usize, obj as usize);
            thunk(move |vm, f| {
                vm.meter.step()?;
                let o = rtti::expect_obj(&vm.heap, &f.regs[obj])?;
                let v = o
                    .fields
                    .borrow()
                    .get(&(class.0, field))
                    .cloned()
                    .unwrap_or(Value::Null);
                f.regs[dst] = v;
                rest(vm, f)
            })
        }
        Op::SetField {
            obj,
            class,
            field,
            src,
        } => {
            let (obj, src) = (obj as usize, src as usize);
            thunk(move |vm, f| {
                vm.meter.step()?;
                {
                    let v = f.regs[src].clone();
                    let o = rtti::expect_obj(&vm.heap, &f.regs[obj])?;
                    o.fields.borrow_mut().insert((class.0, field), v);
                }
                rest(vm, f)
            })
        }
        Op::GetStatic { dst, class, field } => {
            let dst = dst as usize;
            thunk(move |vm, f| {
                vm.meter.step()?;
                f.regs[dst] = vm
                    .statics
                    .borrow()
                    .get(&(class.0, field))
                    .cloned()
                    .unwrap_or(Value::Null);
                rest(vm, f)
            })
        }
        Op::SetStatic { class, field, src } => {
            let src = src as usize;
            thunk(move |vm, f| {
                vm.meter.step()?;
                let v = f.regs[src].clone();
                vm.statics.borrow_mut().insert((class.0, field), v);
                rest(vm, f)
            })
        }
        Op::Arith { dst, op, nk, l, r } => arith_thunk(dst, op, nk, l, r, rest),
        Op::Cmp { dst, op, nk, l, r } => cmp_thunk(dst, op, nk, l, r, rest),
        Op::RefEq { dst, l, r, negate } => {
            let (dst, l, r) = (dst as usize, l as usize, r as usize);
            thunk(move |vm, f| {
                vm.meter.step()?;
                let eq = vm.heap.ref_eq(&f.regs[l], &f.regs[r]);
                f.regs[dst] = Value::Bool(eq != negate);
                rest(vm, f)
            })
        }
        Op::Concat { dst, l, r } => {
            let (dst, l, r) = (dst as usize, l as usize, r as usize);
            thunk(move |vm, f| {
                vm.meter.step()?;
                let lv = f.regs[l].clone();
                let rv = f.regs[r].clone();
                let mut s = vm.stringify(&lv)?;
                s.push_str(&vm.stringify(&rv)?);
                vm.meter.charge(str_bytes(s.len()))?;
                f.regs[dst] = Value::Str(Rc::from(s.as_str()));
                rest(vm, f)
            })
        }
        Op::Not { dst, src } => {
            let (dst, src) = (dst as usize, src as usize);
            thunk(move |vm, f| {
                vm.meter.step()?;
                match &f.regs[src] {
                    Value::Bool(b) => f.regs[dst] = Value::Bool(!*b),
                    _ => return Err(RuntimeError::new(ErrorKind::Other, "`!` on non-boolean")),
                }
                rest(vm, f)
            })
        }
        Op::Neg { dst, src, nk } => {
            let (dst, src) = (dst as usize, src as usize);
            thunk(move |vm, f| {
                vm.meter.step()?;
                let v = f.regs[src].clone();
                f.regs[dst] = match (nk, v) {
                    (NumKind::Int, Value::Int(x)) => Value::Int(x.wrapping_neg()),
                    (NumKind::Long, Value::Long(x)) => Value::Long(x.wrapping_neg()),
                    (NumKind::Double, Value::Double(x)) => Value::Double(-x),
                    (_, v) => {
                        return Err(RuntimeError::new(
                            ErrorKind::Other,
                            format!("cannot negate {v:?}"),
                        ))
                    }
                };
                rest(vm, f)
            })
        }
        Op::Widen { dst, src, to } => {
            let (dst, src) = (dst as usize, src as usize);
            thunk(move |vm, f| {
                vm.meter.step()?;
                let v = f.regs[src].clone();
                f.regs[dst] = widen_value(v, to);
                rest(vm, f)
            })
        }
        Op::NewArray { dst, len, elem } => {
            let (dst, len) = (dst as usize, len as usize);
            let elem = TyRef::of(code, elem);
            thunk(move |vm, f| {
                vm.meter.step()?;
                let et = elem.reify(vm, f);
                let Value::Int(n) = f.regs[len] else {
                    return Err(RuntimeError::new(
                        ErrorKind::Other,
                        "array length must be int",
                    ));
                };
                if n < 0 {
                    return Err(RuntimeError::new(
                        ErrorKind::IndexOutOfBounds,
                        format!("negative array length {n}"),
                    ));
                }
                f.regs[dst] = vm.heap.alloc_arr(&vm.meter, et, n as usize)?;
                rest(vm, f)
            })
        }
        Op::ArrayLen { dst, arr } => {
            let (dst, arr) = (dst as usize, arr as usize);
            thunk(move |vm, f| {
                vm.meter.step()?;
                let len = rtti::expect_arr(&vm.heap, &f.regs[arr])?
                    .storage
                    .borrow()
                    .len();
                f.regs[dst] = Value::Int(len as i32);
                rest(vm, f)
            })
        }
        Op::ArrayGet { dst, arr, idx } => {
            let (dst, arr, idx) = (dst as usize, arr as usize, idx as usize);
            thunk(move |vm, f| {
                vm.meter.step()?;
                let v = {
                    let a = rtti::expect_arr(&vm.heap, &f.regs[arr])?;
                    let s = a.storage.borrow();
                    let i = rtti::expect_index(&f.regs[idx], s.len())?;
                    s.get(i)
                };
                f.regs[dst] = v;
                rest(vm, f)
            })
        }
        Op::ArraySet { arr, idx, src } => {
            let (arr, idx, src) = (arr as usize, idx as usize, src as usize);
            thunk(move |vm, f| {
                vm.meter.step()?;
                {
                    let a = rtti::expect_arr(&vm.heap, &f.regs[arr])?;
                    let mut s = a.storage.borrow_mut();
                    let i = rtti::expect_index(&f.regs[idx], s.len())?;
                    let v = f.regs[src].clone();
                    s.set(i, v);
                }
                rest(vm, f)
            })
        }
        Op::InstanceOf { dst, src, ty } => {
            let (dst, src) = (dst as usize, src as usize);
            let ty = TyRef::of(code, ty);
            thunk(move |vm, f| {
                vm.meter.step()?;
                let v = f.regs[src].clone();
                let b = match &ty {
                    TyRef::Reified(rt) => rtti::value_instanceof(vm.prog, &vm.heap, &v, rt),
                    TyRef::Open(t) => {
                        rtti::instanceof_type(vm.prog, &vm.heap, &f.tenv, &f.menv, &v, t)
                    }
                };
                f.regs[dst] = Value::Bool(b);
                rest(vm, f)
            })
        }
        Op::Cast { dst, src, ty } => {
            let (dst, src) = (dst as usize, src as usize);
            let ty = TyRef::of(code, ty);
            thunk(move |vm, f| {
                vm.meter.step()?;
                let v = f.regs[src].clone();
                f.regs[dst] = match &ty {
                    TyRef::Reified(rt) => rtti::cast_value_rt(vm.prog, &vm.heap, v, rt)?,
                    TyRef::Open(t) => {
                        rtti::cast_value(vm.prog, &vm.heap, &vm.meter, &f.tenv, &f.menv, v, t)?
                    }
                };
                rest(vm, f)
            })
        }
        Op::DefaultValue { dst, ty } => {
            let dst = dst as usize;
            let ty = TyRef::of(code, ty);
            thunk(move |vm, f| {
                vm.meter.step()?;
                f.regs[dst] = ty.reify(vm, f).default_value();
                rest(vm, f)
            })
        }
        Op::Pack { dst, src, spec } => {
            let (dst, src) = (dst as usize, src as usize);
            let s = code.pack_specs[spec as usize].clone();
            thunk(move |vm, f| {
                vm.meter.step()?;
                let v = f.regs[src].clone();
                let ts = s
                    .types
                    .iter()
                    .map(|t| rtti::eval_type(vm.prog, &f.tenv, &f.menv, t))
                    .collect();
                let ms = s
                    .models
                    .iter()
                    .map(|m| rtti::eval_model(vm.prog, &f.tenv, &f.menv, m))
                    .collect();
                f.regs[dst] = vm.heap.alloc_packed(&vm.meter, v, ts, ms)?;
                rest(vm, f)
            })
        }
        Op::Open { dst, src, spec } => {
            let (dst, src) = (dst as usize, src as usize);
            let s = code.open_specs[spec as usize].clone();
            thunk(move |vm, f| {
                vm.meter.step()?;
                let v = f.regs[src].clone();
                match v {
                    Value::Packed(h) => {
                        let p = vm.heap.packed(h);
                        for (tv, t) in s.tvs.iter().zip(&p.types) {
                            f.tenv.insert(*tv, t.clone());
                        }
                        for (mv, m) in s.mvs.iter().zip(&p.models) {
                            f.menv.insert(*mv, m.clone());
                        }
                        f.regs[dst] = p.value.clone();
                    }
                    Value::Null => {
                        return Err(RuntimeError::new(
                            ErrorKind::NullPointer,
                            "cannot open a null existential",
                        ));
                    }
                    other => {
                        let rt = rtti::value_rt_type(vm.prog, &vm.heap, &other);
                        for tv in &s.tvs {
                            f.tenv.insert(*tv, rt.clone());
                        }
                        f.regs[dst] = other;
                    }
                }
                rest(vm, f)
            })
        }
        Op::Print { src, newline } => {
            let src = src as usize;
            thunk(move |vm, f| {
                vm.meter.step()?;
                let v = f.regs[src].clone();
                let s = vm.stringify(&v)?;
                {
                    let mut out = vm.output.borrow_mut();
                    out.push_str(&s);
                    if newline {
                        out.push('\n');
                    }
                }
                if vm.echo {
                    if newline {
                        println!("{s}");
                    } else {
                        print!("{s}");
                    }
                }
                rest(vm, f)
            })
        }
        Op::CallVirtual {
            dst,
            recv,
            spec,
            site,
        } => {
            let s = code.virt_specs[spec as usize].clone();
            let recv = recv as usize;
            let resume = target_block(blocks, pc as u32 + 1);
            thunk(move |vm, f| {
                vm.meter.step()?;
                let r = f.regs[recv].clone();
                let args: Vec<Value> = s.args.iter().map(|&a| f.regs[a as usize].clone()).collect();
                let rt: Vec<RtType> = s
                    .targs
                    .iter()
                    .map(|t| rtti::eval_type(vm.prog, &f.tenv, &f.menv, t))
                    .collect();
                let rm: Vec<ModelValue> = s
                    .margs
                    .iter()
                    .map(|m| rtti::eval_model(vm.prog, &f.tenv, &f.menv, m))
                    .collect();
                let action = vm.prepare_virtual(Some(site), r, s.name, s.arity, rt, rm, args)?;
                finish_call(vm, f, dst, resume, action)
            })
        }
        Op::CallStatic { dst, spec } => {
            let s = code.static_specs[spec as usize].clone();
            let resume = target_block(blocks, pc as u32 + 1);
            thunk(move |vm, f| {
                vm.meter.step()?;
                let args: Vec<Value> = s.args.iter().map(|&a| f.regs[a as usize].clone()).collect();
                let rt: Vec<RtType> = s
                    .targs
                    .iter()
                    .map(|t| rtti::eval_type(vm.prog, &f.tenv, &f.menv, t))
                    .collect();
                let rm: Vec<ModelValue> = s
                    .margs
                    .iter()
                    .map(|m| rtti::eval_model(vm.prog, &f.tenv, &f.menv, m))
                    .collect();
                let action =
                    vm.prepare_class_method(s.class, s.method, vec![], vec![], None, rt, rm, args)?;
                finish_call(vm, f, dst, resume, action)
            })
        }
        Op::CallGlobal { dst, spec } => {
            let s = code.global_specs[spec as usize].clone();
            let resume = target_block(blocks, pc as u32 + 1);
            thunk(move |vm, f| {
                vm.meter.step()?;
                let args: Vec<Value> = s.args.iter().map(|&a| f.regs[a as usize].clone()).collect();
                let rt: Vec<RtType> = s
                    .targs
                    .iter()
                    .map(|t| rtti::eval_type(vm.prog, &f.tenv, &f.menv, t))
                    .collect();
                let rm: Vec<ModelValue> = s
                    .margs
                    .iter()
                    .map(|m| rtti::eval_model(vm.prog, &f.tenv, &f.menv, m))
                    .collect();
                let action = vm.prepare_global(s.index, rt, rm, args)?;
                finish_call(vm, f, dst, resume, action)
            })
        }
        Op::CallModel { dst, spec, site } => {
            let s = code.model_specs[spec as usize].clone();
            let resume = target_block(blocks, pc as u32 + 1);
            thunk(move |vm, f| {
                vm.meter.step()?;
                let mv = rtti::eval_model(vm.prog, &f.tenv, &f.menv, &s.model);
                let r = s.recv.map(|r| f.regs[r as usize].clone());
                let srt = s
                    .static_recv
                    .as_ref()
                    .map(|t| rtti::eval_type(vm.prog, &f.tenv, &f.menv, t));
                let args: Vec<Value> = s.args.iter().map(|&a| f.regs[a as usize].clone()).collect();
                let action = vm.prepare_model(Some(site), &mv, s.name, r, srt, args)?;
                finish_call(vm, f, dst, resume, action)
            })
        }
        Op::CallDirect { dst, spec } => {
            // Fully pre-resolved at tier-compile time: callee, receiver,
            // null check, and argument registers are captured directly,
            // and the callee frame is built in place — no intermediate
            // argument vector.
            let s = code.direct_specs[spec as usize].clone();
            let (func, recv, null_check) = (s.func, s.recv, s.null_check);
            let argv = s.args;
            let num_regs = code.funcs[func.0 as usize].num_regs;
            if let Some(callee) = leaf_func(code, func) {
                // Pattern collapse: a leaf whose entire body is one
                // comparison returning its result (`return this < other;`
                // and friends) needs no callee frame at all — the
                // comparison reads the caller's registers directly. The
                // call, the `Cmp`, and the `Return` each still meter one
                // step, and the depth still bumps across the collapsed
                // call, so fuel traps and depth limits land exactly where
                // the framed path puts them.
                if let [Op::Cmp {
                    dst: cd,
                    op,
                    nk,
                    l,
                    r,
                }, Op::Return { src }] = callee.code[..]
                {
                    let nparams = recv.is_some() as u16 + argv.len() as u16;
                    if src == cd && l < nparams && r < nparams {
                        // Callee parameter register -> caller register;
                        // `this` (reg 0) additionally unpacks, exactly as
                        // frame building would.
                        let map = |p: u16| match (recv, p) {
                            (Some(rr), 0) => (rr as usize, true),
                            (Some(_), p) => (argv[p as usize - 1] as usize, false),
                            (None, p) => (argv[p as usize] as usize, false),
                        };
                        let ((lr, l_this), (rr, r_this)) = (map(l), map(r));
                        let nullchk = if null_check {
                            recv.map(|r| r as usize)
                        } else {
                            None
                        };
                        let dst = dst as usize;
                        return thunk(move |vm, f| {
                            vm.meter.step()?; // the call
                            if let Some(rg) = nullchk {
                                if vm.heap.is_null(&f.regs[rg]) {
                                    return Err(RuntimeError::new(
                                        ErrorKind::NullPointer,
                                        "call on null",
                                    ));
                                }
                            }
                            vm.enter(true)?;
                            vm.meter.step()?; // the Cmp
                            let v = match (&f.regs[lr], &f.regs[rr]) {
                                (&Value::Int(a), &Value::Int(b)) if nk == NumKind::Int => {
                                    match int_cmp(op, a, b) {
                                        Some(t) => Value::Bool(t),
                                        None => compare(op, nk, Value::Int(a), Value::Int(b))?,
                                    }
                                }
                                _ => {
                                    let lv = f.regs[lr].clone();
                                    let rv = f.regs[rr].clone();
                                    let lv = if l_this { vm.heap.unpack(lv) } else { lv };
                                    let rv = if r_this { vm.heap.unpack(rv) } else { rv };
                                    compare(op, nk, lv, rv)?
                                }
                            };
                            vm.meter.step()?; // the Return
                            vm.depth.set(vm.depth.get() - 1);
                            f.regs[dst] = v;
                            rest(vm, f)
                        });
                    }
                }
                // Leaf inlining: run the callee's compiled blocks to
                // completion right here on a pooled local frame, then
                // continue straight-line — the outer loop never sees
                // this call. Same steps, same depth accounting, same
                // trap points as the frame-pushing path.
                let leaf = compile_func(code, callee);
                let dst = dst as usize;
                return thunk(move |vm, f| {
                    vm.meter.step()?;
                    let this = match recv {
                        Some(r) => {
                            let v = f.regs[r as usize].clone();
                            if null_check && vm.heap.is_null(&v) {
                                return Err(RuntimeError::new(
                                    ErrorKind::NullPointer,
                                    "call on null",
                                ));
                            }
                            Some(vm.heap.unpack(v))
                        }
                        None => None,
                    };
                    vm.enter(true)?;
                    let mut regs = vm.grab_regs(num_regs);
                    let mut slot = 0;
                    if let Some(t) = this {
                        regs[0] = t;
                        slot = 1;
                    }
                    for &a in &argv {
                        regs[slot] = f.regs[a as usize].clone();
                        slot += 1;
                    }
                    let mut lf = VmFrame {
                        func,
                        pc: 0,
                        regs,
                        tenv: Default::default(),
                        menv: Default::default(),
                        dst: None,
                        counted: true,
                    };
                    let mut b = 0usize;
                    let v = loop {
                        match leaf.blocks[b](vm, &mut lf)? {
                            Ctl::Jump(x) => b = x as usize,
                            Ctl::Ret(v) => break v,
                            Ctl::Call => unreachable!("leaf function pushed a frame"),
                        }
                    };
                    vm.depth.set(vm.depth.get() - 1);
                    vm.recycle_regs(lf.regs);
                    f.regs[dst] = v;
                    rest(vm, f)
                });
            }
            let resume = target_block(blocks, pc as u32 + 1);
            thunk(move |vm, f| {
                vm.meter.step()?;
                let this = match recv {
                    Some(r) => {
                        let v = f.regs[r as usize].clone();
                        if null_check && vm.heap.is_null(&v) {
                            return Err(RuntimeError::new(ErrorKind::NullPointer, "call on null"));
                        }
                        Some(vm.heap.unpack(v))
                    }
                    None => None,
                };
                let mut regs = vm.grab_regs(num_regs);
                let mut slot = 0;
                if let Some(t) = this {
                    regs[0] = t;
                    slot = 1;
                }
                for &a in &argv {
                    regs[slot] = f.regs[a as usize].clone();
                    slot += 1;
                }
                let callee = VmFrame {
                    func,
                    pc: 0,
                    regs,
                    tenv: Default::default(),
                    menv: Default::default(),
                    dst: Some(dst),
                    counted: true,
                };
                f.pc = resume as usize;
                vm.pending_call.set(Some(callee));
                Ok(Ctl::Call)
            })
        }
        Op::New { dst, spec } => {
            let s = code.new_specs[spec as usize].clone();
            let dst = dst as usize;
            let resume = target_block(blocks, pc as u32 + 1);
            thunk(move |vm, f| {
                vm.meter.step()?;
                let rt: Vec<RtType> = s
                    .targs
                    .iter()
                    .map(|t| rtti::eval_type(vm.prog, &f.tenv, &f.menv, t))
                    .collect();
                let rm: Vec<ModelValue> = s
                    .models
                    .iter()
                    .map(|m| rtti::eval_model(vm.prog, &f.tenv, &f.menv, m))
                    .collect();
                let args: Vec<Value> = s.args.iter().map(|&a| f.regs[a as usize].clone()).collect();
                let this = vm.new_object(s.class, &rt, &rm)?;
                let def = vm.prog.table.class(s.class);
                let Some(&fid) = vm.code.ctors.get(&(s.class.0, s.ctor as u32)) else {
                    return Err(RuntimeError::new(
                        ErrorKind::NoSuchMethod,
                        format!("class `{}` ctor {} has no body", def.name, s.ctor),
                    ));
                };
                let mut callee = vm.frame(fid, Some(this.clone()), args, true);
                for (tv, t) in def.params.iter().zip(rt) {
                    callee.tenv.insert(*tv, t);
                }
                for (w, mm) in def.wheres.iter().zip(rm) {
                    callee.menv.insert(w.mv, mm);
                }
                f.regs[dst] = this;
                f.pc = resume as usize;
                vm.pending_call.set(Some(callee));
                Ok(Ctl::Call)
            })
        }
        Op::PrimCall { dst, spec } => {
            let s = code.prim_specs[spec as usize].clone();
            let dst = dst as usize;
            // The shared `natives::prim_call` helper dispatches on the
            // method *name string* and takes its arguments in a fresh
            // `Vec` — per-call costs a devirtualized natural-model method
            // should not pay. Resolve the hottest names here, once, at
            // tier-compile time; the fast path engages only on the exact
            // value shapes the helper computes identically, and anything
            // else falls back to it for error and semantic parity.
            match (s.recv, s.name.as_str(), s.args.len()) {
                (Some(r), "compareTo", 1) => {
                    let (r, a0) = (r as usize, s.args[0] as usize);
                    thunk(move |vm, f| {
                        vm.meter.step()?;
                        f.regs[dst] = match (&f.regs[r], &f.regs[a0]) {
                            (&Value::Int(a), &Value::Int(b)) => Value::Int(a.cmp(&b) as i32),
                            _ => {
                                let recv = Some(f.regs[r].clone());
                                let args = vec![f.regs[a0].clone()];
                                natives::prim_call(&vm.heap, s.prim, s.name, recv, args)?
                            }
                        };
                        rest(vm, f)
                    })
                }
                (Some(r), "equals", 1) => {
                    let (r, a0) = (r as usize, s.args[0] as usize);
                    thunk(move |vm, f| {
                        vm.meter.step()?;
                        f.regs[dst] = match (&f.regs[r], &f.regs[a0]) {
                            (&Value::Int(a), &Value::Int(b)) => Value::Bool(a == b),
                            _ => {
                                let recv = Some(f.regs[r].clone());
                                let args = vec![f.regs[a0].clone()];
                                natives::prim_call(&vm.heap, s.prim, s.name, recv, args)?
                            }
                        };
                        rest(vm, f)
                    })
                }
                _ => thunk(move |vm, f| {
                    vm.meter.step()?;
                    let r = s.recv.map(|r| f.regs[r as usize].clone());
                    let args: Vec<Value> =
                        s.args.iter().map(|&a| f.regs[a as usize].clone()).collect();
                    f.regs[dst] = natives::prim_call(&vm.heap, s.prim, s.name, r, args)?;
                    rest(vm, f)
                }),
            }
        }
        Op::Native { dst, spec } => {
            let s = code.native_specs[spec as usize].clone();
            let dst = dst as usize;
            thunk(move |vm, f| {
                vm.meter.step()?;
                let r = s.recv.map(|r| f.regs[r as usize].clone());
                let args: Vec<Value> = s.args.iter().map(|&a| f.regs[a as usize].clone()).collect();
                let v = vm.native(s.op, r, args)?;
                f.regs[dst] = v;
                rest(vm, f)
            })
        }
    }
}

/// Arithmetic closures, specialized per `(op, kind)` for the hot `int`
/// shapes; everything else (and every operand mismatch) funnels through
/// the shared [`arith`] helper for exact error parity.
fn arith_thunk(dst: u16, op: BinOp, nk: NumKind, l: u16, r: u16, rest: Thunk) -> Thunk {
    let (dst, l, r) = (dst as usize, l as usize, r as usize);
    macro_rules! int_fast {
        ($apply:expr) => {
            thunk(move |vm, f| {
                vm.meter.step()?;
                if let (&Value::Int(a), &Value::Int(b)) = (&f.regs[l], &f.regs[r]) {
                    f.regs[dst] = Value::Int($apply(a, b));
                } else {
                    let lv = f.regs[l].clone();
                    let rv = f.regs[r].clone();
                    f.regs[dst] = arith(op, nk, lv, rv)?;
                }
                rest(vm, f)
            })
        };
    }
    match (op, nk) {
        (BinOp::Add, NumKind::Int) => int_fast!(i32::wrapping_add),
        (BinOp::Sub, NumKind::Int) => int_fast!(i32::wrapping_sub),
        (BinOp::Mul, NumKind::Int) => int_fast!(i32::wrapping_mul),
        _ => thunk(move |vm, f| {
            vm.meter.step()?;
            let lv = f.regs[l].clone();
            let rv = f.regs[r].clone();
            f.regs[dst] = arith(op, nk, lv, rv)?;
            rest(vm, f)
        }),
    }
}

/// Comparison closures, `int`-specialized like [`arith_thunk`].
fn cmp_thunk(dst: u16, op: BinOp, nk: NumKind, l: u16, r: u16, rest: Thunk) -> Thunk {
    let (dst, l, r) = (dst as usize, l as usize, r as usize);
    macro_rules! int_fast {
        ($apply:expr) => {
            thunk(move |vm, f| {
                vm.meter.step()?;
                if let (&Value::Int(a), &Value::Int(b)) = (&f.regs[l], &f.regs[r]) {
                    f.regs[dst] = Value::Bool($apply(a, b));
                } else {
                    let lv = f.regs[l].clone();
                    let rv = f.regs[r].clone();
                    f.regs[dst] = compare(op, nk, lv, rv)?;
                }
                rest(vm, f)
            })
        };
    }
    match (op, nk) {
        (BinOp::Lt, NumKind::Int) => int_fast!(|a, b| a < b),
        (BinOp::Le, NumKind::Int) => int_fast!(|a, b| a <= b),
        (BinOp::Gt, NumKind::Int) => int_fast!(|a, b| a > b),
        (BinOp::Ge, NumKind::Int) => int_fast!(|a, b| a >= b),
        (BinOp::Eq, NumKind::Int) => int_fast!(|a, b| a == b),
        (BinOp::Ne, NumKind::Int) => int_fast!(|a, b| a != b),
        _ => thunk(move |vm, f| {
            vm.meter.step()?;
            let lv = f.regs[l].clone();
            let rv = f.regs[r].clone();
            f.regs[dst] = compare(op, nk, lv, rv)?;
            rest(vm, f)
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opt::compile_optimized;
    use genus_check::check_source;
    use genus_heap::meter::Limits;

    /// One run's value, output and fuel.
    type Observed = (RResult<String>, String, u64);

    fn run_both_tiers(src: &str, limits: Option<Limits>) -> (Observed, Observed) {
        let prog = check_source(src).unwrap_or_else(|e| panic!("check failed:\n{e}"));
        let code = Arc::new(compile_optimized(&prog, 2));
        let mut vm = Vm::with_code(&prog, Arc::clone(&code));
        if let Some(l) = limits {
            vm.set_limits(l);
        }
        // Render on the owning VM: handles are per-heap indices.
        let v = vm.run_main().map(|v| vm.render(&v));
        let vm_out = (v, vm.take_output(), vm.resource_stats().fuel_used);
        let tier = compile_tier(&code);
        let mut jit = Vm::with_code(&prog, Arc::clone(&code));
        if let Some(l) = limits {
            jit.set_limits(l);
        }
        let v = jit.run_main_tier(&tier).map(|v| jit.render(&v));
        let tier_out = (v, jit.take_output(), jit.resource_stats().fuel_used);
        (vm_out, tier_out)
    }

    fn assert_parity(src: &str, limits: Option<Limits>) {
        let ((vv, vo, vf), (tv, to, tf)) = run_both_tiers(src, limits);
        match (&vv, &tv) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "values diverge"),
            (Err(a), Err(b)) => {
                assert_eq!(a.code(), b.code(), "codes diverge");
                assert_eq!(a.span, b.span, "spans diverge");
                assert_eq!(a.to_string(), b.to_string(), "messages diverge");
            }
            _ => panic!("outcome shape diverges: vm={vv:?} tier={tv:?}"),
        }
        assert_eq!(vo, to, "output diverges");
        assert_eq!(vf, tf, "fuel accounting diverges");
    }

    #[test]
    fn tier_agrees_on_loops_and_calls() {
        assert_parity(
            "class P { int v; P(int v) { this.v = v; } int get() { return v; } }
             int add(int a, int b) { return a + b; }
             int main() {
               int s = 0;
               for (int i = 0; i < 50; i = i + 1) { s = add(s, new P(i).get()); }
               println(\"sum \" + s);
               return s;
             }",
            None,
        );
    }

    #[test]
    fn tier_agrees_on_model_dispatch() {
        assert_parity(
            "constraint Ord[T] { boolean T.before(T other); }
             model IntOrd for Ord[int] { boolean before(int other) { return this < other; } }
             int count[T](T[] xs, T p) where Ord[T] {
               int n = 0;
               for (int i = 0; i < xs.length; i = i + 1) { if (xs[i].before(p)) { n = n + 1; } }
               return n;
             }
             int main() {
               int[] xs = new int[10];
               for (int i = 0; i < 10; i = i + 1) { xs[i] = i * 3 % 7; }
               return count[int with IntOrd](xs, 4);
             }",
            None,
        );
    }

    #[test]
    fn tier_agrees_on_traps_and_fuel() {
        // Index out of bounds: identical structured error.
        assert_parity("int main() { int[] a = new int[2]; return a[5]; }", None);
        // Fuel exhaustion mid-loop: identical step count at the trap.
        assert_parity(
            "int main() { int i = 0; while (true) { i = i + 1; } return i; }",
            Some(Limits {
                fuel: Some(10_000),
                ..Limits::default()
            }),
        );
    }

    #[test]
    fn tier_stats_count_functions() {
        let prog = check_source("int main() { return 1; }").expect("checks");
        let code = Arc::new(compile_optimized(&prog, 2));
        let tier = compile_tier(&code);
        assert!(tier.stats.funcs_tiered >= 1);
        assert!(tier.stats.blocks >= tier.stats.funcs_tiered);
    }
}

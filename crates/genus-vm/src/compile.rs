//! Lowering from checked HIR to register bytecode.
//!
//! The pass is a single recursive walk per body. Expression compilation is
//! destination-driven: `compile_expr(e, dst)` emits code leaving `e`'s
//! value in register `dst`, allocating temporaries above the HIR local
//! slots with stack discipline. Every temporary holds its value until the
//! consuming instruction executes, which preserves the interpreter's
//! strict left-to-right evaluation order even when later operands mutate
//! locals the earlier operands read.
//!
//! Operands that are plain locals skip the temporary copy and alias the
//! local's own register — but only when no sibling operand evaluated
//! after them contains a `SetLocal` (which could change the register
//! between the read point and the consuming instruction). Every opcode
//! reads its operand registers before writing its destination, so the
//! aliased register is observed at the same point the copy would have
//! been made.

use crate::bytecode::{
    Const, FuncId, GlobalSpec, ModelSpec, NativeSpec, NewSpec, Op, OpenSpec, PackSpec, PrimSpec,
    StaticSpec, VirtSpec, VmFunc, VmProgram,
};
use genus_check::hir::{self, BinKind};
use genus_check::CheckedProgram;
use genus_types::{ClassId, Type};
use std::collections::HashMap;

/// Hashable key for constant-pool deduplication (doubles by bit pattern).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum ConstKey {
    Int(i32),
    Long(i64),
    Double(u64),
    Bool(bool),
    Char(char),
    Str(String),
    Null,
    Void,
}

/// Program-level accumulation: the constant pool, spec tables, and the
/// dense virtual-call-site counter.
#[derive(Default)]
struct Builder {
    consts: Vec<Const>,
    const_map: HashMap<ConstKey, u32>,
    types: Vec<Type>,
    virt_specs: Vec<VirtSpec>,
    static_specs: Vec<StaticSpec>,
    global_specs: Vec<GlobalSpec>,
    model_specs: Vec<ModelSpec>,
    new_specs: Vec<NewSpec>,
    prim_specs: Vec<PrimSpec>,
    native_specs: Vec<NativeSpec>,
    pack_specs: Vec<PackSpec>,
    open_specs: Vec<OpenSpec>,
    num_sites: usize,
    num_model_sites: usize,
}

impl Builder {
    fn konst(&mut self, key: ConstKey, make: impl FnOnce() -> Const) -> u32 {
        if let Some(&k) = self.const_map.get(&key) {
            return k;
        }
        let k = self.consts.len() as u32;
        self.consts.push(make());
        self.const_map.insert(key, k);
        k
    }

    fn ty(&mut self, t: &Type) -> u32 {
        let i = self.types.len() as u32;
        self.types.push(t.clone());
        i
    }

    fn site(&mut self) -> u32 {
        let s = self.num_sites as u32;
        self.num_sites += 1;
        s
    }

    fn model_site(&mut self) -> u32 {
        let s = self.num_model_sites as u32;
        self.num_model_sites += 1;
        s
    }
}

/// True when evaluating `e` may assign a local of the current frame.
/// Calls run in their own frames, so only a literal `SetLocal` in the
/// expression tree counts.
fn writes_locals(e: &hir::Expr) -> bool {
    use hir::ExprKind as K;
    match &e.kind {
        K::SetLocal { .. } => true,
        K::Int(_)
        | K::Long(_)
        | K::Double(_)
        | K::Bool(_)
        | K::Char(_)
        | K::Str(_)
        | K::Null
        | K::Local(_)
        | K::GetStatic { .. }
        | K::DefaultValue { .. } => false,
        K::GetField { recv, .. } => writes_locals(recv),
        K::SetField { recv, value, .. } => writes_locals(recv) || writes_locals(value),
        K::SetStatic { value, .. } => writes_locals(value),
        K::CallVirtual { recv, args, .. } => writes_locals(recv) || args.iter().any(writes_locals),
        K::CallStatic { args, .. } | K::CallGlobal { args, .. } | K::New { args, .. } => {
            args.iter().any(writes_locals)
        }
        K::CallModel { recv, args, .. }
        | K::PrimCall { recv, args, .. }
        | K::Native { recv, args, .. } => {
            recv.as_deref().is_some_and(writes_locals) || args.iter().any(writes_locals)
        }
        K::NewArray { len, .. } => writes_locals(len),
        K::ArrayLen { arr } => writes_locals(arr),
        K::ArrayGet { arr, idx } => writes_locals(arr) || writes_locals(idx),
        K::ArraySet { arr, idx, value } => {
            writes_locals(arr) || writes_locals(idx) || writes_locals(value)
        }
        K::Binary { lhs, rhs, .. } => writes_locals(lhs) || writes_locals(rhs),
        K::Not(x) => writes_locals(x),
        K::Neg { expr, .. }
        | K::Widen { expr, .. }
        | K::InstanceOf { expr, .. }
        | K::Cast { expr, .. }
        | K::Pack { expr, .. } => writes_locals(expr),
        K::Cond {
            cond,
            then_e,
            else_e,
        } => writes_locals(cond) || writes_locals(then_e) || writes_locals(else_e),
        K::Print { arg, .. } => writes_locals(arg),
    }
}

/// Pending branch targets of one loop nesting level.
#[derive(Default)]
struct LoopFrame {
    breaks: Vec<usize>,
    continues: Vec<usize>,
}

/// Per-function compilation state.
struct FnCompiler<'b> {
    b: &'b mut Builder,
    code: Vec<Op>,
    /// Next free temporary register.
    sp: u16,
    max_regs: u16,
    loops: Vec<LoopFrame>,
}

impl<'b> FnCompiler<'b> {
    fn new(b: &'b mut Builder, num_locals: usize) -> Self {
        assert!(num_locals < usize::from(u16::MAX), "register file overflow");
        let base = num_locals as u16;
        FnCompiler {
            b,
            code: Vec::new(),
            sp: base,
            max_regs: base,
            loops: Vec::new(),
        }
    }

    fn temp(&mut self) -> u16 {
        let r = self.sp;
        self.sp += 1;
        self.max_regs = self.max_regs.max(self.sp);
        r
    }

    fn release(&mut self, mark: u16) {
        self.sp = mark;
    }

    fn emit(&mut self, op: Op) -> usize {
        self.code.push(op);
        self.code.len() - 1
    }

    fn here(&self) -> u32 {
        self.code.len() as u32
    }

    fn patch(&mut self, idx: usize, to: u32) {
        match &mut self.code[idx] {
            Op::Jump { target }
            | Op::JumpIfFalse { target, .. }
            | Op::JumpIfTrue { target, .. } => {
                *target = to;
            }
            other => unreachable!("patching non-branch {other:?}"),
        }
    }

    /// Compiles a full block list.
    fn block(&mut self, blk: &hir::Block) {
        for s in &blk.stmts {
            self.stmt(s);
        }
    }

    fn stmt(&mut self, s: &hir::Stmt) {
        let mark = self.sp;
        match s {
            hir::Stmt::Expr(e) => {
                let t = self.temp();
                self.expr(e, t);
            }
            hir::Stmt::Let { local, init, ty } => {
                let dst = local.0 as u16;
                match init {
                    Some(e) => self.expr(e, dst),
                    None => {
                        let ty = self.b.ty(ty);
                        self.emit(Op::DefaultValue { dst, ty });
                    }
                }
            }
            hir::Stmt::LetOpen {
                local,
                init,
                tvs,
                mvs,
            } => {
                let t = self.operand(init, true);
                let spec = self.b.open_specs.len() as u32;
                self.b.open_specs.push(OpenSpec {
                    tvs: tvs.clone(),
                    mvs: mvs.clone(),
                });
                self.emit(Op::Open {
                    dst: local.0 as u16,
                    src: t,
                    spec,
                });
            }
            hir::Stmt::If {
                cond,
                then_blk,
                else_blk,
            } => {
                let c = self.operand(cond, true);
                let jf = self.emit(Op::JumpIfFalse {
                    cond: c,
                    target: u32::MAX,
                });
                self.release(mark);
                self.block(then_blk);
                let jend = self.emit(Op::Jump { target: u32::MAX });
                let l_else = self.here();
                self.patch(jf, l_else);
                self.block(else_blk);
                let l_end = self.here();
                self.patch(jend, l_end);
            }
            hir::Stmt::While { cond, body, update } => {
                let l_cond = self.here();
                let c = self.operand(cond, true);
                let jf = self.emit(Op::JumpIfFalse {
                    cond: c,
                    target: u32::MAX,
                });
                self.release(mark);
                self.loops.push(LoopFrame::default());
                self.block(body);
                let body_frame = self.loops.pop().expect("loop frame");
                let l_update = self.here();
                // `break`/`continue` inside the update block (possible in
                // lowered forms) leave the loop / re-test the condition,
                // matching the interpreter's Flow handling.
                self.loops.push(LoopFrame::default());
                self.block(update);
                let update_frame = self.loops.pop().expect("loop frame");
                self.emit(Op::Jump { target: l_cond });
                let l_end = self.here();
                self.patch(jf, l_end);
                for p in body_frame.breaks {
                    self.patch(p, l_end);
                }
                for p in body_frame.continues {
                    self.patch(p, l_update);
                }
                for p in update_frame.breaks {
                    self.patch(p, l_end);
                }
                for p in update_frame.continues {
                    self.patch(p, l_cond);
                }
            }
            hir::Stmt::Return(e) => match e {
                Some(e) => {
                    let t = self.operand(e, true);
                    self.emit(Op::Return { src: t });
                }
                None => {
                    self.emit(Op::ReturnVoid);
                }
            },
            hir::Stmt::Break => {
                if self.loops.last().is_some() {
                    let j = self.emit(Op::Jump { target: u32::MAX });
                    self.loops.last_mut().expect("loop").breaks.push(j);
                } else {
                    self.emit(Op::Escaped);
                }
            }
            hir::Stmt::Continue => {
                if self.loops.last().is_some() {
                    let j = self.emit(Op::Jump { target: u32::MAX });
                    self.loops.last_mut().expect("loop").continues.push(j);
                } else {
                    self.emit(Op::Escaped);
                }
            }
            hir::Stmt::Block(b) => self.block(b),
        }
        self.release(mark);
    }

    /// Places `e` in a register. A plain local aliases its own register
    /// (no copy) when `later_pure` says the remaining sibling operands
    /// cannot reassign locals; everything else gets a fresh temporary.
    fn operand(&mut self, e: &hir::Expr, later_pure: bool) -> u16 {
        if later_pure {
            if let hir::ExprKind::Local(l) = &e.kind {
                return l.0 as u16;
            }
        }
        let t = self.temp();
        self.expr(e, t);
        t
    }

    /// Compiles the arguments of a call in evaluation order, returning
    /// their registers (aliased or temporary).
    fn args(&mut self, args: &[hir::Expr]) -> Vec<u16> {
        (0..args.len())
            .map(|i| {
                let later_pure = args[i + 1..].iter().all(|a| !writes_locals(a));
                self.operand(&args[i], later_pure)
            })
            .collect()
    }

    /// A call receiver: evaluated before the arguments, so it may alias a
    /// local only when none of the arguments writes locals.
    fn recv_operand(&mut self, recv: &hir::Expr, args: &[hir::Expr]) -> u16 {
        self.operand(recv, args.iter().all(|a| !writes_locals(a)))
    }

    #[allow(clippy::too_many_lines)]
    fn expr(&mut self, e: &hir::Expr, dst: u16) {
        use hir::ExprKind as K;
        let mark = self.sp;
        match &e.kind {
            K::Int(v) => {
                let v = *v as i32;
                let k = self.b.konst(ConstKey::Int(v), || Const::Int(v));
                self.emit(Op::Const { dst, k });
            }
            K::Long(v) => {
                let v = *v;
                let k = self.b.konst(ConstKey::Long(v), || Const::Long(v));
                self.emit(Op::Const { dst, k });
            }
            K::Double(v) => {
                let v = *v;
                let k = self
                    .b
                    .konst(ConstKey::Double(v.to_bits()), || Const::Double(v));
                self.emit(Op::Const { dst, k });
            }
            K::Bool(v) => {
                let v = *v;
                let k = self.b.konst(ConstKey::Bool(v), || Const::Bool(v));
                self.emit(Op::Const { dst, k });
            }
            K::Char(v) => {
                let v = *v;
                let k = self.b.konst(ConstKey::Char(v), || Const::Char(v));
                self.emit(Op::Const { dst, k });
            }
            K::Str(s) => {
                let k = self.b.konst(ConstKey::Str(s.clone()), || {
                    Const::Str(std::sync::Arc::from(s.as_str()))
                });
                self.emit(Op::Const { dst, k });
            }
            K::Null => {
                let k = self.b.konst(ConstKey::Null, || Const::Null);
                self.emit(Op::Const { dst, k });
            }
            K::Local(l) => {
                let src = l.0 as u16;
                if src != dst {
                    self.emit(Op::Move { dst, src });
                }
            }
            K::SetLocal { local, value } => {
                self.expr(value, dst);
                let target = local.0 as u16;
                if target != dst {
                    self.emit(Op::Move {
                        dst: target,
                        src: dst,
                    });
                }
            }
            K::GetField { recv, class, field } => {
                let r = self.operand(recv, true);
                self.emit(Op::GetField {
                    dst,
                    obj: r,
                    class: *class,
                    field: *field as u32,
                });
            }
            K::SetField {
                recv,
                class,
                field,
                value,
            } => {
                let r = self.operand(recv, !writes_locals(value));
                self.expr(value, dst);
                self.emit(Op::SetField {
                    obj: r,
                    class: *class,
                    field: *field as u32,
                    src: dst,
                });
            }
            K::GetStatic { class, field } => {
                self.emit(Op::GetStatic {
                    dst,
                    class: *class,
                    field: *field as u32,
                });
            }
            K::SetStatic {
                class,
                field,
                value,
            } => {
                self.expr(value, dst);
                self.emit(Op::SetStatic {
                    class: *class,
                    field: *field as u32,
                    src: dst,
                });
            }
            K::CallVirtual {
                recv,
                name,
                arity,
                targs,
                margs,
                args,
            } => {
                let r = self.recv_operand(recv, args);
                let regs = self.args(args);
                let spec = self.b.virt_specs.len() as u32;
                self.b.virt_specs.push(VirtSpec {
                    name: *name,
                    arity: *arity,
                    targs: targs.clone(),
                    margs: margs.clone(),
                    args: regs,
                });
                let site = self.b.site();
                self.emit(Op::CallVirtual {
                    dst,
                    recv: r,
                    spec,
                    site,
                });
            }
            K::CallStatic {
                class,
                method,
                targs,
                margs,
                args,
            } => {
                let regs = self.args(args);
                let spec = self.b.static_specs.len() as u32;
                self.b.static_specs.push(StaticSpec {
                    class: *class,
                    method: *method,
                    targs: targs.clone(),
                    margs: margs.clone(),
                    args: regs,
                });
                self.emit(Op::CallStatic { dst, spec });
            }
            K::CallGlobal {
                index,
                targs,
                margs,
                args,
            } => {
                let regs = self.args(args);
                let spec = self.b.global_specs.len() as u32;
                self.b.global_specs.push(GlobalSpec {
                    index: *index,
                    targs: targs.clone(),
                    margs: margs.clone(),
                    args: regs,
                });
                self.emit(Op::CallGlobal { dst, spec });
            }
            K::CallModel {
                model,
                name,
                recv,
                static_recv,
                args,
            } => {
                let r = recv.as_ref().map(|r| self.recv_operand(r, args));
                let regs = self.args(args);
                let spec = self.b.model_specs.len() as u32;
                self.b.model_specs.push(ModelSpec {
                    model: model.clone(),
                    name: *name,
                    recv: r,
                    static_recv: static_recv.clone(),
                    args: regs,
                    recv_ty: recv.as_ref().map(|r| r.ty.clone()),
                    arg_tys: args.iter().map(|a| a.ty.clone()).collect(),
                });
                let site = self.b.model_site();
                self.emit(Op::CallModel { dst, spec, site });
            }
            K::DefaultValue { of } => {
                let ty = self.b.ty(of);
                self.emit(Op::DefaultValue { dst, ty });
            }
            K::New {
                class,
                targs,
                models,
                ctor,
                args,
            } => {
                let regs = self.args(args);
                let spec = self.b.new_specs.len() as u32;
                self.b.new_specs.push(NewSpec {
                    class: *class,
                    targs: targs.clone(),
                    models: models.clone(),
                    ctor: *ctor,
                    args: regs,
                });
                self.emit(Op::New { dst, spec });
            }
            K::NewArray { elem, len } => {
                let l = self.operand(len, true);
                let elem = self.b.ty(elem);
                self.emit(Op::NewArray { dst, len: l, elem });
            }
            K::ArrayLen { arr } => {
                let a = self.operand(arr, true);
                self.emit(Op::ArrayLen { dst, arr: a });
            }
            K::ArrayGet { arr, idx } => {
                let a = self.operand(arr, !writes_locals(idx));
                let i = self.operand(idx, true);
                self.emit(Op::ArrayGet {
                    dst,
                    arr: a,
                    idx: i,
                });
            }
            K::ArraySet { arr, idx, value } => {
                let a = self.operand(arr, !writes_locals(idx) && !writes_locals(value));
                let i = self.operand(idx, !writes_locals(value));
                self.expr(value, dst);
                self.emit(Op::ArraySet {
                    arr: a,
                    idx: i,
                    src: dst,
                });
            }
            K::Binary { kind, lhs, rhs } => self.binary(*kind, lhs, rhs, dst),
            K::Not(x) => {
                self.expr(x, dst);
                self.emit(Op::Not { dst, src: dst });
            }
            K::Neg { expr, kind } => {
                self.expr(expr, dst);
                self.emit(Op::Neg {
                    dst,
                    src: dst,
                    nk: *kind,
                });
            }
            K::Widen { expr, from: _, to } => {
                self.expr(expr, dst);
                self.emit(Op::Widen {
                    dst,
                    src: dst,
                    to: *to,
                });
            }
            K::InstanceOf { expr, ty } => {
                self.expr(expr, dst);
                let ty = self.b.ty(ty);
                self.emit(Op::InstanceOf { dst, src: dst, ty });
            }
            K::Cast { expr, ty } => {
                self.expr(expr, dst);
                let ty = self.b.ty(ty);
                self.emit(Op::Cast { dst, src: dst, ty });
            }
            K::Pack {
                expr,
                ex: _,
                types,
                models,
            } => {
                self.expr(expr, dst);
                let spec = self.b.pack_specs.len() as u32;
                self.b.pack_specs.push(PackSpec {
                    types: types.clone(),
                    models: models.clone(),
                });
                self.emit(Op::Pack {
                    dst,
                    src: dst,
                    spec,
                });
            }
            K::Cond {
                cond,
                then_e,
                else_e,
            } => {
                let c = self.operand(cond, true);
                let jf = self.emit(Op::JumpIfFalse {
                    cond: c,
                    target: u32::MAX,
                });
                self.release(mark);
                self.expr(then_e, dst);
                let jend = self.emit(Op::Jump { target: u32::MAX });
                let l_else = self.here();
                self.patch(jf, l_else);
                self.expr(else_e, dst);
                let l_end = self.here();
                self.patch(jend, l_end);
            }
            K::Print { arg, newline } => {
                let t = self.operand(arg, true);
                self.emit(Op::Print {
                    src: t,
                    newline: *newline,
                });
                let k = self.b.konst(ConstKey::Void, || Const::Void);
                self.emit(Op::Const { dst, k });
            }
            K::PrimCall {
                prim,
                name,
                recv,
                args,
            } => {
                let r = recv.as_ref().map(|r| self.recv_operand(r, args));
                let regs = self.args(args);
                let spec = self.b.prim_specs.len() as u32;
                self.b.prim_specs.push(PrimSpec {
                    prim: *prim,
                    name: *name,
                    recv: r,
                    args: regs,
                });
                self.emit(Op::PrimCall { dst, spec });
            }
            K::Native { op, recv, args } => {
                let r = recv.as_ref().map(|r| self.recv_operand(r, args));
                let regs = self.args(args);
                let spec = self.b.native_specs.len() as u32;
                self.b.native_specs.push(NativeSpec {
                    op: *op,
                    recv: r,
                    args: regs,
                });
                self.emit(Op::Native { dst, spec });
            }
        }
        self.release(mark);
    }

    /// Binary operators. `&&`/`||` compile to short-circuit branch chains
    /// whose `JumpIf*` checks raise the interpreter's non-boolean
    /// condition error at the same evaluation points.
    fn binary(&mut self, kind: BinKind, lhs: &hir::Expr, rhs: &hir::Expr, dst: u16) {
        let mark = self.sp;
        match kind {
            BinKind::And => {
                let t = self.temp();
                self.expr(lhs, t);
                let j1 = self.emit(Op::JumpIfFalse {
                    cond: t,
                    target: u32::MAX,
                });
                self.expr(rhs, t);
                let j2 = self.emit(Op::JumpIfFalse {
                    cond: t,
                    target: u32::MAX,
                });
                let kt = self.b.konst(ConstKey::Bool(true), || Const::Bool(true));
                self.emit(Op::Const { dst, k: kt });
                let jend = self.emit(Op::Jump { target: u32::MAX });
                let l_false = self.here();
                self.patch(j1, l_false);
                self.patch(j2, l_false);
                let kf = self.b.konst(ConstKey::Bool(false), || Const::Bool(false));
                self.emit(Op::Const { dst, k: kf });
                let l_end = self.here();
                self.patch(jend, l_end);
            }
            BinKind::Or => {
                let t = self.temp();
                self.expr(lhs, t);
                let j1 = self.emit(Op::JumpIfTrue {
                    cond: t,
                    target: u32::MAX,
                });
                self.expr(rhs, t);
                let j2 = self.emit(Op::JumpIfTrue {
                    cond: t,
                    target: u32::MAX,
                });
                let kf = self.b.konst(ConstKey::Bool(false), || Const::Bool(false));
                self.emit(Op::Const { dst, k: kf });
                let jend = self.emit(Op::Jump { target: u32::MAX });
                let l_true = self.here();
                self.patch(j1, l_true);
                self.patch(j2, l_true);
                let kt = self.b.konst(ConstKey::Bool(true), || Const::Bool(true));
                self.emit(Op::Const { dst, k: kt });
                let l_end = self.here();
                self.patch(jend, l_end);
            }
            BinKind::Concat => {
                let l = self.operand(lhs, !writes_locals(rhs));
                let r = self.operand(rhs, true);
                self.emit(Op::Concat { dst, l, r });
            }
            BinKind::EqRef(op) | BinKind::EqPrim(op) => {
                let l = self.operand(lhs, !writes_locals(rhs));
                let r = self.operand(rhs, true);
                self.emit(Op::RefEq {
                    dst,
                    l,
                    r,
                    negate: op != genus_syntax::ast::BinOp::Eq,
                });
            }
            BinKind::Arith(op, nk) => {
                let l = self.operand(lhs, !writes_locals(rhs));
                let r = self.operand(rhs, true);
                self.emit(Op::Arith { dst, op, nk, l, r });
            }
            BinKind::Cmp(op, nk) => {
                let l = self.operand(lhs, !writes_locals(rhs));
                let r = self.operand(rhs, true);
                self.emit(Op::Cmp { dst, op, nk, l, r });
            }
        }
        self.release(mark);
    }
}

fn compile_fn(
    b: &mut Builder,
    name: String,
    num_locals: usize,
    block: &hir::Block,
    is_void: bool,
) -> VmFunc {
    let mut f = FnCompiler::new(b, num_locals);
    f.block(block);
    // Falling off the end: void bodies return `void`, non-void bodies
    // raise the interpreter's MissingReturn error.
    if is_void {
        f.emit(Op::ReturnVoid);
    } else {
        f.emit(Op::FallOff);
    }
    VmFunc {
        name,
        num_locals,
        num_regs: f.max_regs as usize,
        code: f.code,
        is_void,
    }
}

/// Wraps a bare initializer expression as a returning body.
fn init_body(expr: &hir::Expr, num_locals: usize) -> (usize, hir::Block) {
    (
        num_locals,
        hir::Block {
            stmts: vec![hir::Stmt::Return(Some(expr.clone()))],
        },
    )
}

/// The constant pool's deduplication index, carried from one lowered
/// segment to the next (see [`crate::link::Codegen`]).
#[derive(Debug, Clone, Default)]
pub(crate) struct ConstIndex(HashMap<ConstKey, u32>);

impl Builder {
    /// Resumes lowering into `code`, whose tables already hold the
    /// segments lowered before.
    fn resume(code: &mut VmProgram, index: &mut ConstIndex) -> Builder {
        Builder {
            consts: std::mem::take(&mut code.consts),
            const_map: std::mem::take(&mut index.0),
            types: std::mem::take(&mut code.types),
            virt_specs: std::mem::take(&mut code.virt_specs),
            static_specs: std::mem::take(&mut code.static_specs),
            global_specs: std::mem::take(&mut code.global_specs),
            model_specs: std::mem::take(&mut code.model_specs),
            new_specs: std::mem::take(&mut code.new_specs),
            prim_specs: std::mem::take(&mut code.prim_specs),
            native_specs: std::mem::take(&mut code.native_specs),
            pack_specs: std::mem::take(&mut code.pack_specs),
            open_specs: std::mem::take(&mut code.open_specs),
            num_sites: code.num_sites,
            num_model_sites: code.num_model_sites,
        }
    }

    /// Hands the tables back to `code`.
    fn suspend(self, code: &mut VmProgram, index: &mut ConstIndex) {
        code.consts = self.consts;
        index.0 = self.const_map;
        code.types = self.types;
        code.virt_specs = self.virt_specs;
        code.static_specs = self.static_specs;
        code.global_specs = self.global_specs;
        code.model_specs = self.model_specs;
        code.new_specs = self.new_specs;
        code.prim_specs = self.prim_specs;
        code.native_specs = self.native_specs;
        code.pack_specs = self.pack_specs;
        code.open_specs = self.open_specs;
        code.num_sites = self.num_sites;
        code.num_model_sites = self.num_model_sites;
    }
}

/// Compiles every executable body of a checked program to bytecode.
///
/// Function and call-site numbering is deterministic, so two compilations
/// of the same program produce identical bytecode. Bodies are laid out
/// segment by segment (the program's library files first, see
/// [`genus_types::Table::set_library_files`]), and by kind and table key
/// within a segment.
#[must_use]
pub fn compile_program(prog: &CheckedProgram) -> VmProgram {
    crate::link::compile_segmented(prog, 0)
}

/// Appends the bodies owned by files in `files` to `code`: methods,
/// constructors, globals, model methods, field initializers, then static
/// initializers, each in table-key order. A body belongs to the file that
/// declares it (a class member to its class's file, a model method —
/// enrichments included — to its own).
pub(crate) fn lower_segment(
    code: &mut VmProgram,
    index: &mut ConstIndex,
    prog: &CheckedProgram,
    files: &std::ops::Range<u32>,
) {
    let mut b = Builder::resume(code, index);
    let out = &mut *code;
    let table = &prog.table;
    let owned = |span: genus_common::Span| files.contains(&span.file.0);
    let class_owned = |cid: u32| owned(table.class(ClassId(cid)).span);

    let push = |funcs: &mut Vec<VmFunc>, f: VmFunc| -> FuncId {
        let id = FuncId(funcs.len() as u32);
        funcs.push(f);
        id
    };

    let mut keys: Vec<_> = prog
        .method_bodies
        .keys()
        .copied()
        .filter(|&(cid, _)| class_owned(cid))
        .collect();
    keys.sort_unstable();
    for (cid, mi) in keys {
        let body = &prog.method_bodies[&(cid, mi)];
        let def = table.class(ClassId(cid));
        let m = &def.methods[mi as usize];
        let f = compile_fn(
            &mut b,
            format!("{}::{}", def.name, m.name),
            body.num_locals,
            &body.block,
            m.ret.is_void(),
        );
        let id = push(&mut out.funcs, f);
        out.methods.insert((cid, mi), id);
    }

    let mut keys: Vec<_> = prog
        .ctor_bodies
        .keys()
        .copied()
        .filter(|&(cid, _)| class_owned(cid))
        .collect();
    keys.sort_unstable();
    for (cid, ci) in keys {
        let body = &prog.ctor_bodies[&(cid, ci)];
        let def = table.class(ClassId(cid));
        let f = compile_fn(
            &mut b,
            format!("{}::<ctor {ci}>", def.name),
            body.num_locals,
            &body.block,
            true,
        );
        let id = push(&mut out.funcs, f);
        out.ctors.insert((cid, ci), id);
    }

    let mut keys: Vec<_> = prog
        .global_bodies
        .keys()
        .copied()
        .filter(|&gi| owned(table.globals[gi as usize].span))
        .collect();
    keys.sort_unstable();
    for gi in keys {
        let body = &prog.global_bodies[&gi];
        let g = &table.globals[gi as usize];
        let f = compile_fn(
            &mut b,
            format!("global {}", g.name),
            body.num_locals,
            &body.block,
            g.ret.is_void(),
        );
        let id = push(&mut out.funcs, f);
        out.globals.insert(gi, id);
    }

    let mut keys: Vec<_> = prog
        .model_bodies
        .keys()
        .copied()
        .filter(|&(mid, mi)| {
            owned(table.model(genus_types::ModelId(mid)).methods[mi as usize].span)
        })
        .collect();
    keys.sort_unstable();
    for (mid, mi) in keys {
        let body = &prog.model_bodies[&(mid, mi)];
        let def = table.model(genus_types::ModelId(mid));
        let m = &def.methods[mi as usize];
        let f = compile_fn(
            &mut b,
            format!("{}::{}", def.name, m.name),
            body.num_locals,
            &body.block,
            m.ret.is_void(),
        );
        let id = push(&mut out.funcs, f);
        out.model_methods.insert((mid, mi), id);
    }

    let mut keys: Vec<_> = prog
        .field_inits
        .keys()
        .copied()
        .filter(|&(cid, _)| class_owned(cid))
        .collect();
    keys.sort_unstable();
    for (cid, fi) in keys {
        let init = &prog.field_inits[&(cid, fi)];
        let def = table.class(ClassId(cid));
        let (num_locals, block) = init_body(init, 1);
        let f = compile_fn(
            &mut b,
            format!("{}::<field {fi}>", def.name),
            num_locals,
            &block,
            false,
        );
        let id = push(&mut out.funcs, f);
        out.field_inits.insert((cid, fi), id);
    }

    for (cid, fi, init) in &prog.static_inits {
        if !class_owned(cid.0) {
            continue;
        }
        let def = table.class(*cid);
        let (num_locals, block) = init_body(init, 0);
        let f = compile_fn(
            &mut b,
            format!("{}::<static {fi}>", def.name),
            num_locals,
            &block,
            false,
        );
        let id = push(&mut out.funcs, f);
        out.static_inits.push((*cid, *fi, id));
    }

    b.suspend(out, index);
}

//! The bytecode representation: register-machine instructions, the
//! constant pool, and the side tables ("specs") carrying the reifiable
//! type/model payloads of call and type-test instructions.
//!
//! Design notes:
//!
//! - **Registers.** Each compiled function owns a dense register file.
//!   Registers `0..num_locals` are the HIR local slots (slot 0 is `this`
//!   for instance members); registers above are expression temporaries
//!   allocated with stack discipline by the compiler.
//! - **Specs.** Instruction words stay `Copy` by pushing every variable
//!   sized payload (type arguments, model expressions, argument register
//!   lists) into per-program side tables indexed by a `u32`. A spec's
//!   `Type`/`Model` entries are *open* terms evaluated against the
//!   running frame's type/model environment — dictionary passing in the
//!   sense of the paper's §7 homogeneous translation: one copy of the
//!   code, parameterized over runtime witnesses.
//! - **Call sites.** Every `CallVirtual` carries a dense site id used to
//!   index the VM's inline-cache vector (the bytecode analogue of the
//!   interpreter's per-HIR-node cache).

use crate::opt::OptStats;
use genus_check::hir::{NativeOp, NumKind};
use genus_common::Symbol;
use genus_interp::{RtType, Value};
use genus_syntax::ast::BinOp;
use genus_types::{ClassId, Model, MvId, PrimTy, TvId, Type};
use std::collections::HashMap;

/// Index of a compiled function in [`VmProgram::funcs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FuncId(pub u32);

/// A pooled constant. This is the `Send + Sync` subset of [`Value`]
/// (literals only — never references), with strings behind `Arc` so a
/// compiled [`VmProgram`] can be shared across serve workers. Each VM
/// instance materializes the pool into a private `Vec<Value>` once at
/// construction, keeping `Op::Const` a plain indexed clone.
#[derive(Debug, Clone, PartialEq)]
pub enum Const {
    /// 32-bit integer literal.
    Int(i32),
    /// 64-bit integer literal.
    Long(i64),
    /// 64-bit float literal.
    Double(f64),
    /// Boolean literal.
    Bool(bool),
    /// Character literal.
    Char(char),
    /// String literal.
    Str(std::sync::Arc<str>),
    /// The `null` reference.
    Null,
    /// The `void` unit value.
    Void,
}

impl Const {
    /// The pooled image of a literal value; `None` for reference values
    /// (objects, arrays, packed existentials), which are never poolable.
    #[must_use]
    pub fn from_value(v: &Value) -> Option<Const> {
        Some(match v {
            Value::Int(x) => Const::Int(*x),
            Value::Long(x) => Const::Long(*x),
            Value::Double(x) => Const::Double(*x),
            Value::Bool(x) => Const::Bool(*x),
            Value::Char(x) => Const::Char(*x),
            Value::Str(s) => Const::Str(std::sync::Arc::from(&**s)),
            Value::Null => Const::Null,
            Value::Void => Const::Void,
            _ => return None,
        })
    }

    /// Materializes the runtime value for this constant.
    #[must_use]
    pub fn to_value(&self) -> Value {
        match self {
            Const::Int(x) => Value::Int(*x),
            Const::Long(x) => Value::Long(*x),
            Const::Double(x) => Value::Double(*x),
            Const::Bool(x) => Value::Bool(*x),
            Const::Char(x) => Value::Char(*x),
            Const::Str(s) => Value::Str(std::rc::Rc::from(&**s)),
            Const::Null => Value::Null,
            Const::Void => Value::Void,
        }
    }
}

/// One register-machine instruction. All payloads bigger than a word live
/// in the spec side tables of [`VmProgram`].
#[derive(Debug, Clone, Copy)]
pub enum Op {
    /// `dst = consts[k]`.
    Const { dst: u16, k: u32 },
    /// `dst = src` (values are cheap to clone: primitives or `Rc`s).
    Move { dst: u16, src: u16 },
    /// Unconditional branch.
    Jump { target: u32 },
    /// Branch when `cond` is `false`; errors on non-boolean values with
    /// the engines' shared "condition evaluated to non-boolean" message.
    JumpIfFalse { cond: u16, target: u32 },
    /// Branch when `cond` is `true`; same non-boolean error.
    JumpIfTrue { cond: u16, target: u32 },
    /// Return `src` to the caller.
    Return { src: u16 },
    /// Return `void` to the caller.
    ReturnVoid,
    /// Non-void body fell off the end: `MissingReturn` error.
    FallOff,
    /// A `break`/`continue` with no enclosing loop reached execution.
    Escaped,
    /// `dst = obj.field` (missing fields read as `null`, matching the
    /// interpreter's pre-constructor visibility).
    GetField {
        dst: u16,
        obj: u16,
        class: ClassId,
        field: u32,
    },
    /// `obj.field = src`.
    SetField {
        obj: u16,
        class: ClassId,
        field: u32,
        src: u16,
    },
    /// `dst = Class.field`.
    GetStatic {
        dst: u16,
        class: ClassId,
        field: u32,
    },
    /// `Class.field = src`.
    SetStatic {
        class: ClassId,
        field: u32,
        src: u16,
    },
    /// `dst = l op r` for numeric arithmetic.
    Arith {
        dst: u16,
        op: BinOp,
        nk: NumKind,
        l: u16,
        r: u16,
    },
    /// `dst = l op r` for numeric comparison.
    Cmp {
        dst: u16,
        op: BinOp,
        nk: NumKind,
        l: u16,
        r: u16,
    },
    /// Reference/primitive (in)equality.
    RefEq {
        dst: u16,
        l: u16,
        r: u16,
        negate: bool,
    },
    /// String concatenation; stringifies both operands (dispatching
    /// `toString` for objects).
    Concat { dst: u16, l: u16, r: u16 },
    /// Boolean negation.
    Not { dst: u16, src: u16 },
    /// Numeric negation.
    Neg { dst: u16, src: u16, nk: NumKind },
    /// Numeric widening.
    Widen { dst: u16, src: u16, to: PrimTy },
    /// `dst = new elem[len]` with element-specialized storage (§7.3).
    NewArray { dst: u16, len: u16, elem: u32 },
    /// `dst = arr.length`.
    ArrayLen { dst: u16, arr: u16 },
    /// `dst = arr[idx]`.
    ArrayGet { dst: u16, arr: u16, idx: u16 },
    /// `arr[idx] = src`.
    ArraySet { arr: u16, idx: u16, src: u16 },
    /// Reified `instanceof` against `types[ty]` (§4.6).
    InstanceOf { dst: u16, src: u16, ty: u32 },
    /// Checked cast to `types[ty]`.
    Cast { dst: u16, src: u16, ty: u32 },
    /// `dst = types[ty].default()` (§3.1).
    DefaultValue { dst: u16, ty: u32 },
    /// Existential packing (§6.1) with the witnesses in `pack_specs[spec]`.
    Pack { dst: u16, src: u16, spec: u32 },
    /// Existential open (§6.2): unpack `src` into `dst`, binding the
    /// witnesses of `open_specs[spec]` into the frame's environment.
    Open { dst: u16, src: u16, spec: u32 },
    /// `print`/`println`.
    Print { src: u16, newline: bool },
    /// Virtual call through `virt_specs[spec]`, inline-cached at `site`.
    CallVirtual {
        dst: u16,
        recv: u16,
        spec: u32,
        site: u32,
    },
    /// Static class-method call through `static_specs[spec]`.
    CallStatic { dst: u16, spec: u32 },
    /// Top-level call through `global_specs[spec]`.
    CallGlobal { dst: u16, spec: u32 },
    /// Constraint-operation call through a model witness
    /// (`model_specs[spec]`); dispatches as a multimethod (§5.1),
    /// monomorphically cached at `site`.
    CallModel { dst: u16, spec: u32, site: u32 },
    /// Direct call to a known function through `direct_specs[spec]` —
    /// the product of the optimizer's heterogeneous translation (§7.3):
    /// dispatch already resolved, environments already substituted away.
    CallDirect { dst: u16, spec: u32 },
    /// Object construction through `new_specs[spec]`: allocates, runs the
    /// field-initializer chain, then pushes the constructor frame.
    New { dst: u16, spec: u32 },
    /// Primitive-receiver built-in through `prim_specs[spec]`.
    PrimCall { dst: u16, spec: u32 },
    /// Runtime-native (`String`/`Object`) call through
    /// `native_specs[spec]`.
    Native { dst: u16, spec: u32 },
}

/// Payload of a [`Op::CallVirtual`].
#[derive(Debug, Clone)]
pub struct VirtSpec {
    /// Method name (dispatch key with `arity`).
    pub name: Symbol,
    /// Number of value parameters.
    pub arity: usize,
    /// Method-level type arguments (open; evaluated per call).
    pub targs: Vec<Type>,
    /// Method-level model arguments (open).
    pub margs: Vec<Model>,
    /// Argument registers, in evaluation order.
    pub args: Vec<u16>,
}

/// Payload of a [`Op::CallStatic`].
#[derive(Debug, Clone)]
pub struct StaticSpec {
    /// Declaring class.
    pub class: ClassId,
    /// Method index within the class.
    pub method: usize,
    /// Method-level type arguments.
    pub targs: Vec<Type>,
    /// Method-level model arguments.
    pub margs: Vec<Model>,
    /// Argument registers.
    pub args: Vec<u16>,
}

/// Payload of a [`Op::CallGlobal`].
#[derive(Debug, Clone)]
pub struct GlobalSpec {
    /// Index into the table's globals.
    pub index: usize,
    /// Type arguments.
    pub targs: Vec<Type>,
    /// Model arguments.
    pub margs: Vec<Model>,
    /// Argument registers.
    pub args: Vec<u16>,
}

/// Payload of a [`Op::CallModel`] — the model-slot of dictionary passing:
/// the witness is an open `Model` term resolved against the frame's
/// environment, then dispatched as a multimethod.
#[derive(Debug, Clone)]
pub struct ModelSpec {
    /// The witness to dispatch through.
    pub model: Model,
    /// Operation name.
    pub name: Symbol,
    /// Receiver register (`None` for static constraint operations).
    pub recv: Option<u16>,
    /// Receiver *type* for static operations (`T.zero()`).
    pub static_recv: Option<Type>,
    /// Argument registers.
    pub args: Vec<u16>,
    /// Static (checked) type of the receiver expression, when present.
    /// Recorded for the optimizer: a closed receiver type lets the
    /// specializer prove a multimethod candidate applicable at compile
    /// time. Never consulted by the VM's dynamic dispatch.
    pub recv_ty: Option<Type>,
    /// Static (checked) types of the argument expressions, parallel to
    /// `args`. Optimizer-only, like `recv_ty`.
    pub arg_tys: Vec<Type>,
}

/// Payload of a [`Op::CallDirect`]: the devirtualized call produced by the
/// specializer. The callee is a concrete [`VmFunc`] whose body already has
/// every type/model variable substituted, so the frame runs with *empty*
/// environments and no dispatch of any kind.
#[derive(Debug, Clone)]
pub struct DirectSpec {
    /// Resolved callee.
    pub func: FuncId,
    /// Receiver register for instance targets.
    pub recv: Option<u16>,
    /// Whether the receiver must be null-checked before the call. The
    /// dynamic dispatch this spec replaces would have routed a null
    /// receiver to the "call on null" trap; the direct call must too.
    pub null_check: bool,
    /// Argument registers.
    pub args: Vec<u16>,
}

/// Payload of a [`Op::New`].
#[derive(Debug, Clone)]
pub struct NewSpec {
    /// Class to instantiate.
    pub class: ClassId,
    /// Reified type arguments.
    pub targs: Vec<Type>,
    /// Reified model witnesses (part of the object's runtime type, §7.2).
    pub models: Vec<Model>,
    /// Constructor index.
    pub ctor: usize,
    /// Argument registers.
    pub args: Vec<u16>,
}

/// Payload of a [`Op::PrimCall`].
#[derive(Debug, Clone)]
pub struct PrimSpec {
    /// The primitive type.
    pub prim: PrimTy,
    /// Operation name.
    pub name: Symbol,
    /// Receiver register for instance operations.
    pub recv: Option<u16>,
    /// Argument registers.
    pub args: Vec<u16>,
}

/// Payload of a [`Op::Native`].
#[derive(Debug, Clone)]
pub struct NativeSpec {
    /// Which native operation.
    pub op: NativeOp,
    /// Receiver register, if the native is an instance method.
    pub recv: Option<u16>,
    /// Argument registers.
    pub args: Vec<u16>,
}

/// Payload of a [`Op::Pack`].
#[derive(Debug, Clone)]
pub struct PackSpec {
    /// Chosen type witnesses.
    pub types: Vec<Type>,
    /// Chosen model witnesses.
    pub models: Vec<Model>,
}

/// Payload of a [`Op::Open`].
#[derive(Debug, Clone)]
pub struct OpenSpec {
    /// Type variables to bind from the package.
    pub tvs: Vec<TvId>,
    /// Model variables to bind from the package.
    pub mvs: Vec<MvId>,
}

/// One compiled body.
#[derive(Debug, Clone)]
pub struct VmFunc {
    /// Debug name (`Class::method`, `global fib`, …).
    pub name: String,
    /// HIR local slots (parameters first; slot 0 is `this` when present).
    pub num_locals: usize,
    /// Total register-file size including temporaries.
    pub num_regs: usize,
    /// The code. Control flow is by instruction index.
    pub code: Vec<Op>,
    /// Whether falling off the end is legal (void bodies).
    pub is_void: bool,
}

/// A fully lowered program: every executable body compiled once, plus the
/// shared constant pool and spec tables.
#[derive(Debug, Default, Clone)]
pub struct VmProgram {
    /// All compiled functions.
    pub funcs: Vec<VmFunc>,
    /// Constant pool (literals, `null`, `void`).
    pub consts: Vec<Const>,
    /// Open types for `NewArray`/`InstanceOf`/`Cast`/`DefaultValue`.
    pub types: Vec<Type>,
    /// `CallVirtual` payloads.
    pub virt_specs: Vec<VirtSpec>,
    /// `CallStatic` payloads.
    pub static_specs: Vec<StaticSpec>,
    /// `CallGlobal` payloads.
    pub global_specs: Vec<GlobalSpec>,
    /// `CallModel` payloads.
    pub model_specs: Vec<ModelSpec>,
    /// `CallDirect` payloads (optimizer output; empty at `--opt-level=0`).
    pub direct_specs: Vec<DirectSpec>,
    /// `New` payloads.
    pub new_specs: Vec<NewSpec>,
    /// `PrimCall` payloads.
    pub prim_specs: Vec<PrimSpec>,
    /// `Native` payloads.
    pub native_specs: Vec<NativeSpec>,
    /// `Pack` payloads.
    pub pack_specs: Vec<PackSpec>,
    /// `Open` payloads.
    pub open_specs: Vec<OpenSpec>,
    /// `(class, method index) → function`.
    pub methods: HashMap<(u32, u32), FuncId>,
    /// `(class, ctor index) → function`.
    pub ctors: HashMap<(u32, u32), FuncId>,
    /// `global index → function`.
    pub globals: HashMap<u32, FuncId>,
    /// `(model, method index) → function`.
    pub model_methods: HashMap<(u32, u32), FuncId>,
    /// `(class, field index) → initializer function` (`this` in register
    /// 0; returns the initial value).
    pub field_inits: HashMap<(u32, u32), FuncId>,
    /// Static-field initializers in program order.
    pub static_inits: Vec<(ClassId, usize, FuncId)>,
    /// Number of inline-cacheable virtual call sites.
    pub num_sites: usize,
    /// Number of inline-cacheable model-dispatch (`CallModel`) sites.
    pub num_model_sites: usize,
    /// Pre-reified images of `types` entries that are closed and
    /// existential-free, parallel to `types` (optimizer output; empty at
    /// `--opt-level=0`, in which case the VM evaluates the open term
    /// against the frame's environment as usual).
    pub rt_types: Vec<Option<RtType>>,
    /// Counters from the optimization pipeline that produced this program.
    pub opt_stats: OptStats,
}

impl VmProgram {
    /// Total number of instructions across all functions.
    #[must_use]
    pub fn code_len(&self) -> usize {
        self.funcs.iter().map(|f| f.code.len()).sum()
    }
}

/// Compile-time proof that a compiled program can be cached once and
/// shared across serve workers (`Arc<VmProgram>`).
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<VmProgram>();
};

//! Binary serialization of a compiled [`VmProgram`] — the bytecode half
//! of a persisted compiled program (the table half lives in
//! `genus_types::serial`).
//!
//! The writer is deterministic: hash maps are emitted in sorted key
//! order, so identical programs produce identical bytes (the persist
//! layer checksums the payload). `rt_types` is *not* persisted — the
//! pre-reified type images contain process-local `Rc` structure — and is
//! instead recomputed on load against the restored table, which is
//! deterministic and cheap (microseconds, versus the milliseconds of
//! checking that loading avoids).
//!
//! Like every artifact codec in this repo, reads are total: truncated or
//! corrupt input returns `Err`, never panics — the caller treats it as a
//! cache miss and recompiles.

use crate::bytecode::{
    Const, DirectSpec, FuncId, GlobalSpec, ModelSpec, NativeSpec, NewSpec, Op, OpenSpec, PackSpec,
    PrimSpec, StaticSpec, VirtSpec, VmFunc, VmProgram,
};
use crate::opt::OptStats;
use genus_check::hir::{NativeOp, NumKind};
use genus_check::CheckedProgram;
use genus_common::bytes::{ByteReader, ByteWriter, ReadResult};
use genus_syntax::ast::BinOp;
use genus_types::serial::{
    read_model, read_prim, read_sym, read_type, write_model, write_prim, write_sym, write_type,
};
use genus_types::{ClassId, Model, MvId, TvId, Type};
use std::collections::HashMap;

fn binop_code(op: BinOp) -> u8 {
    match op {
        BinOp::Add => 0,
        BinOp::Sub => 1,
        BinOp::Mul => 2,
        BinOp::Div => 3,
        BinOp::Rem => 4,
        BinOp::Eq => 5,
        BinOp::Ne => 6,
        BinOp::Lt => 7,
        BinOp::Le => 8,
        BinOp::Gt => 9,
        BinOp::Ge => 10,
        BinOp::And => 11,
        BinOp::Or => 12,
    }
}

fn binop_from(code: u8) -> ReadResult<BinOp> {
    Ok(match code {
        0 => BinOp::Add,
        1 => BinOp::Sub,
        2 => BinOp::Mul,
        3 => BinOp::Div,
        4 => BinOp::Rem,
        5 => BinOp::Eq,
        6 => BinOp::Ne,
        7 => BinOp::Lt,
        8 => BinOp::Le,
        9 => BinOp::Gt,
        10 => BinOp::Ge,
        11 => BinOp::And,
        12 => BinOp::Or,
        b => return Err(format!("invalid binop tag {b}")),
    })
}

fn numkind_code(nk: NumKind) -> u8 {
    match nk {
        NumKind::Int => 0,
        NumKind::Long => 1,
        NumKind::Double => 2,
    }
}

fn numkind_from(code: u8) -> ReadResult<NumKind> {
    Ok(match code {
        0 => NumKind::Int,
        1 => NumKind::Long,
        2 => NumKind::Double,
        b => return Err(format!("invalid numkind tag {b}")),
    })
}

fn native_code(op: NativeOp) -> u8 {
    match op {
        NativeOp::StrEquals => 0,
        NativeOp::StrCompareTo => 1,
        NativeOp::StrEqualsIgnoreCase => 2,
        NativeOp::StrCompareToIgnoreCase => 3,
        NativeOp::StrLength => 4,
        NativeOp::StrCharAt => 5,
        NativeOp::StrSubstring => 6,
        NativeOp::StrConcat => 7,
        NativeOp::StrHashCode => 8,
        NativeOp::StrToLowerCase => 9,
        NativeOp::StrIndexOf => 10,
        NativeOp::ObjHashCode => 11,
        NativeOp::ObjEquals => 12,
        NativeOp::ObjToString => 13,
        NativeOp::ToString => 14,
    }
}

fn native_from(code: u8) -> ReadResult<NativeOp> {
    Ok(match code {
        0 => NativeOp::StrEquals,
        1 => NativeOp::StrCompareTo,
        2 => NativeOp::StrEqualsIgnoreCase,
        3 => NativeOp::StrCompareToIgnoreCase,
        4 => NativeOp::StrLength,
        5 => NativeOp::StrCharAt,
        6 => NativeOp::StrSubstring,
        7 => NativeOp::StrConcat,
        8 => NativeOp::StrHashCode,
        9 => NativeOp::StrToLowerCase,
        10 => NativeOp::StrIndexOf,
        11 => NativeOp::ObjHashCode,
        12 => NativeOp::ObjEquals,
        13 => NativeOp::ObjToString,
        14 => NativeOp::ToString,
        b => return Err(format!("invalid native-op tag {b}")),
    })
}

fn write_const(w: &mut ByteWriter, c: &Const) {
    match c {
        Const::Int(x) => {
            w.u8(0);
            w.i32(*x);
        }
        Const::Long(x) => {
            w.u8(1);
            w.i64(*x);
        }
        Const::Double(x) => {
            w.u8(2);
            w.f64(*x);
        }
        Const::Bool(x) => {
            w.u8(3);
            w.bool(*x);
        }
        Const::Char(x) => {
            w.u8(4);
            w.u32(*x as u32);
        }
        Const::Str(s) => {
            w.u8(5);
            w.str(s);
        }
        Const::Null => w.u8(6),
        Const::Void => w.u8(7),
    }
}

fn read_const(r: &mut ByteReader) -> ReadResult<Const> {
    Ok(match r.u8()? {
        0 => Const::Int(r.i32()?),
        1 => Const::Long(r.i64()?),
        2 => Const::Double(r.f64()?),
        3 => Const::Bool(r.bool()?),
        4 => Const::Char(
            char::from_u32(r.u32()?)
                .ok_or_else(|| "invalid char scalar in artifact".to_string())?,
        ),
        5 => Const::Str(std::sync::Arc::from(r.str()?.as_str())),
        6 => Const::Null,
        7 => Const::Void,
        b => return Err(format!("invalid const tag {b}")),
    })
}

fn write_op(w: &mut ByteWriter, op: &Op) {
    match *op {
        Op::Const { dst, k } => {
            w.u8(0);
            w.u16(dst);
            w.u32(k);
        }
        Op::Move { dst, src } => {
            w.u8(1);
            w.u16(dst);
            w.u16(src);
        }
        Op::Jump { target } => {
            w.u8(2);
            w.u32(target);
        }
        Op::JumpIfFalse { cond, target } => {
            w.u8(3);
            w.u16(cond);
            w.u32(target);
        }
        Op::JumpIfTrue { cond, target } => {
            w.u8(4);
            w.u16(cond);
            w.u32(target);
        }
        Op::Return { src } => {
            w.u8(5);
            w.u16(src);
        }
        Op::ReturnVoid => w.u8(6),
        Op::FallOff => w.u8(7),
        Op::Escaped => w.u8(8),
        Op::GetField {
            dst,
            obj,
            class,
            field,
        } => {
            w.u8(9);
            w.u16(dst);
            w.u16(obj);
            w.u32(class.0);
            w.u32(field);
        }
        Op::SetField {
            obj,
            class,
            field,
            src,
        } => {
            w.u8(10);
            w.u16(obj);
            w.u32(class.0);
            w.u32(field);
            w.u16(src);
        }
        Op::GetStatic { dst, class, field } => {
            w.u8(11);
            w.u16(dst);
            w.u32(class.0);
            w.u32(field);
        }
        Op::SetStatic { class, field, src } => {
            w.u8(12);
            w.u32(class.0);
            w.u32(field);
            w.u16(src);
        }
        Op::Arith { dst, op, nk, l, r } => {
            w.u8(13);
            w.u16(dst);
            w.u8(binop_code(op));
            w.u8(numkind_code(nk));
            w.u16(l);
            w.u16(r);
        }
        Op::Cmp { dst, op, nk, l, r } => {
            w.u8(14);
            w.u16(dst);
            w.u8(binop_code(op));
            w.u8(numkind_code(nk));
            w.u16(l);
            w.u16(r);
        }
        Op::RefEq { dst, l, r, negate } => {
            w.u8(15);
            w.u16(dst);
            w.u16(l);
            w.u16(r);
            w.bool(negate);
        }
        Op::Concat { dst, l, r } => {
            w.u8(16);
            w.u16(dst);
            w.u16(l);
            w.u16(r);
        }
        Op::Not { dst, src } => {
            w.u8(17);
            w.u16(dst);
            w.u16(src);
        }
        Op::Neg { dst, src, nk } => {
            w.u8(18);
            w.u16(dst);
            w.u16(src);
            w.u8(numkind_code(nk));
        }
        Op::Widen { dst, src, to } => {
            w.u8(19);
            w.u16(dst);
            w.u16(src);
            write_prim(w, to);
        }
        Op::NewArray { dst, len, elem } => {
            w.u8(20);
            w.u16(dst);
            w.u16(len);
            w.u32(elem);
        }
        Op::ArrayLen { dst, arr } => {
            w.u8(21);
            w.u16(dst);
            w.u16(arr);
        }
        Op::ArrayGet { dst, arr, idx } => {
            w.u8(22);
            w.u16(dst);
            w.u16(arr);
            w.u16(idx);
        }
        Op::ArraySet { arr, idx, src } => {
            w.u8(23);
            w.u16(arr);
            w.u16(idx);
            w.u16(src);
        }
        Op::InstanceOf { dst, src, ty } => {
            w.u8(24);
            w.u16(dst);
            w.u16(src);
            w.u32(ty);
        }
        Op::Cast { dst, src, ty } => {
            w.u8(25);
            w.u16(dst);
            w.u16(src);
            w.u32(ty);
        }
        Op::DefaultValue { dst, ty } => {
            w.u8(26);
            w.u16(dst);
            w.u32(ty);
        }
        Op::Pack { dst, src, spec } => {
            w.u8(27);
            w.u16(dst);
            w.u16(src);
            w.u32(spec);
        }
        Op::Open { dst, src, spec } => {
            w.u8(28);
            w.u16(dst);
            w.u16(src);
            w.u32(spec);
        }
        Op::Print { src, newline } => {
            w.u8(29);
            w.u16(src);
            w.bool(newline);
        }
        Op::CallVirtual {
            dst,
            recv,
            spec,
            site,
        } => {
            w.u8(30);
            w.u16(dst);
            w.u16(recv);
            w.u32(spec);
            w.u32(site);
        }
        Op::CallStatic { dst, spec } => {
            w.u8(31);
            w.u16(dst);
            w.u32(spec);
        }
        Op::CallGlobal { dst, spec } => {
            w.u8(32);
            w.u16(dst);
            w.u32(spec);
        }
        Op::CallModel { dst, spec, site } => {
            w.u8(33);
            w.u16(dst);
            w.u32(spec);
            w.u32(site);
        }
        Op::CallDirect { dst, spec } => {
            w.u8(34);
            w.u16(dst);
            w.u32(spec);
        }
        Op::New { dst, spec } => {
            w.u8(35);
            w.u16(dst);
            w.u32(spec);
        }
        Op::PrimCall { dst, spec } => {
            w.u8(36);
            w.u16(dst);
            w.u32(spec);
        }
        Op::Native { dst, spec } => {
            w.u8(37);
            w.u16(dst);
            w.u32(spec);
        }
    }
}

fn read_op(r: &mut ByteReader) -> ReadResult<Op> {
    Ok(match r.u8()? {
        0 => Op::Const {
            dst: r.u16()?,
            k: r.u32()?,
        },
        1 => Op::Move {
            dst: r.u16()?,
            src: r.u16()?,
        },
        2 => Op::Jump { target: r.u32()? },
        3 => Op::JumpIfFalse {
            cond: r.u16()?,
            target: r.u32()?,
        },
        4 => Op::JumpIfTrue {
            cond: r.u16()?,
            target: r.u32()?,
        },
        5 => Op::Return { src: r.u16()? },
        6 => Op::ReturnVoid,
        7 => Op::FallOff,
        8 => Op::Escaped,
        9 => Op::GetField {
            dst: r.u16()?,
            obj: r.u16()?,
            class: ClassId(r.u32()?),
            field: r.u32()?,
        },
        10 => Op::SetField {
            obj: r.u16()?,
            class: ClassId(r.u32()?),
            field: r.u32()?,
            src: r.u16()?,
        },
        11 => Op::GetStatic {
            dst: r.u16()?,
            class: ClassId(r.u32()?),
            field: r.u32()?,
        },
        12 => Op::SetStatic {
            class: ClassId(r.u32()?),
            field: r.u32()?,
            src: r.u16()?,
        },
        13 => Op::Arith {
            dst: r.u16()?,
            op: binop_from(r.u8()?)?,
            nk: numkind_from(r.u8()?)?,
            l: r.u16()?,
            r: r.u16()?,
        },
        14 => Op::Cmp {
            dst: r.u16()?,
            op: binop_from(r.u8()?)?,
            nk: numkind_from(r.u8()?)?,
            l: r.u16()?,
            r: r.u16()?,
        },
        15 => Op::RefEq {
            dst: r.u16()?,
            l: r.u16()?,
            r: r.u16()?,
            negate: r.bool()?,
        },
        16 => Op::Concat {
            dst: r.u16()?,
            l: r.u16()?,
            r: r.u16()?,
        },
        17 => Op::Not {
            dst: r.u16()?,
            src: r.u16()?,
        },
        18 => Op::Neg {
            dst: r.u16()?,
            src: r.u16()?,
            nk: numkind_from(r.u8()?)?,
        },
        19 => Op::Widen {
            dst: r.u16()?,
            src: r.u16()?,
            to: read_prim(r)?,
        },
        20 => Op::NewArray {
            dst: r.u16()?,
            len: r.u16()?,
            elem: r.u32()?,
        },
        21 => Op::ArrayLen {
            dst: r.u16()?,
            arr: r.u16()?,
        },
        22 => Op::ArrayGet {
            dst: r.u16()?,
            arr: r.u16()?,
            idx: r.u16()?,
        },
        23 => Op::ArraySet {
            arr: r.u16()?,
            idx: r.u16()?,
            src: r.u16()?,
        },
        24 => Op::InstanceOf {
            dst: r.u16()?,
            src: r.u16()?,
            ty: r.u32()?,
        },
        25 => Op::Cast {
            dst: r.u16()?,
            src: r.u16()?,
            ty: r.u32()?,
        },
        26 => Op::DefaultValue {
            dst: r.u16()?,
            ty: r.u32()?,
        },
        27 => Op::Pack {
            dst: r.u16()?,
            src: r.u16()?,
            spec: r.u32()?,
        },
        28 => Op::Open {
            dst: r.u16()?,
            src: r.u16()?,
            spec: r.u32()?,
        },
        29 => Op::Print {
            src: r.u16()?,
            newline: r.bool()?,
        },
        30 => Op::CallVirtual {
            dst: r.u16()?,
            recv: r.u16()?,
            spec: r.u32()?,
            site: r.u32()?,
        },
        31 => Op::CallStatic {
            dst: r.u16()?,
            spec: r.u32()?,
        },
        32 => Op::CallGlobal {
            dst: r.u16()?,
            spec: r.u32()?,
        },
        33 => Op::CallModel {
            dst: r.u16()?,
            spec: r.u32()?,
            site: r.u32()?,
        },
        34 => Op::CallDirect {
            dst: r.u16()?,
            spec: r.u32()?,
        },
        35 => Op::New {
            dst: r.u16()?,
            spec: r.u32()?,
        },
        36 => Op::PrimCall {
            dst: r.u16()?,
            spec: r.u32()?,
        },
        37 => Op::Native {
            dst: r.u16()?,
            spec: r.u32()?,
        },
        b => return Err(format!("invalid op tag {b}")),
    })
}

fn write_types(w: &mut ByteWriter, ts: &[Type]) {
    w.seq(ts.len());
    for t in ts {
        write_type(w, t);
    }
}

fn read_types(r: &mut ByteReader) -> ReadResult<Vec<Type>> {
    let n = r.seq()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(read_type(r)?);
    }
    Ok(out)
}

fn write_models(w: &mut ByteWriter, ms: &[Model]) {
    w.seq(ms.len());
    for m in ms {
        write_model(w, m);
    }
}

fn read_models(r: &mut ByteReader) -> ReadResult<Vec<Model>> {
    let n = r.seq()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(read_model(r)?);
    }
    Ok(out)
}

fn write_regs(w: &mut ByteWriter, regs: &[u16]) {
    w.seq(regs.len());
    for x in regs {
        w.u16(*x);
    }
}

fn read_regs(r: &mut ByteReader) -> ReadResult<Vec<u16>> {
    let n = r.seq()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.u16()?);
    }
    Ok(out)
}

fn write_opt_reg(w: &mut ByteWriter, reg: Option<u16>) {
    match reg {
        Some(x) => {
            w.bool(true);
            w.u16(x);
        }
        None => w.bool(false),
    }
}

fn read_opt_reg(r: &mut ByteReader) -> ReadResult<Option<u16>> {
    Ok(if r.bool()? { Some(r.u16()?) } else { None })
}

fn write_opt_type(w: &mut ByteWriter, t: Option<&Type>) {
    match t {
        Some(t) => {
            w.bool(true);
            write_type(w, t);
        }
        None => w.bool(false),
    }
}

fn read_opt_type(r: &mut ByteReader) -> ReadResult<Option<Type>> {
    Ok(if r.bool()? { Some(read_type(r)?) } else { None })
}

fn write_func_map(w: &mut ByteWriter, map: &HashMap<(u32, u32), FuncId>) {
    let mut keys: Vec<_> = map.keys().copied().collect();
    keys.sort_unstable();
    w.seq(keys.len());
    for k in keys {
        w.u32(k.0);
        w.u32(k.1);
        w.u32(map[&k].0);
    }
}

fn read_func_map(r: &mut ByteReader) -> ReadResult<HashMap<(u32, u32), FuncId>> {
    let n = r.seq()?;
    let mut out = HashMap::with_capacity(n);
    for _ in 0..n {
        out.insert((r.u32()?, r.u32()?), FuncId(r.u32()?));
    }
    Ok(out)
}

/// Serializes `code` into `w`. `rt_types` is recorded only as a presence
/// flag; [`read_program`] recomputes the images against the restored
/// table.
pub fn write_program(w: &mut ByteWriter, code: &VmProgram) {
    w.seq(code.funcs.len());
    for f in &code.funcs {
        w.str(&f.name);
        w.usize(f.num_locals);
        w.usize(f.num_regs);
        w.seq(f.code.len());
        for op in &f.code {
            write_op(w, op);
        }
        w.bool(f.is_void);
    }
    w.seq(code.consts.len());
    for c in &code.consts {
        write_const(w, c);
    }
    write_types(w, &code.types);
    w.seq(code.virt_specs.len());
    for s in &code.virt_specs {
        write_sym(w, s.name);
        w.usize(s.arity);
        write_types(w, &s.targs);
        write_models(w, &s.margs);
        write_regs(w, &s.args);
    }
    w.seq(code.static_specs.len());
    for s in &code.static_specs {
        w.u32(s.class.0);
        w.usize(s.method);
        write_types(w, &s.targs);
        write_models(w, &s.margs);
        write_regs(w, &s.args);
    }
    w.seq(code.global_specs.len());
    for s in &code.global_specs {
        w.usize(s.index);
        write_types(w, &s.targs);
        write_models(w, &s.margs);
        write_regs(w, &s.args);
    }
    w.seq(code.model_specs.len());
    for s in &code.model_specs {
        write_model(w, &s.model);
        write_sym(w, s.name);
        write_opt_reg(w, s.recv);
        write_opt_type(w, s.static_recv.as_ref());
        write_regs(w, &s.args);
        write_opt_type(w, s.recv_ty.as_ref());
        write_types(w, &s.arg_tys);
    }
    w.seq(code.direct_specs.len());
    for s in &code.direct_specs {
        w.u32(s.func.0);
        write_opt_reg(w, s.recv);
        w.bool(s.null_check);
        write_regs(w, &s.args);
    }
    w.seq(code.new_specs.len());
    for s in &code.new_specs {
        w.u32(s.class.0);
        write_types(w, &s.targs);
        write_models(w, &s.models);
        w.usize(s.ctor);
        write_regs(w, &s.args);
    }
    w.seq(code.prim_specs.len());
    for s in &code.prim_specs {
        write_prim(w, s.prim);
        write_sym(w, s.name);
        write_opt_reg(w, s.recv);
        write_regs(w, &s.args);
    }
    w.seq(code.native_specs.len());
    for s in &code.native_specs {
        w.u8(native_code(s.op));
        write_opt_reg(w, s.recv);
        write_regs(w, &s.args);
    }
    w.seq(code.pack_specs.len());
    for s in &code.pack_specs {
        write_types(w, &s.types);
        write_models(w, &s.models);
    }
    w.seq(code.open_specs.len());
    for s in &code.open_specs {
        w.seq(s.tvs.len());
        for t in &s.tvs {
            w.u32(t.0);
        }
        w.seq(s.mvs.len());
        for m in &s.mvs {
            w.u32(m.0);
        }
    }
    write_func_map(w, &code.methods);
    write_func_map(w, &code.ctors);
    {
        let mut keys: Vec<_> = code.globals.keys().copied().collect();
        keys.sort_unstable();
        w.seq(keys.len());
        for k in keys {
            w.u32(k);
            w.u32(code.globals[&k].0);
        }
    }
    write_func_map(w, &code.model_methods);
    write_func_map(w, &code.field_inits);
    w.seq(code.static_inits.len());
    for (cid, fi, f) in &code.static_inits {
        w.u32(cid.0);
        w.usize(*fi);
        w.u32(f.0);
    }
    w.usize(code.num_sites);
    w.usize(code.num_model_sites);
    w.bool(!code.rt_types.is_empty());
    let st = &code.opt_stats;
    w.u8(st.level);
    w.usize(st.funcs_specialized);
    w.usize(st.calls_directed);
    w.usize(st.call_model_devirted);
    w.usize(st.budget_fallbacks);
    w.usize(st.dynamic_fallbacks);
    w.usize(st.consts_folded);
    w.usize(st.branches_folded);
    w.usize(st.moves_coalesced);
    w.usize(st.ops_eliminated);
    // `types_reified` is intentionally not persisted: the reification
    // pass recounts it on load.
}

/// Restores a [`VmProgram`] serialized by [`write_program`], recomputing
/// `rt_types` against `prog` (whose table must be the one this bytecode
/// was compiled against — the persist layer guarantees that by keying
/// artifacts on the source fingerprint).
pub fn read_program(r: &mut ByteReader, prog: &CheckedProgram) -> ReadResult<VmProgram> {
    let mut code = VmProgram::default();
    let n = r.seq()?;
    code.funcs.reserve(n);
    for _ in 0..n {
        let name = r.str()?;
        let num_locals = r.usize()?;
        let num_regs = r.usize()?;
        let len = r.seq()?;
        let mut ops = Vec::with_capacity(len);
        for _ in 0..len {
            ops.push(read_op(r)?);
        }
        code.funcs.push(VmFunc {
            name,
            num_locals,
            num_regs,
            code: ops,
            is_void: r.bool()?,
        });
    }
    let n = r.seq()?;
    code.consts.reserve(n);
    for _ in 0..n {
        code.consts.push(read_const(r)?);
    }
    code.types = read_types(r)?;
    let n = r.seq()?;
    code.virt_specs.reserve(n);
    for _ in 0..n {
        code.virt_specs.push(VirtSpec {
            name: read_sym(r)?,
            arity: r.usize()?,
            targs: read_types(r)?,
            margs: read_models(r)?,
            args: read_regs(r)?,
        });
    }
    let n = r.seq()?;
    code.static_specs.reserve(n);
    for _ in 0..n {
        code.static_specs.push(StaticSpec {
            class: ClassId(r.u32()?),
            method: r.usize()?,
            targs: read_types(r)?,
            margs: read_models(r)?,
            args: read_regs(r)?,
        });
    }
    let n = r.seq()?;
    code.global_specs.reserve(n);
    for _ in 0..n {
        code.global_specs.push(GlobalSpec {
            index: r.usize()?,
            targs: read_types(r)?,
            margs: read_models(r)?,
            args: read_regs(r)?,
        });
    }
    let n = r.seq()?;
    code.model_specs.reserve(n);
    for _ in 0..n {
        code.model_specs.push(ModelSpec {
            model: read_model(r)?,
            name: read_sym(r)?,
            recv: read_opt_reg(r)?,
            static_recv: read_opt_type(r)?,
            args: read_regs(r)?,
            recv_ty: read_opt_type(r)?,
            arg_tys: read_types(r)?,
        });
    }
    let n = r.seq()?;
    code.direct_specs.reserve(n);
    for _ in 0..n {
        code.direct_specs.push(DirectSpec {
            func: FuncId(r.u32()?),
            recv: read_opt_reg(r)?,
            null_check: r.bool()?,
            args: read_regs(r)?,
        });
    }
    let n = r.seq()?;
    code.new_specs.reserve(n);
    for _ in 0..n {
        code.new_specs.push(NewSpec {
            class: ClassId(r.u32()?),
            targs: read_types(r)?,
            models: read_models(r)?,
            ctor: r.usize()?,
            args: read_regs(r)?,
        });
    }
    let n = r.seq()?;
    code.prim_specs.reserve(n);
    for _ in 0..n {
        code.prim_specs.push(PrimSpec {
            prim: read_prim(r)?,
            name: read_sym(r)?,
            recv: read_opt_reg(r)?,
            args: read_regs(r)?,
        });
    }
    let n = r.seq()?;
    code.native_specs.reserve(n);
    for _ in 0..n {
        code.native_specs.push(NativeSpec {
            op: native_from(r.u8()?)?,
            recv: read_opt_reg(r)?,
            args: read_regs(r)?,
        });
    }
    let n = r.seq()?;
    code.pack_specs.reserve(n);
    for _ in 0..n {
        code.pack_specs.push(PackSpec {
            types: read_types(r)?,
            models: read_models(r)?,
        });
    }
    let n = r.seq()?;
    code.open_specs.reserve(n);
    for _ in 0..n {
        let tn = r.seq()?;
        let mut tvs = Vec::with_capacity(tn);
        for _ in 0..tn {
            tvs.push(TvId(r.u32()?));
        }
        let mn = r.seq()?;
        let mut mvs = Vec::with_capacity(mn);
        for _ in 0..mn {
            mvs.push(MvId(r.u32()?));
        }
        code.open_specs.push(OpenSpec { tvs, mvs });
    }
    code.methods = read_func_map(r)?;
    code.ctors = read_func_map(r)?;
    let n = r.seq()?;
    code.globals.reserve(n);
    for _ in 0..n {
        let k = r.u32()?;
        code.globals.insert(k, FuncId(r.u32()?));
    }
    code.model_methods = read_func_map(r)?;
    code.field_inits = read_func_map(r)?;
    let n = r.seq()?;
    code.static_inits.reserve(n);
    for _ in 0..n {
        code.static_inits
            .push((ClassId(r.u32()?), r.usize()?, FuncId(r.u32()?)));
    }
    code.num_sites = r.usize()?;
    code.num_model_sites = r.usize()?;
    let had_rt = r.bool()?;
    code.opt_stats = OptStats {
        level: r.u8()?,
        funcs_specialized: r.usize()?,
        calls_directed: r.usize()?,
        call_model_devirted: r.usize()?,
        budget_fallbacks: r.usize()?,
        dynamic_fallbacks: r.usize()?,
        consts_folded: r.usize()?,
        branches_folded: r.usize()?,
        moves_coalesced: r.usize()?,
        ops_eliminated: r.usize()?,
        types_reified: 0,
    };
    if had_rt {
        crate::opt::reify_types(&mut code, prog);
    }
    Ok(code)
}

#[cfg(test)]
mod tests {
    use super::*;
    use genus_check::check_sources_report;

    fn compile(src: &str, level: u8) -> (CheckedProgram, VmProgram) {
        let mut report = check_sources_report(&[("t.genus", src)]);
        let prog = report.program.take().expect("test program must check");
        let code = crate::compile_optimized(&prog, level);
        (prog, code)
    }

    const SRC: &str = "
        constraint Ord[T] { boolean T.before(T other); }
        model IntOrd for Ord[int] {
          boolean before(int other) { return this < other; }
        }
        class Box[T] {
          T v;
          Box(T v) { this.v = v; }
          T get() { return this.v; }
        }
        int count[T](T[] xs, T p) where Ord[T] {
          int n = 0;
          for (int i = 0; i < xs.length; i = i + 1) {
            if (xs[i].before(p)) { n = n + 1; }
          }
          return n;
        }
        int main() {
          int[] xs = new int[16];
          for (int i = 0; i < 16; i = i + 1) { xs[i] = (i * 7) % 11; }
          Box[int] b = new Box[int](count[int with IntOrd](xs, 6));
          String s = \"x\" + b.get();
          return b.get() + s.length();
        }";

    #[test]
    fn program_round_trips_and_runs_identically() {
        for level in [0u8, 2] {
            let (prog, code) = compile(SRC, level);
            let mut w = ByteWriter::new();
            write_program(&mut w, &code);
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes);
            let restored = read_program(&mut r, &prog).expect("round trip");
            assert_eq!(r.remaining(), 0, "no trailing bytes");
            assert_eq!(restored.funcs.len(), code.funcs.len());
            assert_eq!(restored.consts, code.consts);
            assert_eq!(restored.types, code.types);
            assert_eq!(restored.num_sites, code.num_sites);
            assert_eq!(restored.rt_types.len(), code.rt_types.len());
            assert_eq!(
                restored.opt_stats.types_reified,
                code.opt_stats.types_reified
            );

            // Same serialized image from the restored program: the codec
            // is deterministic even across HashMap iteration orders.
            let mut w2 = ByteWriter::new();
            write_program(&mut w2, &restored);
            assert_eq!(w2.into_bytes(), bytes);

            // And the restored program runs to the same answer.
            let direct = {
                let mut vm = crate::Vm::with_code(&prog, std::sync::Arc::new(code));
                let v = vm.run_main().expect("runs");
                vm.render(&v)
            };
            let loaded = {
                let mut vm = crate::Vm::with_code(&prog, std::sync::Arc::new(restored));
                let v = vm.run_main().expect("runs");
                vm.render(&v)
            };
            assert_eq!(direct, loaded);
        }
    }

    #[test]
    fn truncated_program_is_an_error() {
        let (_prog, code) = compile(SRC, 2);
        let mut w = ByteWriter::new();
        write_program(&mut w, &code);
        let bytes = w.into_bytes();
        let empty_prog = CheckedProgram::from_table(genus_types::Table::new());
        for cut in [0, 1, 7, bytes.len() / 3, bytes.len() - 1] {
            let mut r = ByteReader::new(&bytes[..cut]);
            assert!(
                read_program(&mut r, &empty_prog).is_err(),
                "cut at {cut} must be rejected"
            );
        }
    }
}

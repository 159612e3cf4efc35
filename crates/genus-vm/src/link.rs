//! Segmented code generation, and linking programs against prebuilt
//! library code.
//!
//! A program is lowered and optimized in *segments*: first the bodies of
//! its library files (the prelude and any library units loaded ahead of
//! user code, see [`genus_types::Table::set_library_files`]), then the
//! rest. Each segment is lowered, specialized and cleaned up before the
//! next begins, and appends to the tables the earlier ones filled: the
//! constant pool, the spec tables, the call-site counters, the function
//! list, and the specializer's clone memo and budget. Library code never
//! refers to user declarations, so the library segment comes out the same
//! whatever follows it.
//!
//! That makes the library segment reusable. [`Codegen::library`]
//! generates it, and [`resume`] — the one linking function — generates a
//! program's own segment on a copy of it. A whole compile
//! ([`crate::compile_optimized`]) is `resume` on the program's own
//! library segment, so resuming from a segment generated for an equal
//! library gives identical bytecode — function ids, spec tables,
//! specialization decisions and budget included. Two callers keep a
//! segment:
//!
//! | segment | generated | resumed by |
//! |---|---|---|
//! | [`stdlib_code`] | once per process and level, from the stdlib base ([`genus_check::base`]) | [`link_to_stdlib`], for programs that [`CheckedProgram::extends_stdlib_base`] |
//! | a session's | by [`crate::session::CompileSession`], keyed by [`genus_check::Session::library_fingerprint`] and level | [`crate::run::Compiled`] holders the session hands it to |
//!
//! [`crate::run::Compiled`] picks among them and a whole compile.

use crate::bytecode::VmProgram;
use crate::compile::{lower_segment, ConstIndex};
use crate::opt::cleanup::cleanup_from;
use crate::opt::reify_types_from;
use crate::opt::specialize::{specialize_from, SpecState};
use genus_check::CheckedProgram;
use std::ops::Range;
use std::sync::OnceLock;

/// Code generation state between segments.
#[derive(Debug, Clone)]
pub struct Codegen {
    code: VmProgram,
    consts: ConstIndex,
    spec: SpecState,
    level: u8,
}

impl Codegen {
    /// Nothing generated yet, optimizing at `level` (clamped to `0..=2`).
    #[must_use]
    pub fn new(level: u8) -> Codegen {
        let level = level.min(2);
        let mut code = VmProgram::default();
        code.opt_stats.level = level;
        Codegen {
            code,
            consts: ConstIndex::default(),
            spec: SpecState::default(),
            level,
        }
    }

    /// The library segment of `prog` at `level` (clamped to `0..=2`):
    /// the code of its library files, ready to [`resume`] from.
    #[must_use]
    pub fn library(prog: &CheckedProgram, level: u8) -> Codegen {
        let mut cg = Codegen::new(level);
        let lib = prog.table.library_files();
        if lib > 0 {
            cg.segment(prog, 0..lib);
        }
        cg
    }

    /// The optimization level the code is generated at.
    #[must_use]
    pub fn level(&self) -> u8 {
        self.level
    }

    /// Lowers the bodies of `prog` owned by `files`, then specializes
    /// (level 2), cleans up and reifies types (level ≥ 1) the new code.
    fn segment(&mut self, prog: &CheckedProgram, files: Range<u32>) {
        let first_func = self.code.funcs.len();
        let first_type = self.code.types.len();
        lower_segment(&mut self.code, &mut self.consts, prog, &files);
        if self.level >= 2 {
            specialize_from(&mut self.code, prog, &mut self.spec, first_func);
        }
        if self.level >= 1 {
            cleanup_from(&mut self.code, first_func);
            reify_types_from(&mut self.code, prog, first_type);
        }
    }
}

/// Generates `prog`'s own segment on `lib` and returns the finished
/// program. `lib` must be a library segment ([`Codegen::library`]) of a
/// program whose library files check to the same bodies over the same
/// definitions as `prog`'s; the result is then equal to
/// [`crate::compile_optimized`]`(prog, lib.level())`, without lowering or
/// optimizing the library again.
#[must_use]
pub fn resume(mut lib: Codegen, prog: &CheckedProgram) -> VmProgram {
    lib.segment(prog, prog.table.library_files()..u32::MAX);
    lib.code
}

/// Lowers and optimizes `prog` at `level`, segment by segment.
pub(crate) fn compile_segmented(prog: &CheckedProgram, level: u8) -> VmProgram {
    resume(Codegen::library(prog, level), prog)
}

/// The stdlib base's library segment at `level` (clamped to `0..=2`),
/// generated on first use and kept for the life of the process; `None`
/// if the base did not check.
pub fn stdlib_code(level: u8) -> Option<&'static Codegen> {
    static CODE: [OnceLock<Option<Codegen>>; 3] =
        [OnceLock::new(), OnceLock::new(), OnceLock::new()];
    let level = level.min(2);
    CODE[usize::from(level)]
        .get_or_init(|| {
            let prog = genus_check::base::stdlib_base().program()?;
            Some(Codegen::library(prog, level))
        })
        .as_ref()
}

/// Generates the code of a program built by
/// [`genus_check::base::StdlibBase::extend`]: [`resume`] from a copy of
/// [`stdlib_code`].
///
/// # Panics
///
/// If the stdlib base did not check (no program can extend it then).
#[must_use]
pub fn link_to_stdlib(prog: &CheckedProgram, level: u8) -> VmProgram {
    let lib = stdlib_code(level).expect("only programs extending a checked stdlib base are linked");
    resume(lib.clone(), prog)
}

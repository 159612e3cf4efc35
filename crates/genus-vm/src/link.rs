//! Segmented code generation, and linking programs against the stdlib's
//! prebuilt code.
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
//! That makes the library segment reusable: [`stdlib_code`] generates it
//! once per process and optimization level from the stdlib base
//! ([`genus_check::base`]), and [`link_to_stdlib`] resumes from a copy of
//! it to generate only a program's own segment. For a program built by
//! [`genus_check::base::StdlibBase::extend`] the result is identical —
//! function ids, spec tables, specialization decisions and budget
//! included — to [`crate::compile_optimized`] on the same program.
//! [`crate::run::Compiled`] links exactly the programs that say they
//! extend the process-wide base
//! ([`CheckedProgram::extends_stdlib_base`]) and compiles the rest.

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

    /// Lowers the bodies of `prog` owned by `files`, then specializes
    /// (level 2), cleans up and reifies types (level ≥ 1) the new code.
    pub fn segment(&mut self, prog: &CheckedProgram, files: Range<u32>) {
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

    /// The finished program.
    #[must_use]
    pub fn into_program(self) -> VmProgram {
        self.code
    }
}

/// The library files, then everything else; one segment for a program
/// without a library.
fn segments(prog: &CheckedProgram) -> impl Iterator<Item = Range<u32>> {
    let lib = prog.table.library_files();
    [0..lib, lib..u32::MAX]
        .into_iter()
        .filter(|r| !r.is_empty())
}

/// Lowers and optimizes `prog` at `level`, segment by segment.
pub(crate) fn compile_segmented(prog: &CheckedProgram, level: u8) -> VmProgram {
    let mut cg = Codegen::new(level);
    for files in segments(prog) {
        cg.segment(prog, files);
    }
    cg.into_program()
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
            let base = genus_check::base::stdlib_base();
            let prog = base.program()?;
            let mut cg = Codegen::new(level);
            cg.segment(prog, 0..base.library_files());
            Some(cg)
        })
        .as_ref()
}

/// Generates the code of a program built by
/// [`genus_check::base::StdlibBase::extend`]: a copy of the stdlib's
/// prebuilt segment plus the program's own. Equal to
/// [`crate::compile_optimized`]`(prog, level)`, without lowering or
/// optimizing the stdlib again.
///
/// # Panics
///
/// If the stdlib base did not check (no program can extend it then).
#[must_use]
pub fn link_to_stdlib(prog: &CheckedProgram, level: u8) -> VmProgram {
    let mut cg = stdlib_code(level)
        .expect("only programs extending a checked stdlib base are linked")
        .clone();
    cg.segment(prog, prog.table.library_files()..u32::MAX);
    cg.into_program()
}

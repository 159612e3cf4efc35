//! Incremental compile sessions with a per-session code cache.
//!
//! A [`CompileSession`] wraps the demand-driven [`genus_check::Session`]
//! with the two pieces the checker crate cannot provide itself:
//!
//! 1. **Stdlib seeding.** The standard library's units are registered as
//!    always-visible modules and their parse trees come from a
//!    process-wide memo ([`genus_check::base::stdlib_parses`]) — parsed
//!    once per process, at
//!    the exact file ids every seeded session assigns them, so the
//!    memoized spans are valid everywhere. This is what makes repeated
//!    `Compiler::check_report` calls stop re-parsing four stdlib files
//!    per call.
//! 2. **Engine caching.** The program's compiled code (one
//!    [`Compiled`] holder: bytecode and Tier-2 closures) is kept per
//!    session, keyed by the session's *generation* counter — a number
//!    that changes whenever a re-check may have changed the checked
//!    program. Re-running an unchanged program skips bytecode
//!    compilation entirely; editing a body invalidates exactly once.
//! 3. **The library segment.** Below the holder the session keeps one
//!    slot: the code of the program's library files (prelude and
//!    stdlib, lowered and optimized — see [`crate::link`]), keyed by
//!    [`Session::library_fingerprint`] and the opt level. Each new
//!    generation's holder resumes from it, so an edit lowers and
//!    optimizes only the user units. The slot is rebuilt when an edit
//!    changes what the library's verdicts depend on (a model, `use`,
//!    `enrich`, a class header, a top-level name) or the level changes,
//!    and is built only when a VM or Tier-2 run needs bytecode — an
//!    AST-only session builds none. Resumed bytecode equals a whole
//!    compile's, because a whole compile is the same two segments.
//!
//! The facade (`genus::CompileSession`, `genus check --watch`) and
//! genus-serve's sessionful requests both run on it.
//!
//! ```
//! use genus_vm::session::CompileSession;
//!
//! let mut s = CompileSession::with_stdlib();
//! s.update_source("main.genus", "int main() { return 41; }");
//! assert!(!s.check().has_errors());
//! s.update_source("main.genus", "int main() { return 42; }");
//! let report = s.check();
//! assert!(!report.has_errors());
//! // The stdlib and prelude were not re-checked for a main-only edit.
//! assert!(report.stats.units_not_rechecked() >= 5);
//! ```

use crate::link::Codegen;
use crate::run::{
    execute_ast_shared, finish, with_big_stack, Compiled, Engine, Execution, RunResult,
};
use crate::VmProgram;
use genus_check::{CheckReport, CheckedProgram, Session, SessionReport, SessionStats};
use genus_common::{diag, Diagnostic, ErrorFormat, SourceMap};
use genus_interp::Limits;
use std::sync::Arc;

/// Cumulative counters of a session's code work: how often a run built
/// or reused its engine's code, and how often new bytecode resumed from
/// a kept library segment instead of generating one.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CodeStats {
    /// VM and Tier-2 runs that built the code their engine runs.
    pub builds: u64,
    /// VM and Tier-2 runs that found it already built.
    pub reuses: u64,
    /// Library segments generated.
    pub library_builds: u64,
    /// Bytecode builds that resumed from the kept library segment.
    pub library_reuses: u64,
}

/// A long-lived, editable compilation pipeline: named units go in via
/// [`update_source`](CompileSession::update_source), diagnostics and
/// runnable programs come out of [`check`](CompileSession::check) and
/// [`execute`](CompileSession::execute), and everything in between —
/// parse trees, the semantic prefix, per-unit verdicts, compiled
/// bytecode — is memoized by content hashes so an edit re-derives only
/// what the edit could have changed.
pub struct CompileSession {
    inner: Session,
    opt_level: u8,
    /// The compiled code of the current program, keyed by the session
    /// generation it belongs to.
    code: Option<(u64, Compiled)>,
    /// The library segment last generated, keyed by the library
    /// fingerprint it was generated for (its level is its own).
    library: Option<(u64, Arc<Codegen>)>,
    /// Whether the last run found its engine's compiled code cached.
    code_reused: bool,
    code_stats: CodeStats,
}

impl Default for CompileSession {
    fn default() -> Self {
        CompileSession::new()
    }
}

impl CompileSession {
    /// A session containing only the built-in prelude.
    pub fn new() -> Self {
        CompileSession {
            inner: Session::new(),
            opt_level: 2,
            code: None,
            library: None,
            code_reused: false,
            code_stats: CodeStats::default(),
        }
    }

    /// A session pre-loaded with the standard library as always-visible
    /// modules, their parses seeded from the process-wide memo.
    pub fn with_stdlib() -> Self {
        CompileSession {
            inner: genus_check::base::stdlib_session(),
            ..CompileSession::new()
        }
    }

    /// Selects the bytecode optimization level for [`execute`](CompileSession::execute)
    /// (default 2; see the facade's `Compiler::opt_level`).
    pub fn opt_level(&mut self, level: u8) {
        let level = level.min(2);
        if level != self.opt_level {
            self.opt_level = level;
            self.code = None;
        }
    }

    /// Adds or replaces the source text of the unit named `name`.
    pub fn update_source(&mut self, name: &str, src: &str) {
        self.inner.update_source(name, src);
    }

    /// Whether `name` is a library unit (the prelude, or a stdlib unit
    /// of a [`with_stdlib`](CompileSession::with_stdlib) session), which
    /// callers must not replace.
    pub fn is_library_unit(&self, name: &str) -> bool {
        self.inner.is_library_unit(name)
    }

    /// Re-derives diagnostics for the current sources, reusing memoized
    /// parses and verdicts where content hashes allow.
    pub fn check(&mut self) -> SessionReport {
        self.inner.check()
    }

    /// Cumulative reuse statistics over the session's lifetime.
    pub fn stats(&self) -> SessionStats {
        self.inner.stats()
    }

    /// Changes whenever a check may have changed the runnable program.
    pub fn generation(&self) -> u64 {
        self.inner.generation()
    }

    /// The session's source map, for rendering diagnostics.
    pub fn sm(&self) -> &SourceMap {
        self.inner.sm()
    }

    /// The diagnostics of the last check, in normalized order.
    pub fn last_diags(&self) -> &[Diagnostic] {
        self.inner.last_diags()
    }

    /// The checked program of the last check, when it had no errors.
    pub fn program(&self) -> Option<&CheckedProgram> {
        self.inner.program()
    }

    /// Collapses the session into a one-shot [`CheckReport`], checking
    /// first if no check has run yet.
    pub fn into_report(self) -> CheckReport {
        self.inner.into_report()
    }

    /// Renders the last check's diagnostics (errors and warnings alike)
    /// in `format`, joined the way [`CheckReport::render`] joins them.
    pub fn render_diags(&self, format: ErrorFormat) -> String {
        diag::render_diags(self.inner.last_diags(), self.inner.sm(), format)
    }

    /// Renders only the last check's errors in the classic one-line mode —
    /// the same shape the facade's `Compiler::run` puts in its `Err`.
    pub fn render_errors_short(&self) -> String {
        diag::render_errors_short(self.inner.last_diags(), self.inner.sm())
    }

    /// Checks, then runs `main()` on `engine`, reusing compiled bytecode
    /// when nothing changed since the last run.
    ///
    /// # Errors
    ///
    /// Returns the diagnostics (rendered in the classic short format) when
    /// the current sources do not check.
    pub fn execute(&mut self, engine: Engine, limits: Limits) -> Result<Execution, String> {
        if self.inner.check().has_errors() {
            return Err(self.render_errors_short());
        }
        Ok(self.execute_checked(engine, limits))
    }

    /// Runs `main()` of the last check's program on `engine`, without
    /// checking again, reusing compiled code when the generation still
    /// matches and the library segment when the library fingerprint and
    /// the level still match.
    ///
    /// # Panics
    ///
    /// When the last check had errors (or no check has run).
    pub fn execute_checked(&mut self, engine: Engine, limits: Limits) -> Execution {
        let prog = self
            .inner
            .program()
            .expect("no errors implies a checked program");
        if engine == Engine::Ast {
            self.code_reused = false;
            return with_big_stack(|| execute_ast_shared(prog, limits));
        }
        let generation = self.inner.generation();
        let code = match &mut self.code {
            Some((g, code)) if *g == generation => code,
            slot => {
                let lib = library_segment(
                    &mut self.library,
                    &mut self.code_stats,
                    &self.inner,
                    self.opt_level,
                );
                &slot.insert((generation, Compiled::with_library(lib))).1
            }
        };
        self.code_reused = code.built(engine);
        if self.code_reused {
            self.code_stats.reuses += 1;
        } else {
            self.code_stats.builds += 1;
        }
        code.execute(prog, engine, limits)
    }

    /// Cumulative counters of the session's code work.
    pub fn code_stats(&self) -> CodeStats {
        self.code_stats
    }

    /// The bytecode of the current program, if a VM or Tier-2 run has
    /// built it since the last change.
    pub fn built_code(&self) -> Option<Arc<VmProgram>> {
        match &self.code {
            Some((g, code)) if *g == self.inner.generation() && code.built(Engine::Vm) => {
                Some(code.vm_code(self.inner.program()?))
            }
            _ => None,
        }
    }

    /// Whether the last run reused the compiled code its engine needs
    /// (bytecode on the VM, closures on Tier 2) instead of compiling it.
    /// Always `false` after an AST run.
    pub fn code_reused(&self) -> bool {
        self.code_reused
    }

    /// [`execute`](CompileSession::execute) collapsed to the value/output
    /// pair, like the facade's `Compiler::run`.
    ///
    /// # Errors
    ///
    /// Returns rendered diagnostics or the runtime error message.
    pub fn run(&mut self, engine: Engine, limits: Limits) -> Result<RunResult, String> {
        finish(self.execute(engine, limits)?)
    }
}

/// The library segment of `session`'s checked program at `level`: the
/// one in `slot` while the library fingerprint and the level still match,
/// else a new one, kept in `slot` in its place.
fn library_segment(
    slot: &mut Option<(u64, Arc<Codegen>)>,
    stats: &mut CodeStats,
    session: &Session,
    level: u8,
) -> Arc<Codegen> {
    let fp = session
        .library_fingerprint()
        .expect("a clean check has a library fingerprint");
    match slot {
        Some((f, lib)) if *f == fp && lib.level() == level => {
            stats.library_reuses += 1;
            Arc::clone(lib)
        }
        _ => {
            stats.library_builds += 1;
            let prog = session.program().expect("a clean check has a program");
            let lib = Arc::new(Codegen::library(prog, level));
            *slot = Some((fp, Arc::clone(&lib)));
            lib
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stdlib_seeding_skips_reparsing() {
        let mut s = CompileSession::with_stdlib();
        s.update_source("main.genus", "int main() { return 1; }");
        s.check();
        let stats = s.stats();
        // Only the user unit was a parse-cache miss: prelude and stdlib
        // came from process-wide memos.
        assert_eq!(stats.parse_new, 1, "{stats:?}");
    }

    #[test]
    fn body_edit_reuses_compiled_stdlib_verdicts() {
        let mut s = CompileSession::with_stdlib();
        s.update_source(
            "main.genus",
            "int main() { ArrayList[int] l = new ArrayList[int](); l.add(40); return l.get(0); }",
        );
        let r1 = s.run(Engine::Vm, Limits::default()).unwrap();
        assert_eq!(r1.rendered_value, "40");
        s.update_source(
            "main.genus",
            "int main() { ArrayList[int] l = new ArrayList[int](); l.add(42); return l.get(0); }",
        );
        let r2 = s.run(Engine::Vm, Limits::default()).unwrap();
        assert_eq!(r2.rendered_value, "42");
        let stats = s.stats();
        assert!(stats.units_not_rechecked() > 0, "{stats:?}");
    }

    #[test]
    fn unchanged_rerun_reuses_bytecode() {
        let mut s = CompileSession::new();
        s.update_source("m.genus", "int main() { return 6 * 7; }");
        s.run(Engine::Vm, Limits::default()).unwrap();
        let gen1 = s.generation();
        let vm_code = |s: &CompileSession| {
            let (_, code) = s.code.as_ref().expect("code kept after a run");
            std::sync::Arc::as_ptr(&code.vm_code(s.program().expect("checked")))
        };
        let code1 = vm_code(&s);
        s.run(Engine::Vm, Limits::default()).unwrap();
        assert_eq!(s.generation(), gen1, "no-op re-check must not bump");
        let code2 = vm_code(&s);
        assert_eq!(code1, code2, "bytecode must be reused across reruns");
        assert!(s.code_reused());
        // An edit invalidates the cached bytecode.
        s.update_source("m.genus", "int main() { return 6 * 8; }");
        let r = s.run(Engine::Vm, Limits::default()).unwrap();
        assert_eq!(r.rendered_value, "48");
        assert!(!s.code_reused());
        assert_ne!(s.generation(), gen1);
    }

    #[test]
    fn all_engines_agree_in_session() {
        for engine in [Engine::Ast, Engine::Vm, Engine::Jit] {
            let mut s = CompileSession::with_stdlib();
            s.update_source(
                "main.genus",
                "int main() { ArrayList[int] l = new ArrayList[int](); l.add(7); return l.get(0) * 6; }",
            );
            let r = s.run(engine, Limits::default()).unwrap();
            assert_eq!(r.rendered_value, "42", "{engine:?}");
        }
    }
}

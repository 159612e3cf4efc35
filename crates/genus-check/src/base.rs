//! The stdlib base: the prelude and the standard library parsed, checked
//! and frozen once per process, then *extended* by single-unit programs.
//!
//! A stateless request that runs against the stdlib would otherwise
//! re-check the whole library for every distinct program, although its
//! verdicts cannot change: Genus resolves default models through the
//! declarations in scope (§4.4), and a client unit can reach a library
//! body only through a few channels. [`StdlibBase::extend`] checks just
//! the client unit on top of a fork of the frozen base, after a guard has
//! ruled every channel out; when one is open it reports a [`Fallback`]
//! and the caller checks the whole program instead
//! ([`check_with_stdlib`]).
//!
//! The extension reproduces the whole-program check exactly: the same
//! diagnostics, and a [`CheckedProgram`] with the same class, constraint,
//! model and global ids, the same type- and model-variable ids and the
//! same spans. Two things make that hold:
//!
//! - the library is units `0..=N` (prelude, then the stdlib in
//!   [`genus_stdlib::sources`] order) in both, so declarations of the
//!   client unit get the ids right after the library's;
//! - type and model variables of library files are numbered in a space of
//!   their own ([`Table::set_library_files`]), so whether the checker's
//!   phases visit library and client declarations interleaved (whole
//!   program) or one after the other (extension) cannot shift an id.

use crate::collect;
use crate::entail::prereq_closure;
use crate::incremental::Session;
use crate::multimethod::visible_methods;
use crate::resolve::{fork_cache, fork_table, record_declared_fallbacks};
use crate::{
    check_bodies_filter, check_declarations, complete_signatures, prelude, CheckReport,
    CheckedProgram, DeclCounts,
};
use genus_common::{Diagnostics, FileId, Severity, SourceMap, Symbol};
use genus_syntax::ast;
use genus_syntax::memo::{parse_unit, ParsedUnit};
use genus_syntax::{lex, TokenKind};
use genus_types::{ClassId, ConstraintId, ModelId, Table, Type};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, OnceLock};

/// The stdlib's parse trees, memoized once per process. Parsed against a
/// scratch source map with the layout of every stdlib-seeded session —
/// prelude at file 0, stdlib units at `1..=N` in [`genus_stdlib::sources`]
/// order — so the spans inside the trees are valid in any session that
/// registers the stdlib first.
pub fn stdlib_parses() -> &'static [(&'static str, Arc<ParsedUnit>)] {
    static PARSES: OnceLock<Vec<(&'static str, Arc<ParsedUnit>)>> = OnceLock::new();
    PARSES.get_or_init(|| {
        let mut sm = SourceMap::new();
        sm.add_file(prelude::PRELUDE_NAME, prelude::PRELUDE);
        genus_stdlib::sources()
            .iter()
            .map(|(name, src)| {
                let file = sm.add_file(*name, *src);
                (*name, Arc::new(parse_unit(&sm, file, name)))
            })
            .collect()
    })
}

/// The stdlib units after the prelude: names, texts and memoized parses.
fn stdlib_units() -> impl Iterator<Item = (&'static str, &'static str, &'static Arc<ParsedUnit>)> {
    let units = genus_stdlib::sources().iter().zip(stdlib_parses());
    units.map(|((name, src), (_, parsed))| (*name, *src, parsed))
}

/// A fresh session with the stdlib registered as always-visible library
/// units, their parses seeded from [`stdlib_parses`].
pub fn stdlib_session() -> Session {
    library_session(stdlib_units())
}

/// A fresh session with `units` registered as always-visible library
/// units after the prelude, their parses seeded.
fn library_session<'a>(
    units: impl Iterator<Item = (&'a str, &'a str, &'a Arc<ParsedUnit>)>,
) -> Session {
    let mut s = Session::new();
    for (name, src, parsed) in units {
        s.add_unit(name, src, &[], true);
        s.seed_parse(name, Arc::clone(parsed));
    }
    s
}

/// The whole-program check of one unit against the stdlib: a cold
/// [`stdlib_session`] with the unit added. This is what `genus run`
/// checks, and what [`StdlibBase::extend`] reproduces.
pub fn check_with_stdlib(name: &str, src: &str) -> CheckReport {
    check_whole_over(stdlib_units(), name, src)
}

/// The whole-program check of the unit `name` against the library
/// `units`: a cold [`library_session`] with the unit added.
fn check_whole_over<'a>(
    units: impl Iterator<Item = (&'a str, &'a str, &'a Arc<ParsedUnit>)>,
    name: &str,
    src: &str,
) -> CheckReport {
    let mut s = library_session(units);
    s.update_source(name, src);
    s.into_report()
}

/// Why a unit cannot extend the base: the channel through which its
/// declarations could change a verdict of library code. Each makes the
/// caller check the whole program instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fallback {
    /// The base itself reported diagnostics, so no verdict is frozen.
    BaseDiagnostics,
    /// The unit declares `import`s (checked against the session's
    /// module graph, which only the whole-program path builds).
    Import,
    /// A `use` declaration enables its model for default resolution
    /// everywhere, library bodies and signatures included.
    Use,
    /// An `enrich` of a library model adds methods to it.
    Enrich(Symbol),
    /// The unit declares a name that library code could resolve to it:
    /// any name the library declares, in any namespace, and a type,
    /// constraint or model named like any identifier of the library's
    /// text (a bare receiver `list.size()` is looked up as a class before
    /// the field `list` of `this`).
    Name(Symbol),
    /// A library model is named inside a class `where` clause or a
    /// constraint declaration: the whole-program check resolves those
    /// before any model header is collected, so it reads the library
    /// model's header in a state the base has already left.
    PhaseOrder(Symbol),
    /// A model that could witness a constraint some library goal
    /// resolved by declared-model fallback (rule 3 of default model
    /// resolution, which consults every declared model of the program).
    DeclaredModel(Symbol),
    /// A subclass of a class that a library model's multimethods
    /// dispatch on.
    Subclass(Symbol),
}

/// The frozen, checked prelude + stdlib.
pub struct StdlibBase {
    /// The library units after the prelude: names, texts and parses.
    library: Vec<(String, String, Arc<ParsedUnit>)>,
    /// Source map holding the library files.
    sm: SourceMap,
    /// The checked library; `None` if checking it reported any
    /// diagnostic.
    program: Option<CheckedProgram>,
    /// Declarations of each kind in the library.
    counts: DeclCounts,
    /// Every name the library declares, in any namespace.
    names: HashSet<Symbol>,
    /// Every identifier token of the library's text, prelude included (a
    /// superset of `names`).
    idents: HashSet<Symbol>,
    /// The library's model names.
    model_names: HashSet<Symbol>,
    /// Constraints whose goals reached declared-model fallback while the
    /// library was checked.
    declared_fallbacks: HashSet<ConstraintId>,
    /// Classes a library model's multimethods dispatch on.
    dispatch_classes: HashSet<ClassId>,
}

static STDLIB_BASE: OnceLock<StdlibBase> = OnceLock::new();

/// The process-wide base, checked on first use.
pub fn stdlib_base() -> &'static StdlibBase {
    STDLIB_BASE.get_or_init(StdlibBase::build)
}

impl StdlibBase {
    /// Checks the prelude and the stdlib from the memoized parses.
    pub fn build() -> StdlibBase {
        let library = genus_stdlib::sources()
            .iter()
            .zip(stdlib_parses())
            .map(|((name, src), (_, parsed))| {
                (name.to_string(), src.to_string(), Arc::clone(parsed))
            })
            .collect();
        StdlibBase::from_library(library)
    }

    /// A base over the given library units instead of the stdlib (the
    /// prelude always comes first). Everything else behaves as for the
    /// stdlib base; tests use it to exercise guard channels the stdlib
    /// itself never opens.
    pub fn with_library(units: &[(&str, &str)]) -> StdlibBase {
        let mut sm = SourceMap::new();
        sm.add_file(prelude::PRELUDE_NAME, prelude::PRELUDE);
        let library = units
            .iter()
            .map(|(name, src)| {
                let file = sm.add_file(*name, *src);
                let parsed = Arc::new(parse_unit(&sm, file, name));
                (name.to_string(), src.to_string(), parsed)
            })
            .collect();
        StdlibBase::from_library(library)
    }

    fn from_library(library: Vec<(String, String, Arc<ParsedUnit>)>) -> StdlibBase {
        let units = || library.iter().map(|(n, s, p)| (n.as_str(), s.as_str(), p));
        let (report, declared_fallbacks) =
            record_declared_fallbacks(|| library_session(units()).into_report());
        let (counts, names, model_names, dispatch_classes) = match &report.program {
            Some(p) => {
                let t = &p.table;
                let names = t
                    .classes
                    .iter()
                    .map(|c| c.name)
                    .chain(t.constraints.iter().map(|k| k.name))
                    .chain(t.models.iter().map(|m| m.name))
                    .chain(t.globals.iter().map(|g| g.name))
                    .collect();
                let model_names = t.models.iter().map(|m| m.name).collect();
                (DeclCounts::of(t), names, model_names, dispatch_classes(t))
            }
            None => Default::default(),
        };
        let idents = library_idents(&report.sm);
        StdlibBase {
            program: report.program.filter(|_| report.diags.is_empty()),
            sm: report.sm,
            counts,
            names,
            idents,
            model_names,
            declared_fallbacks,
            dispatch_classes,
            library,
        }
    }

    /// The whole-program check of one unit against this base's library
    /// ([`check_with_stdlib`] for the stdlib base): what
    /// [`StdlibBase::extend`] reproduces, and what its callers fall back
    /// to.
    pub fn check_whole(&self, name: &str, src: &str) -> CheckReport {
        let units = self.library.iter();
        check_whole_over(
            units.map(|(n, s, p)| (n.as_str(), s.as_str(), p)),
            name,
            src,
        )
    }

    /// The checked library, when it checked cleanly. Programs returned by
    /// [`StdlibBase::extend`] share its declarations and bodies.
    pub fn program(&self) -> Option<&CheckedProgram> {
        self.program.as_ref()
    }

    /// Number of library files (prelude + stdlib units).
    pub fn library_files(&self) -> u32 {
        self.sm.len() as u32
    }

    /// Checks the unit `name` with text `src` as an extension of the base,
    /// producing exactly the report of [`check_with_stdlib`] — or the
    /// channel that makes the whole-program check necessary. A program
    /// extending the process-wide [`stdlib_base`] says so
    /// ([`CheckedProgram::extends_stdlib_base`]).
    ///
    /// # Errors
    ///
    /// The [`Fallback`] channel the unit opens.
    pub fn extend(&self, name: &str, src: &str) -> Result<CheckReport, Fallback> {
        let Some(base) = self.program() else {
            return Err(Fallback::BaseDiagnostics);
        };
        let mut sm = self.sm.clone();
        let file = sm.add_file(name, src);
        let parsed = parse_unit(&sm, file, name);
        let mut sink = Diagnostics::new();
        for d in &parsed.diags {
            sink.push(d.clone());
        }
        // Parse errors stop the pipeline before any checking, as in a
        // session.
        if parsed.diags.iter().any(|d| d.severity == Severity::Error) {
            return Ok(CheckReport {
                sm,
                diags: sink.take(),
                program: None,
            });
        }
        self.guard_syntax(&parsed.program)?;

        // The semantic prefix, restricted to the unit's declarations.
        let mut diags = Diagnostics::new();
        let mut table = fork_table(&base.table);
        collect::collect_into(&mut table, &[parsed.program.as_ref()], &mut diags);
        self.guard_table(&table)?;
        complete_signatures(&mut table, self.counts, &mut diags);
        // As after a whole-program completion: entries made while
        // signatures were still being rewritten are dropped.
        table.cache = fork_cache(&base.table.cache);
        check_declarations(&table, self.counts, &mut diags);

        // The unit's bodies, beside the library's shared ones.
        let mut checked = CheckedProgram {
            table,
            method_bodies: base.method_bodies.clone(),
            ctor_bodies: base.ctor_bodies.clone(),
            global_bodies: base.global_bodies.clone(),
            model_bodies: base.model_bodies.clone(),
            field_inits: base.field_inits.clone(),
            static_inits: base.static_inits.clone(),
            extends_stdlib_base: STDLIB_BASE.get().is_some_and(|b| std::ptr::eq(b, self)),
        };
        check_bodies_filter(&mut checked, &mut diags, Some(file));
        checked
            .static_inits
            .sort_by_key(|(cid, fi, _)| (cid.0, *fi));
        for d in diags.take() {
            sink.push(d);
        }
        let diags = sink.take();
        let ok = !diags.iter().any(|d| d.severity == Severity::Error);
        Ok(CheckReport {
            sm,
            diags,
            program: ok.then_some(checked),
        })
    }

    /// The channels visible in the unit's syntax.
    fn guard_syntax(&self, program: &ast::Program) -> Result<(), Fallback> {
        if !program.imports.is_empty() {
            return Err(Fallback::Import);
        }
        for d in &program.decls {
            // Unqualified calls try the methods of the current class before
            // any global, so a global reaches library code only by sharing
            // a library global's name.
            let guarded = match d {
                ast::Decl::Method(_) => &self.names,
                _ => &self.idents,
            };
            if let Some(n) = d.name().filter(|n| guarded.contains(n)) {
                return Err(Fallback::Name(n));
            }
            let headers: Vec<&ast::Ty> = match d {
                ast::Decl::Use(_) => return Err(Fallback::Use),
                ast::Decl::Enrich(e) if self.model_names.contains(&e.target) => {
                    return Err(Fallback::Enrich(e.target));
                }
                ast::Decl::Class(c) => where_arg_types(&c.generics),
                ast::Decl::Interface(i) => where_arg_types(&i.generics),
                ast::Decl::Constraint(c) => c
                    .extends
                    .iter()
                    .flat_map(|r| &r.args)
                    .chain(c.methods.iter().flat_map(|m| {
                        std::iter::once(&m.ret).chain(m.params.iter().map(|p| &p.ty))
                    }))
                    .collect(),
                _ => Vec::new(),
            };
            for t in headers {
                if let Some(m) = self.library_model_in(t) {
                    return Err(Fallback::PhaseOrder(m));
                }
            }
        }
        Ok(())
    }

    /// The channels that need the unit's collected declarations.
    fn guard_table(&self, table: &Table) -> Result<(), Fallback> {
        for m in &table.models[self.counts.models..] {
            let closure = prereq_closure(table, &m.for_inst);
            if closure
                .iter()
                .any(|c| self.declared_fallbacks.contains(&c.id))
            {
                return Err(Fallback::DeclaredModel(m.name));
            }
        }
        for ci in self.counts.classes..table.classes.len() {
            let mut seen = HashSet::new();
            if self.reaches_dispatch_class(table, ClassId(ci as u32), &mut seen) {
                return Err(Fallback::Subclass(table.classes[ci].name));
            }
        }
        Ok(())
    }

    /// Whether a proper supertype of `cid` is a dispatch class.
    fn reaches_dispatch_class(
        &self,
        table: &Table,
        cid: ClassId,
        seen: &mut HashSet<ClassId>,
    ) -> bool {
        let def = table.class(cid);
        def.extends.iter().chain(&def.implements).any(|t| match t {
            Type::Class { id, .. } if seen.insert(*id) => {
                self.dispatch_classes.contains(id) || self.reaches_dispatch_class(table, *id, seen)
            }
            _ => false,
        })
    }

    /// The first library model named in a model expression inside `t`.
    fn library_model_in(&self, t: &ast::Ty) -> Option<Symbol> {
        match &t.kind {
            ast::TyKind::Prim(_) => None,
            ast::TyKind::Array(e) => self.library_model_in(e),
            ast::TyKind::Wildcard { bound } => {
                bound.as_deref().and_then(|b| self.library_model_in(b))
            }
            ast::TyKind::Existential {
                params,
                wheres,
                body,
            } => params
                .iter()
                .filter_map(|p| p.bound.as_ref())
                .chain(wheres.iter().flat_map(|w| &w.constraint.args))
                .chain(std::iter::once(body.as_ref()))
                .find_map(|t| self.library_model_in(t)),
            ast::TyKind::Named { args, models, .. } => args
                .iter()
                .find_map(|a| self.library_model_in(a))
                .or_else(|| models.iter().find_map(|m| self.library_model_in_model(m))),
        }
    }

    fn library_model_in_model(&self, m: &ast::ModelExpr) -> Option<Symbol> {
        match m {
            ast::ModelExpr::Wildcard { .. } => None,
            ast::ModelExpr::Named {
                name, args, models, ..
            } => {
                if self.model_names.contains(name) {
                    return Some(*name);
                }
                args.iter()
                    .find_map(|a| self.library_model_in(a))
                    .or_else(|| models.iter().find_map(|m| self.library_model_in_model(m)))
            }
        }
    }
}

/// Every identifier token in the files of `sm` (the library's).
fn library_idents(sm: &SourceMap) -> HashSet<Symbol> {
    let mut diags = Diagnostics::new();
    (0..sm.len())
        .flat_map(|f| lex(sm, FileId(f as u32), &mut diags))
        .filter_map(|t| match t.kind {
            TokenKind::Ident(s) => Some(s),
            _ => None,
        })
        .collect()
}

/// The type arguments of a generic signature's `where` clauses.
fn where_arg_types(g: &ast::GenericSig) -> Vec<&ast::Ty> {
    g.wheres.iter().flat_map(|w| &w.constraint.args).collect()
}

/// Classes heading the receiver or parameter types of a model's
/// multimethods: operations with more than one visible definition of the
/// same name and arity, selected at run time by the dynamic classes of
/// their arguments (§5.1).
fn dispatch_classes(table: &Table) -> HashSet<ClassId> {
    let mut out = HashSet::new();
    for mi in 0..table.models.len() {
        let methods = visible_methods(table, ModelId(mi as u32));
        let mut groups: HashMap<(Symbol, usize, bool), usize> = HashMap::new();
        for m in &methods {
            *groups
                .entry((m.name, m.params.len(), m.is_static))
                .or_default() += 1;
        }
        for m in &methods {
            if groups[&(m.name, m.params.len(), m.is_static)] < 2 {
                continue;
            }
            for t in std::iter::once(&m.receiver).chain(m.params.iter().map(|(_, t)| t)) {
                if let Type::Class { id, .. } = t {
                    out.insert(*id);
                }
            }
        }
    }
    out
}

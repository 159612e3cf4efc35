//! The declaration table: the collected semantic view of a Genus program.

use crate::ty::{ConstraintInst, Model, MvId, TvId, Type, WhereReq};
use genus_common::{Span, Symbol};
use genus_syntax::ast;
use std::collections::HashMap;
use std::sync::Arc;

/// Identifies a class or interface in a [`Table`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClassId(pub u32);

/// Identifies a constraint in a [`Table`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConstraintId(pub u32);

/// Identifies a declared model in a [`Table`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ModelId(pub u32);

/// A collected class or interface.
#[derive(Debug, Clone)]
pub struct ClassDef {
    /// Declared name.
    pub name: Symbol,
    /// `true` for interfaces.
    pub is_interface: bool,
    /// `true` for abstract classes.
    pub is_abstract: bool,
    /// Type parameters.
    pub params: Vec<TvId>,
    /// Intrinsic `where` constraints — their witnesses are part of every
    /// instantiated type of this class (§4.5).
    pub wheres: Vec<WhereReq>,
    /// Superclass (`Object` for classes that do not declare one), `None`
    /// only for `Object` itself and for interfaces.
    pub extends: Option<Type>,
    /// Implemented (classes) or extended (interfaces) interfaces.
    pub implements: Vec<Type>,
    /// Fields.
    pub fields: Vec<FieldDef>,
    /// Constructors.
    pub ctors: Vec<CtorDef>,
    /// Methods.
    pub methods: Vec<MethodDef>,
    /// Declaration site.
    pub span: Span,
}

/// A collected field.
#[derive(Debug, Clone)]
pub struct FieldDef {
    /// Field name.
    pub name: Symbol,
    /// Field type (over the class's type parameters).
    pub ty: Type,
    /// Whether static.
    pub is_static: bool,
    /// Optional initializer (checked lazily with the class context).
    pub init: Option<ast::Expr>,
    /// Declaration site.
    pub span: Span,
}

/// A collected constructor.
#[derive(Debug, Clone)]
pub struct CtorDef {
    /// Parameter names and types.
    pub params: Vec<(Symbol, Type)>,
    /// Body (checked in a later phase).
    pub body: ast::Block,
    /// Declaration site.
    pub span: Span,
}

/// A collected method signature (class methods, interface methods, and
/// free-standing top-level methods).
#[derive(Debug, Clone)]
pub struct MethodDef {
    /// Method name.
    pub name: Symbol,
    /// Whether static.
    pub is_static: bool,
    /// Whether abstract (no body).
    pub is_abstract: bool,
    /// Whether implemented natively by the runtime.
    pub is_native: bool,
    /// Method-level type parameters.
    pub tparams: Vec<TvId>,
    /// Method-level `where` constraints (model genericity, §3.2).
    pub wheres: Vec<WhereReq>,
    /// Parameter names and types.
    pub params: Vec<(Symbol, Type)>,
    /// Return type.
    pub ret: Type,
    /// Body, if any (checked in a later phase).
    pub body: Option<ast::Block>,
    /// Declaration site.
    pub span: Span,
}

/// A collected constraint (a predicate over its parameters, §3.1).
#[derive(Debug, Clone)]
pub struct ConstraintDef {
    /// Constraint name.
    pub name: Symbol,
    /// Predicate parameters.
    pub params: Vec<TvId>,
    /// Prerequisite constraints (`extends`).
    pub prereqs: Vec<ConstraintInst>,
    /// Required operations.
    pub ops: Vec<ConstraintOp>,
    /// Per-parameter variance, filled in by [`crate::variance`].
    pub variance: Vec<crate::variance::Variance>,
    /// Declaration site.
    pub span: Span,
}

/// One operation required by a constraint.
#[derive(Debug, Clone)]
pub struct ConstraintOp {
    /// Operation name.
    pub name: Symbol,
    /// Whether `static` (invoked on the type: `T.zero()`).
    pub is_static: bool,
    /// Which constraint parameter is the receiver.
    pub receiver: TvId,
    /// Parameter names and types (over the constraint's parameters).
    pub params: Vec<(Symbol, Type)>,
    /// Return type.
    pub ret: Type,
    /// Declaration site.
    pub span: Span,
}

/// A collected model declaration.
#[derive(Debug, Clone)]
pub struct ModelDef {
    /// Model name.
    pub name: Symbol,
    /// Type parameters (parameterized models, Figure 5).
    pub tparams: Vec<TvId>,
    /// The model's own `where` constraints.
    pub wheres: Vec<WhereReq>,
    /// The constraint instantiation this model witnesses.
    pub for_inst: ConstraintInst,
    /// Inherited models (§5.3) — resolved model expressions.
    pub extends: Vec<Model>,
    /// Method definitions, including enrichments (marked).
    pub methods: Vec<ModelMethod>,
    /// Declaration site.
    pub span: Span,
}

/// A method definition in a model or enrichment. Receiver and parameter
/// types may be proper subtypes of the constrained types — models are
/// multimethods (§5.1).
#[derive(Debug, Clone)]
pub struct ModelMethod {
    /// Operation name.
    pub name: Symbol,
    /// Whether it implements a static constraint operation.
    pub is_static: bool,
    /// Receiver type.
    pub receiver: Type,
    /// Parameter names and types.
    pub params: Vec<(Symbol, Type)>,
    /// Return type.
    pub ret: Type,
    /// Body.
    pub body: ast::Block,
    /// Whether added by an `enrich` declaration.
    pub from_enrich: bool,
    /// Declaration site.
    pub span: Span,
}

/// A `use` declaration, possibly parameterized (§4.4, §4.7).
#[derive(Debug, Clone)]
pub struct UseDef {
    /// Type parameters of the parameterized form.
    pub tparams: Vec<TvId>,
    /// Subgoal constraints (`use [E where Cloneable[E] c] ...`).
    pub wheres: Vec<WhereReq>,
    /// The enabled model.
    pub model: Model,
    /// The constraint it is enabled for.
    pub for_inst: ConstraintInst,
    /// Declaration site.
    pub span: Span,
}

/// Type and model variables allocated in one scope of a [`Table`].
#[derive(Debug, Clone, Default)]
struct VarPool {
    tv_names: Vec<Symbol>,
    tv_bounds: Vec<Option<Type>>,
    mv_names: Vec<Symbol>,
}

/// The bit of a [`TvId`]/[`MvId`] that marks a variable allocated on
/// behalf of a library file (see [`Table::set_library_files`]).
const LIBRARY_BIT: u32 = 1 << 31;

/// The collected program.
///
/// Declarations are held behind `Arc`s, so [`Table::fork`] is a cheap
/// structural copy: a program that extends a prebuilt library table
/// shares every library declaration instead of cloning it.
#[derive(Debug, Default)]
pub struct Table {
    /// All classes and interfaces.
    pub classes: Vec<Arc<ClassDef>>,
    /// All constraints.
    pub constraints: Vec<Arc<ConstraintDef>>,
    /// All declared models.
    pub models: Vec<Arc<ModelDef>>,
    /// All `use` declarations.
    pub uses: Vec<Arc<UseDef>>,
    /// Free-standing top-level methods.
    pub globals: Vec<Arc<MethodDef>>,

    /// Name lookup for classes/interfaces.
    pub class_by_name: HashMap<Symbol, ClassId>,
    /// Name lookup for constraints.
    pub constraint_by_name: HashMap<Symbol, ConstraintId>,
    /// Name lookup for models.
    pub model_by_name: HashMap<Symbol, ModelId>,

    /// Variables of user files (`[0]`) and library files (`[1]`).
    vars: [Arc<VarPool>; 2],
    /// Files `0..library_files` are library files.
    library_files: u32,
    /// Whether fresh variables currently go to the library pool.
    alloc_library: bool,

    /// Memo tables for table-pure queries (subtyping, prerequisite
    /// closures, conformance, resolution). Mutating methods that could
    /// invalidate existing keys clear it; see [`crate::cache`].
    pub cache: crate::cache::QueryCache,
}

impl Table {
    /// Creates an empty table.
    pub fn new() -> Self {
        Table::default()
    }

    /// Declares files `0..n` to be library files: variables allocated
    /// while [`Table::enter_file`] points at one of them are numbered in
    /// a separate library space (ids with the top bit set). Numbering the
    /// two spaces independently makes every id independent of how the
    /// checker's phases interleave library and user declarations, so a
    /// program checked as a whole and the same program checked as an
    /// extension of a prebuilt library table get identical ids. With the
    /// default `n = 0` there is one dense space, as for any program
    /// without a library.
    pub fn set_library_files(&mut self, n: u32) {
        self.library_files = n;
    }

    /// The number of leading library files (see
    /// [`Table::set_library_files`]).
    pub fn library_files(&self) -> u32 {
        self.library_files
    }

    /// Directs fresh variables to the space of `file` (library or user).
    /// Every phase that allocates variables calls this before working on
    /// a declaration or body of that file.
    pub fn enter_file(&mut self, file: genus_common::FileId) {
        self.alloc_library = file.0 < self.library_files;
    }

    /// A cheap copy sharing every declaration with `self` (copy-on-write
    /// through `Arc::make_mut`), with the query cache forked through
    /// `resolve` (see [`crate::cache::QueryCache::fork`]).
    pub fn fork(
        &self,
        resolve: impl FnOnce(&(dyn std::any::Any + Send)) -> Option<Box<dyn std::any::Any + Send>>,
    ) -> Table {
        Table {
            classes: self.classes.clone(),
            constraints: self.constraints.clone(),
            models: self.models.clone(),
            uses: self.uses.clone(),
            globals: self.globals.clone(),
            class_by_name: self.class_by_name.clone(),
            constraint_by_name: self.constraint_by_name.clone(),
            model_by_name: self.model_by_name.clone(),
            vars: self.vars.clone(),
            library_files: self.library_files,
            // A fork is extended with new (user) files.
            alloc_library: false,
            cache: self.cache.fork(resolve),
        }
    }

    fn pool_mut(&mut self) -> (&mut VarPool, u32) {
        let i = usize::from(self.alloc_library);
        let tag = if self.alloc_library { LIBRARY_BIT } else { 0 };
        (Arc::make_mut(&mut self.vars[i]), tag)
    }

    fn tv_slot(&self, tv: TvId) -> (&VarPool, usize) {
        let i = usize::from(tv.0 & LIBRARY_BIT != 0);
        (&self.vars[i], (tv.0 & !LIBRARY_BIT) as usize)
    }

    /// Allocates a fresh type variable with a display name.
    pub fn fresh_tv(&mut self, name: Symbol) -> TvId {
        let (pool, tag) = self.pool_mut();
        let id = TvId(tag | pool.tv_names.len() as u32);
        pool.tv_names.push(name);
        pool.tv_bounds.push(None);
        id
    }

    /// Allocates a fresh type variable with an upper bound (used by
    /// desugared `? extends T` wildcards).
    pub fn fresh_tv_bounded(&mut self, name: Symbol, bound: Option<Type>) -> TvId {
        let id = self.fresh_tv(name);
        self.set_tv_bound(id, bound);
        id
    }

    /// Allocates a fresh model variable with a display name.
    pub fn fresh_mv(&mut self, name: Symbol) -> MvId {
        let (pool, tag) = self.pool_mut();
        let id = MvId(tag | pool.mv_names.len() as u32);
        pool.mv_names.push(name);
        id
    }

    /// Display name of a type variable.
    pub fn tv_name(&self, tv: TvId) -> Symbol {
        let (pool, i) = self.tv_slot(tv);
        pool.tv_names[i]
    }

    /// Upper bound of a type variable, if any.
    pub fn tv_bound(&self, tv: TvId) -> Option<&Type> {
        let (pool, i) = self.tv_slot(tv);
        pool.tv_bounds[i].as_ref()
    }

    /// Sets the upper bound of a type variable.
    pub fn set_tv_bound(&mut self, tv: TvId, bound: Option<Type>) {
        let p = usize::from(tv.0 & LIBRARY_BIT != 0);
        Arc::make_mut(&mut self.vars[p]).tv_bounds[(tv.0 & !LIBRARY_BIT) as usize] = bound;
    }

    /// Display name of a model variable.
    pub fn mv_name(&self, mv: MvId) -> Symbol {
        let i = usize::from(mv.0 & LIBRARY_BIT != 0);
        self.vars[i].mv_names[(mv.0 & !LIBRARY_BIT) as usize]
    }

    /// Every allocated type variable, user space first.
    pub fn tvs(&self) -> impl Iterator<Item = TvId> + '_ {
        self.vars
            .iter()
            .zip([0, LIBRARY_BIT])
            .flat_map(|(pool, tag)| (0..pool.tv_names.len() as u32).map(move |i| TvId(tag | i)))
    }

    /// Every allocated model variable, user space first.
    pub fn mvs(&self) -> impl Iterator<Item = MvId> + '_ {
        self.vars
            .iter()
            .zip([0, LIBRARY_BIT])
            .flat_map(|(pool, tag)| (0..pool.mv_names.len() as u32).map(move |i| MvId(tag | i)))
    }

    /// Number of allocated type variables.
    pub fn tv_count(&self) -> usize {
        self.vars.iter().map(|p| p.tv_names.len()).sum()
    }

    /// Number of allocated model variables.
    pub fn mv_count(&self) -> usize {
        self.vars.iter().map(|p| p.mv_names.len()).sum()
    }

    /// Looks up a class by id.
    pub fn class(&self, id: ClassId) -> &ClassDef {
        &self.classes[id.0 as usize]
    }

    /// Looks up a constraint by id.
    pub fn constraint(&self, id: ConstraintId) -> &ConstraintDef {
        &self.constraints[id.0 as usize]
    }

    /// Looks up a model by id.
    pub fn model(&self, id: ModelId) -> &ModelDef {
        &self.models[id.0 as usize]
    }

    /// Registers a class and indexes its name. Returns its id.
    pub fn add_class(&mut self, def: ClassDef) -> ClassId {
        self.cache.clear();
        let id = ClassId(self.classes.len() as u32);
        self.class_by_name.insert(def.name, id);
        self.classes.push(Arc::new(def));
        id
    }

    /// Registers a constraint and indexes its name. Returns its id.
    pub fn add_constraint(&mut self, def: ConstraintDef) -> ConstraintId {
        self.cache.clear();
        let id = ConstraintId(self.constraints.len() as u32);
        self.constraint_by_name.insert(def.name, id);
        self.constraints.push(Arc::new(def));
        id
    }

    /// Registers a model and indexes its name. Returns its id.
    pub fn add_model(&mut self, def: ModelDef) -> ModelId {
        self.cache.clear();
        let id = ModelId(self.models.len() as u32);
        self.model_by_name.insert(def.name, id);
        self.models.push(Arc::new(def));
        id
    }

    /// Finds a class by name.
    pub fn lookup_class(&self, name: Symbol) -> Option<ClassId> {
        self.class_by_name.get(&name).copied()
    }

    /// Finds a constraint by name.
    pub fn lookup_constraint(&self, name: Symbol) -> Option<ConstraintId> {
        self.constraint_by_name.get(&name).copied()
    }

    /// Finds a model by name.
    pub fn lookup_model(&self, name: Symbol) -> Option<ModelId> {
        self.model_by_name.get(&name).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_vars_are_distinct() {
        let mut t = Table::new();
        let a = t.fresh_tv(Symbol::intern("T"));
        let b = t.fresh_tv(Symbol::intern("U"));
        assert_ne!(a, b);
        assert_eq!(t.tv_name(a).as_str(), "T");
        assert_eq!(t.tv_name(b).as_str(), "U");
        let m = t.fresh_mv(Symbol::intern("c"));
        assert_eq!(t.mv_name(m).as_str(), "c");
    }

    #[test]
    fn bounded_tv() {
        let mut t = Table::new();
        let a = t.fresh_tv_bounded(Symbol::intern("U"), Some(Type::Null));
        assert_eq!(t.tv_bound(a), Some(&Type::Null));
    }
}

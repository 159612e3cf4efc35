//! The engine runner: `main()` on the AST interpreter, the VM or Tier 2,
//! under [`Limits`], with every observable collected into one
//! [`Execution`].
//!
//! This is the one place a checked program meets an engine. The facade's
//! `Compiler` and [`CompileSession`](crate::session::CompileSession),
//! genus-serve's stateless and sessionful paths, the fuzzer's oracles and
//! the benches all run programs through these functions, so the
//! four-leg differential (AST, VM-O0, VM-O2, Tier 2) compares the same
//! observables wherever it is checked. Outside the benches they also
//! get their code from one holder, [`Compiled`], which builds a
//! program's bytecode and Tier 2 once and decides which prebuilt library
//! segment, if any, the bytecode resumes from.

use crate::link::{link_to_stdlib, resume, Codegen};
use crate::{compile_optimized, compile_tier, OptStats, TierProgram, TierStats, Vm, VmProgram};
use genus_check::CheckedProgram;
use genus_common::Span;
use genus_interp::{DispatchStats, Interp, Limits, ResourceStats, RuntimeError};
use genus_types::CacheStats;
use std::sync::{Arc, OnceLock};

/// Which execution engine runs the program.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Engine {
    /// The tree-walking interpreter over HIR. Recurses on the host
    /// stack, so it needs a big-stack thread (see [`with_big_stack`]).
    #[default]
    Ast,
    /// The bytecode register VM. Keeps Genus frames in an explicit
    /// stack, so it runs on the calling thread.
    Vm,
    /// Tier 2: the optimized bytecode translated once more into nested
    /// Rust closures with pre-resolved operands (the [`tier`](crate::tier)
    /// module) — no fetch/decode loop at run time. Observable behaviour,
    /// including fuel accounting, is identical to [`Engine::Vm`] over
    /// the same bytecode.
    Jit,
}

impl Engine {
    /// Parses an engine name as used by `genus run --engine=<name>`.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Engine> {
        match name {
            "ast" | "interp" => Some(Engine::Ast),
            "vm" | "bytecode" => Some(Engine::Vm),
            "jit" | "tier" => Some(Engine::Jit),
            _ => None,
        }
    }

    /// The canonical CLI name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Engine::Ast => "ast",
            Engine::Vm => "vm",
            Engine::Jit => "jit",
        }
    }
}

/// A successful run collapsed to its value and output (see [`finish`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunResult {
    /// `main`'s return value, rendered.
    pub rendered_value: String,
    /// Everything printed by the program.
    pub output: String,
}

/// Full outcome of one run: the captured output and statistics are
/// available even when `main` traps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Execution {
    /// `main`'s rendered return value, or the structured runtime trap
    /// (stable `R0xxx` code + message + optional span).
    pub outcome: Result<String, RuntimeError>,
    /// Everything printed before completion (or before the trap).
    pub output: String,
    /// The engine's dispatch-cache counters for this run.
    pub dispatch_stats: DispatchStats,
    /// The type-level query-cache counters (subtype/prereq/conforms/
    /// resolve) accumulated during this run.
    pub cache_stats: CacheStats,
    /// Bytecode-optimizer counters (specialization, folding, …). `None`
    /// on the AST engine, which has no bytecode to optimize.
    pub opt_stats: Option<OptStats>,
    /// Resources consumed by this run: fuel steps, exact allocated
    /// bytes (see [`Limits`]), plus the heap's live/peak byte counters
    /// and the number of collections. Counted even when no limit is set.
    pub resource_stats: ResourceStats,
    /// Tier-compilation counters. `Some` only on [`Engine::Jit`] — the
    /// anti-vacuity signal for differential tests (a parity claim means
    /// nothing if no function was actually tiered).
    pub tier_stats: Option<TierStats>,
}

impl Execution {
    /// Whether the run died on the fuel/deadline meter (`R0009`). Fuel
    /// is counted in engine-specific units (AST statements vs VM
    /// opcodes), so when *any* leg of a differential trips the meter the
    /// AST leg is not comparable with the bytecode legs.
    #[must_use]
    pub fn fuel_limited(&self) -> bool {
        matches!(&self.outcome, Err(e) if e.code() == "R0009")
    }

    /// The comparable shape of the outcome: the rendered value on
    /// success, the stable `(code, span)` pair on a trap. Message texts
    /// are deliberately not compared (engines may phrase them
    /// differently).
    pub fn outcome_key(&self) -> Result<&str, (&'static str, Span)> {
        match &self.outcome {
            Ok(v) => Ok(v.as_str()),
            Err(e) => Err((e.code(), e.span)),
        }
    }
}

/// How much native stack the AST interpreter needs: each Genus frame
/// costs tens of KiB of host stack in debug builds, and the
/// interpreter's `max_depth` recursion guard is calibrated against this
/// size. Serve workers and [`with_big_stack`] threads get it.
pub const INTERP_STACK_SIZE: usize = 256 << 20;

/// Runs `f` on a scoped thread with [`INTERP_STACK_SIZE`] of native
/// stack and returns its result; a panic in `f` resumes on the caller.
pub fn with_big_stack<R: Send, F: FnOnce() -> R + Send>(f: F) -> R {
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .name("genus-interp".to_string())
            .stack_size(INTERP_STACK_SIZE)
            .spawn_scoped(scope, f)
            .expect("spawn interpreter thread")
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    })
}

/// Runs `main()` on the tree-walking interpreter against a **shared**
/// checked program. The caller provides enough native stack (a
/// [`with_big_stack`] thread or a serve worker). Cache counters in the
/// result are the delta accumulated during this run, so concurrent runs
/// over one cached program report per-request numbers.
pub fn execute_ast_shared(prog: &CheckedProgram, limits: Limits) -> Execution {
    let cache_base = prog.table.cache.stats();
    let mut interp = Interp::new(prog);
    interp.set_limits(limits);
    let outcome = interp.run_main().map(|v| interp.render(&v));
    Execution {
        outcome,
        resource_stats: interp.resource_stats(),
        output: interp.take_output(),
        dispatch_stats: interp.dispatch_stats(),
        cache_stats: prog.table.cache.stats().since(&cache_base),
        opt_stats: None,
        tier_stats: None,
    }
}

/// Runs `main()` on the bytecode VM over a **shared** compiled program.
/// The VM's dispatch loop keeps the host stack flat, so no dedicated
/// thread is needed; `code` is `Send + Sync` and may be served to many
/// workers at once.
pub fn execute_vm_shared(
    prog: &CheckedProgram,
    code: &Arc<VmProgram>,
    limits: Limits,
) -> Execution {
    execute_vm_with(prog, code, limits, |_| {})
}

/// [`execute_vm_shared`] with a hook that adjusts the fresh [`Vm`]
/// before it runs — the fuzzer's GC-stress heap and coverage map.
pub fn execute_vm_with(
    prog: &CheckedProgram,
    code: &Arc<VmProgram>,
    limits: Limits,
    setup: impl FnOnce(&mut Vm),
) -> Execution {
    let cache_base = prog.table.cache.stats();
    let mut vm = Vm::with_code(prog, Arc::clone(code));
    setup(&mut vm);
    vm.set_limits(limits);
    let outcome = vm.run_main().map(|v| vm.render(&v));
    vm_execution(prog, vm, outcome, cache_base, None)
}

/// Runs `main()` on the closure-compiled Tier 2 over a **shared**
/// [`TierProgram`]. Like the VM, the tier keeps Genus frames in an
/// explicit stack and its closures are `Send + Sync`, so one tier
/// program may be served to many workers at once.
pub fn execute_tier_shared(prog: &CheckedProgram, tier: &TierProgram, limits: Limits) -> Execution {
    let cache_base = prog.table.cache.stats();
    let mut vm = Vm::with_code(prog, Arc::clone(tier.code()));
    vm.set_limits(limits);
    let outcome = vm.run_main_tier(tier).map(|v| vm.render(&v));
    vm_execution(prog, vm, outcome, cache_base, Some(tier.stats))
}

fn vm_execution(
    prog: &CheckedProgram,
    mut vm: Vm,
    outcome: Result<String, RuntimeError>,
    cache_base: CacheStats,
    tier_stats: Option<TierStats>,
) -> Execution {
    Execution {
        outcome,
        resource_stats: vm.resource_stats(),
        output: vm.take_output(),
        dispatch_stats: vm.dispatch_stats(),
        cache_stats: prog.table.cache.stats().since(&cache_base),
        opt_stats: Some(vm.code().opt_stats),
        tier_stats,
    }
}

/// The compiled code of one checked program at one optimization level:
/// its bytecode and its Tier-2 closures, each built on first use and then
/// shared. Racing threads build each at most once (both sit behind a
/// `OnceLock`), and Tier 2 is built from this holder's own bytecode, so
/// the VM and Tier 2 run the same code and use the same fuel.
///
/// The holder does not own the program: every method takes it, and it
/// must be the same program each time. Its bytecode comes from the first
/// of these that applies, and all three give the same bytecode (see
/// [`crate::link`]):
///
/// 1. a program that
///    [`StdlibBase::extend`](genus_check::base::StdlibBase::extend) built
///    on the process-wide stdlib base resumes from the stdlib's prebuilt
///    segment ([`link_to_stdlib`]);
/// 2. a holder given a library segment ([`Compiled::with_library`], as a
///    [`CompileSession`](crate::session::CompileSession) does) resumes
///    from a copy of it;
/// 3. anything else is compiled whole ([`compile_optimized`]).
pub struct Compiled {
    opt_level: u8,
    library: Option<Arc<Codegen>>,
    vm: OnceLock<Arc<VmProgram>>,
    tier: OnceLock<Arc<TierProgram>>,
}

impl Compiled {
    /// Nothing built yet; bytecode will be optimized at `opt_level`
    /// (clamped to `0..=2`).
    #[must_use]
    pub fn new(opt_level: u8) -> Compiled {
        Compiled {
            opt_level: opt_level.min(2),
            library: None,
            vm: OnceLock::new(),
            tier: OnceLock::new(),
        }
    }

    /// Nothing built yet; bytecode will resume from `library`, a library
    /// segment ([`Codegen::library`]) of a program whose library checks
    /// to the same bodies over the same definitions as the programs this
    /// holder is given, at that segment's level.
    #[must_use]
    pub fn with_library(library: Arc<Codegen>) -> Compiled {
        let level = library.level();
        Compiled {
            library: Some(library),
            ..Compiled::new(level)
        }
    }

    /// A holder whose bytecode, optimized at `opt_level`, is already
    /// built (loaded from disk, say).
    #[must_use]
    pub fn with_vm_code(opt_level: u8, code: Arc<VmProgram>) -> Compiled {
        Compiled {
            vm: OnceLock::from(code),
            ..Compiled::new(opt_level)
        }
    }

    /// The optimization level of the bytecode.
    #[must_use]
    pub fn opt_level(&self) -> u8 {
        self.opt_level
    }

    /// The program's bytecode, built on first use.
    pub fn vm_code(&self, prog: &CheckedProgram) -> Arc<VmProgram> {
        Arc::clone(self.vm.get_or_init(|| {
            Arc::new(match &self.library {
                _ if prog.extends_stdlib_base() => link_to_stdlib(prog, self.opt_level),
                Some(lib) => resume(Codegen::clone(lib), prog),
                None => compile_optimized(prog, self.opt_level),
            })
        }))
    }

    /// The program's Tier-2 closures, built on first use from
    /// [`Compiled::vm_code`].
    pub fn tier_code(&self, prog: &CheckedProgram) -> Arc<TierProgram> {
        Arc::clone(
            self.tier
                .get_or_init(|| Arc::new(compile_tier(&self.vm_code(prog)))),
        )
    }

    /// Whether the code `engine` runs is already built (never for
    /// [`Engine::Ast`], which runs no compiled code).
    #[must_use]
    pub fn built(&self, engine: Engine) -> bool {
        match engine {
            Engine::Ast => false,
            Engine::Vm => self.vm.get().is_some(),
            Engine::Jit => self.tier.get().is_some(),
        }
    }

    /// Runs `main()` of `prog` on `engine`, building the code it needs
    /// first. The AST interpreter runs on a [`with_big_stack`] thread.
    pub fn execute(&self, prog: &CheckedProgram, engine: Engine, limits: Limits) -> Execution {
        match engine {
            Engine::Ast => with_big_stack(|| execute_ast_shared(prog, limits)),
            Engine::Vm => execute_vm_shared(prog, &self.vm_code(prog), limits),
            Engine::Jit => execute_tier_shared(prog, &self.tier_code(prog), limits),
        }
    }
}

/// Collapses an [`Execution`] into a [`RunResult`], attaching the stable
/// code and pre-trap output to the error message.
///
/// # Errors
///
/// The runtime trap, rendered as `error[R0xxx]: message`, followed by
/// any output printed before it.
pub fn finish(ex: Execution) -> Result<RunResult, String> {
    match ex.outcome {
        Ok(rendered_value) => Ok(RunResult {
            rendered_value,
            output: ex.output,
        }),
        Err(e) => {
            let msg = format!("error[{}]: {e}", e.code());
            if ex.output.is_empty() {
                Err(msg)
            } else {
                Err(format!(
                    "{msg}\n--- output before the error ---\n{}",
                    ex.output
                ))
            }
        }
    }
}

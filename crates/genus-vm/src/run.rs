//! The engine runner: `main()` on the AST interpreter, the VM or Tier 2,
//! under [`Limits`], with every observable collected into one
//! [`Execution`].
//!
//! This is the one place a checked program meets an engine. The facade's
//! `Compiler` and [`CompileSession`](crate::session::CompileSession),
//! genus-serve's stateless and sessionful paths, the fuzzer's oracles and
//! the benches all run programs through these functions, so the
//! four-leg differential (AST, VM-O0, VM-O2, Tier 2) compares the same
//! observables wherever it is checked.

use crate::{compile_optimized, compile_tier, OptStats, TierProgram, TierStats, Vm, VmProgram};
use genus_check::CheckedProgram;
use genus_common::Span;
use genus_interp::{DispatchStats, Interp, Limits, ResourceStats, RuntimeError};
use genus_types::CacheStats;
use std::sync::Arc;

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

/// Compiles `prog` at `opt_level` as `engine` needs and runs it — the
/// one-shot path, with nothing cached.
pub fn execute(engine: Engine, prog: &CheckedProgram, opt_level: u8, limits: Limits) -> Execution {
    match engine {
        Engine::Ast => with_big_stack(|| execute_ast_shared(prog, limits)),
        Engine::Vm => {
            execute_vm_shared(prog, &Arc::new(compile_optimized(prog, opt_level)), limits)
        }
        Engine::Jit => {
            let code = Arc::new(compile_optimized(prog, opt_level));
            execute_tier_shared(prog, &compile_tier(&code), limits)
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

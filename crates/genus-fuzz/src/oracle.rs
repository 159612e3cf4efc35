//! The oracle suite: every check one fuzz input is subjected to.
//!
//! A [`Harness`] owns the long-lived warm checker session and the
//! optional coverage map, and [`Harness::run_case`] runs one source
//! through all of the oracles:
//!
//! 1. **Incremental parity** — a warm [`genus_check::Session`] that has
//!    seen every previous case re-checks this source; its diagnostics
//!    must equal a scratch compile's, byte for byte (spans included).
//! 2. **Four-way engine differential** — AST interpreter, VM at O0, VM
//!    at O2, and the Tier 2 closure engine must agree on the rendered
//!    result (or the structured `(code, span)` trap), and on printed
//!    output; the VM and Tier 2 run the *same* bytecode, so their fuel
//!    use must match exactly.
//! 3. **GC-stress parity** — re-running the O2 bytecode on a heap that
//!    collects before every allocation must not change the outcome, the
//!    output, or the exact allocated-byte count.
//! 4. **Serialization round-trip** — the O2 bytecode written through
//!    [`genus_vm::write_program`] and read back must decode, and the
//!    decoded program must behave identically (exact fuel included).
//! 5. **Warm-program parity** — the warm session's checked program,
//!    compiled and run, must match the scratch program's run.
//! 6. **Stdlib-base parity** — the path `genus serve` takes for a
//!    stateless request: the source checked as an extension of the
//!    process-wide stdlib base and its O2 bytecode linked against the
//!    stdlib's prebuilt code. Unless the base's guard sends the source to
//!    the whole-program check, its diagnostics must equal the scratch
//!    compile's and its run must match the scratch O2 run, exact fuel
//!    included.
//!
//! Cases where *any* engine trips the fuel meter are reported as
//! [`Verdict::ResourceSkip`] rather than compared: fuel is counted in
//! engine-specific units (AST statements vs VM opcodes), so a budget
//! that stops one engine mid-program stops another somewhere else.

use crate::pipeline::{self, UNIT_NAME};
use genus_check::Session;
use genus_common::{EdgeMap, Severity};
use genus_heap::Heap;
use genus_interp::Limits;
use genus_vm::run::{
    execute_ast_shared, execute_tier_shared, execute_vm_shared, execute_vm_with, Execution,
};
use genus_vm::{compile_optimized, compile_tier, link_to_stdlib};
use std::rc::Rc;
use std::sync::Arc;

/// One confirmed oracle failure.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Which oracle fired: `engine`, `gc-stress`, `roundtrip`,
    /// `incremental`, `stdlib-base`, or `planted` (test harness).
    pub oracle: &'static str,
    /// Human-readable description of the disagreement.
    pub detail: String,
}

/// The outcome of running one input through the oracle suite.
#[derive(Debug, Clone)]
pub enum Verdict {
    /// The checker rejected the input (mutants only, for a correct
    /// generator); carries the leading error codes.
    CompileReject(String),
    /// Some engine hit the fuel meter; parity not comparable.
    ResourceSkip,
    /// Every oracle agreed.
    Pass,
    /// An oracle disagreed.
    Divergence(Divergence),
}

fn clip(s: &str) -> String {
    if s.chars().count() > 160 {
        let mut out: String = s.chars().take(160).collect();
        out.push('…');
        out
    } else {
        s.to_string()
    }
}

/// The comparable outcome of a leg, rendered for a divergence report.
fn key_str(l: &Execution) -> String {
    match l.outcome_key() {
        Ok(v) => format!("Ok({})", clip(v)),
        Err((code, span)) => format!("Err({code} @ {span:?})"),
    }
}

/// Compares two legs on outcome and output (and fuel when both run the
/// same bytecode).
fn compare(
    oracle: &'static str,
    la: &str,
    a: &Execution,
    lb: &str,
    b: &Execution,
    fuel: bool,
) -> Option<Divergence> {
    if a.outcome_key() != b.outcome_key() {
        return Some(Divergence {
            oracle,
            detail: format!("{la} vs {lb}: outcome {} != {}", key_str(a), key_str(b)),
        });
    }
    if a.output != b.output {
        return Some(Divergence {
            oracle,
            detail: format!(
                "{la} vs {lb}: output {:?} != {:?}",
                clip(&a.output),
                clip(&b.output)
            ),
        });
    }
    if fuel && a.resource_stats.fuel_used != b.resource_stats.fuel_used {
        return Some(Divergence {
            oracle,
            detail: format!(
                "{la} vs {lb}: fuel {} != {}",
                a.resource_stats.fuel_used, b.resource_stats.fuel_used
            ),
        });
    }
    None
}

/// See the module docs.
pub struct Harness {
    warm: Session,
    fuel: u64,
    cov: Option<Rc<EdgeMap>>,
}

impl Harness {
    /// A harness with a fresh warm session. `cov`, when given, receives
    /// the edge trace of each case's VM-O2 leg.
    #[must_use]
    pub fn new(fuel: u64, cov: Option<Rc<EdgeMap>>) -> Harness {
        Harness {
            warm: pipeline::stdlib_session(),
            fuel,
            cov,
        }
    }

    fn limits(&self) -> Limits {
        Limits {
            fuel: Some(self.fuel),
            memory: None,
            deadline_ms: None,
        }
    }

    /// Runs every oracle against `src`. See the module docs.
    pub fn run_case(&mut self, src: &str) -> Verdict {
        // Oracle 1 (diagnostics half): warm vs scratch check.
        let scratch = pipeline::compile(src);
        self.warm.update_source(UNIT_NAME, src);
        self.warm.check();
        if self.warm.last_diags() != &scratch.diags[..] {
            return Verdict::Divergence(Divergence {
                oracle: "incremental",
                detail: format!(
                    "warm session diagnostics differ from scratch ({} vs {})",
                    self.warm.last_diags().len(),
                    scratch.diags.len()
                ),
            });
        }
        // Oracle 6 (diagnostics half): the stateless serve path.
        let based = genus_check::base::stdlib_base().extend(UNIT_NAME, src).ok();
        if let Some(b) = &based {
            if b.diags != scratch.diags {
                return Verdict::Divergence(Divergence {
                    oracle: "stdlib-base",
                    detail: format!(
                        "base-extension diagnostics differ from the whole program's ({} vs {})",
                        b.diags.len(),
                        scratch.diags.len()
                    ),
                });
            }
        }
        let Some(prog) = scratch.program else {
            let codes: Vec<&str> = scratch
                .diags
                .iter()
                .filter(|d| d.severity == Severity::Error)
                .take(3)
                .map(|d| d.code)
                .collect();
            return Verdict::CompileReject(codes.join(","));
        };
        let limits = self.limits();

        // Oracle 2: four-way engine differential.
        let ast = execute_ast_shared(&prog, limits);
        let code0 = Arc::new(compile_optimized(&prog, 0));
        let vm0 = execute_vm_shared(&prog, &code0, limits);
        let code2 = Arc::new(compile_optimized(&prog, 2));
        let vm2 = execute_vm_with(&prog, &code2, limits, |vm| {
            if let Some(map) = &self.cov {
                map.reset();
                vm.set_coverage(Rc::clone(map));
            }
        });
        let jit = execute_tier_shared(&prog, &compile_tier(&code2), limits);
        if [&ast, &vm0, &vm2, &jit].iter().any(|l| l.fuel_limited()) {
            return Verdict::ResourceSkip;
        }
        for (label, leg) in [("vm-o0", &vm0), ("vm-o2", &vm2), ("tier2", &jit)] {
            if let Some(d) = compare("engine", "ast", &ast, label, leg, false) {
                return Verdict::Divergence(d);
            }
        }
        // Same bytecode ⇒ exact fuel parity between the VM and Tier 2.
        if let Some(d) = compare("engine", "vm-o2", &vm2, "tier2", &jit, true) {
            return Verdict::Divergence(d);
        }

        // Oracle 3: GC-stress byte parity on the O2 bytecode.
        let stress = execute_vm_with(&prog, &code2, limits, |vm| {
            vm.heap = Heap::with_stress(true)
        });
        if let Some(d) = compare("gc-stress", "vm-o2", &vm2, "vm-o2-stress", &stress, true) {
            return Verdict::Divergence(d);
        }
        if vm2.resource_stats.mem_used != stress.resource_stats.mem_used {
            return Verdict::Divergence(Divergence {
                oracle: "gc-stress",
                detail: format!(
                    "allocated bytes differ under stress: {} != {}",
                    vm2.resource_stats.mem_used, stress.resource_stats.mem_used
                ),
            });
        }

        // Oracle 4: serialize → deserialize → re-run parity.
        match pipeline::roundtrip(&code2, &prog) {
            Err(e) => {
                return Verdict::Divergence(Divergence {
                    oracle: "roundtrip",
                    detail: format!("bytecode failed to decode: {e}"),
                })
            }
            Ok(rt) => {
                let rerun = execute_vm_shared(&prog, &Arc::new(rt), limits);
                if let Some(d) = compare("roundtrip", "vm-o2", &vm2, "vm-o2-rt", &rerun, true) {
                    return Verdict::Divergence(d);
                }
            }
        }

        // Oracle 1 (program half): the warm session's program must run
        // identically to the scratch program.
        let warm_prog = self
            .warm
            .program()
            .expect("warm session agreed there are no errors");
        let warm_code = Arc::new(compile_optimized(warm_prog, 2));
        let warm_run = execute_vm_shared(warm_prog, &warm_code, limits);
        if let Some(d) = compare("incremental", "vm-o2", &vm2, "vm-o2-warm", &warm_run, true) {
            return Verdict::Divergence(d);
        }

        // Oracle 6 (program half): the linked base-path program runs
        // exactly like the whole program.
        if let Some(bp) = based.and_then(|b| b.program) {
            let code = Arc::new(link_to_stdlib(&bp, 2));
            let run = execute_vm_shared(&bp, &code, limits);
            if let Some(d) = compare("stdlib-base", "vm-o2", &vm2, "vm-o2-base", &run, true) {
                return Verdict::Divergence(d);
            }
        }

        Verdict::Pass
    }
}

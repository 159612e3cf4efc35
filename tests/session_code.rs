//! A stdlib session keeps the code of its library files and resumes each
//! edit's bytecode from it. These tests pin that the resumed bytecode is
//! the whole program's, byte for byte, along a seeded edit stream that
//! touches every way an edit can reach the library segment: body edits,
//! adding and removing a model, `use`, `enrich` of a stdlib model, a new
//! class, a new `import`, and opt-level switches, with AST, VM and Tier-2
//! runs interleaved. They also pin that the segment is actually kept: it
//! is reused on body edits and rebuilt exactly when the environment or
//! the level changes.

use genus_common::rng::SplitMix64;
use genus_common::ByteWriter;
use genus_repro::{
    compile_optimized, compile_tier, execute_tier_shared, execute_vm_shared, CodeStats,
    CompileSession, Engine, Execution, Limits, VmProgram,
};
use genus_vm::write_program;
use std::sync::Arc;

const MAIN: &str = "main.genus";
const UTIL: &str = "util.genus";
const EXTRA: &str = "extra.genus";

/// The main unit; with `acc_set` it also keeps a `TreeSet[Acc]`, whose
/// order the extra unit's `use`d model provides.
fn main_src(n: u64, acc_set: bool) -> String {
    let acc_set = if acc_set {
        "TreeSet[Acc] t = new TreeSet[Acc](); t.add(a); t.add(new Acc());\n  println(\"accs \" + t.size());"
    } else {
        ""
    };
    format!(
        "int main() {{
  ArrayList[int] l = new ArrayList[int]();
  int i = 0;
  while (i < {n}) {{ l.add(i * i); i = i + 1; }}
  TreeSet[int] s = new TreeSet[int]();
  s.add(3); s.add(1); s.add(2);
  Acc a = new Acc();
  a.add(l.get({n} - 1));
  println(\"size \" + l.size());
  {acc_set}
  return s.first() * 100000 + a.get();
}}
"
    )
}

fn util_src(k: u64) -> String {
    format!(
        "class Acc {{
  int total;
  Acc() {{ total = 0; }}
  void add(int x) {{ total = total + x * {k}; }}
  int get() {{ return total; }}
}}
"
    )
}

/// The environment-changing variants of the extra unit.
fn extra_src(variant: usize) -> String {
    match variant {
        0 => "int extraNothing() { return 0; }\n".to_string(),
        // A model for a stdlib constraint that no library goal asks for.
        1 => "model CircleIntersect for Intersectable[Circle] {
  Circle Circle.intersect(Circle c) { return c; }
}
"
        .to_string(),
        2 => "model AccCmp for Comparable[Acc] {
  int compareTo(Acc o) { return get() - o.get(); }
  boolean equals(Acc o) { return get() == o.get(); }
}
use AccCmp;
"
        .to_string(),
        3 => "enrich ShapeIntersect {
  Shape Circle.intersect(Circle c) { return new Shape(\"circle*circle\"); }
}
"
        .to_string(),
        4 => "class Ellipse extends Shape { Ellipse() { kind = \"ellipse\"; } }\n".to_string(),
        5 => "import util;\nint extraTotal() { Acc a = new Acc(); a.add(2); return a.get(); }\n"
            .to_string(),
        _ => unreachable!(),
    }
}
const EXTRA_VARIANTS: usize = 6;

fn bytes(code: &VmProgram) -> Vec<u8> {
    let mut w = ByteWriter::new();
    write_program(&mut w, code);
    w.into_bytes()
}

fn limits() -> Limits {
    Limits {
        fuel: Some(50_000_000),
        ..Limits::default()
    }
}

fn observed(ex: &Execution) -> (Result<String, String>, String, u64) {
    (
        ex.outcome.clone().map_err(|e| e.code().to_string()),
        ex.output.clone(),
        ex.resource_stats.fuel_used,
    )
}

#[test]
fn resumed_session_code_is_the_whole_programs_along_an_edit_stream() {
    let mut rng = SplitMix64::new(0x5E55_10C0);
    let mut s = CompileSession::with_stdlib();
    let (mut n, mut k, mut variant, mut level) = (4u64, 3u64, 0usize, 2u8);
    s.update_source(UTIL, &util_src(k));
    s.update_source(EXTRA, &extra_src(variant));
    s.update_source(MAIN, &main_src(n, false));
    // The (extra variant, level) the session's library segment was last
    // built for: body edits keep it, anything else must rebuild it.
    let mut slot: Option<(usize, u8)> = None;
    // Whether the program or the level changed since the last VM/Tier-2
    // run, so that run builds new bytecode.
    let mut dirty = true;
    let mut env_changes = 0;
    for step in 0..80 {
        // Every edit changes its unit's text, and a level switch drops
        // the session's code: either way the next VM/Tier-2 run builds.
        dirty |= match rng.below(20) {
            0..=9 => {
                n += 1 + rng.below(4);
                s.update_source(MAIN, &main_src(n, variant == 2));
                true
            }
            10..=12 => {
                k += 1 + rng.below(3);
                s.update_source(UTIL, &util_src(k));
                true
            }
            13..=16 => {
                variant =
                    (variant + 1 + rng.below(EXTRA_VARIANTS as u64 - 1) as usize) % EXTRA_VARIANTS;
                s.update_source(EXTRA, &extra_src(variant));
                s.update_source(MAIN, &main_src(n, variant == 2));
                env_changes += 1;
                true
            }
            17 => {
                level = (level + 1) % 3;
                s.opt_level(level);
                true
            }
            _ => false,
        };
        let report = s.check();
        assert!(!report.has_errors(), "step {step}: {:?}", report.diags);
        let engine = *rng.pick(&[
            Engine::Ast,
            Engine::Vm,
            Engine::Vm,
            Engine::Jit,
            Engine::Jit,
        ]);

        let before: CodeStats = s.code_stats();
        let ex = s.execute_checked(engine, limits());
        let after = s.code_stats();
        let prog = s.program().expect("checked");
        let whole = Arc::new(compile_optimized(prog, level));
        let reference = execute_vm_shared(prog, &whole, limits());
        assert!(
            reference.outcome.is_ok(),
            "step {step}: {:?}",
            reference.outcome
        );
        let what = format!("step {step} ({engine:?}, O{level}, extra {variant})");

        if engine == Engine::Ast {
            assert_eq!(after, before, "{what}: an AST run builds no code");
            assert!(s.built_code().is_none() || !dirty, "{what}");
            assert_eq!(ex.outcome, reference.outcome, "{what}");
            assert_eq!(ex.output, reference.output, "{what}");
            continue;
        }
        let held = s.built_code().expect("a VM or Tier-2 run builds bytecode");
        assert!(bytes(&held) == bytes(&whole), "{what}: bytecode differs");
        assert_eq!(held.opt_stats, whole.opt_stats, "{what}");
        let whole_run = match engine {
            Engine::Jit => execute_tier_shared(prog, &compile_tier(&whole), limits()),
            _ => reference,
        };
        assert_eq!(observed(&ex), observed(&whole_run), "{what}");

        let library = (
            after.library_builds - before.library_builds,
            after.library_reuses - before.library_reuses,
        );
        if dirty {
            let want = if slot == Some((variant, level)) {
                (0, 1)
            } else {
                (1, 0)
            };
            assert_eq!(library, want, "{what}: library segment (builds, reuses)");
            slot = Some((variant, level));
            dirty = false;
        } else {
            assert_eq!(library, (0, 0), "{what}: unchanged program");
        }
    }
    let stats = s.code_stats();
    assert!(env_changes >= 8, "the stream must change the environment");
    assert!(stats.library_builds >= 4, "{stats:?}");
    assert!(
        stats.library_reuses > stats.library_builds,
        "most edits reuse the segment: {stats:?}"
    );
}

#[test]
fn an_ast_only_session_builds_no_library_segment() {
    let mut s = CompileSession::with_stdlib();
    s.update_source(UTIL, &util_src(2));
    for n in 3..7 {
        s.update_source(MAIN, &main_src(n, false));
        let ex = s.execute(Engine::Ast, limits()).expect("checks");
        assert!(ex.outcome.is_ok(), "{:?}", ex.outcome);
    }
    assert_eq!(s.code_stats(), CodeStats::default());
    assert!(s.built_code().is_none());
    // The first VM run builds the segment; the next edit reuses it.
    s.execute(Engine::Vm, limits()).expect("checks");
    s.update_source(MAIN, &main_src(9, false));
    s.execute(Engine::Vm, limits()).expect("checks");
    let stats = s.code_stats();
    assert_eq!(
        (stats.library_builds, stats.library_reuses),
        (1, 1),
        "{stats:?}"
    );
    assert_eq!((stats.builds, stats.reuses), (2, 0), "{stats:?}");
}

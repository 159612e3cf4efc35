//! Incremental compilation benchmarks, for a trivial stdlib program and
//! for the largest sample:
//!
//! - `incremental`: cold one-shot checks vs. warm session re-checks after
//!   a one-token edit;
//! - `warm_edit_codegen`: after such an edit, generating the program's
//!   bytecode whole (`compile_optimized` at O2) vs. resuming from the
//!   library segment a session keeps (`link::resume`), as
//!   `CompileSession` does.
//!
//! Besides the criterion report, writes a machine-readable summary to
//! `BENCH_incr.json` at the repository root (the vendored criterion shim
//! has no JSON output).

use criterion::{criterion_group, criterion_main, Criterion};
use genus::link::{resume, Codegen};
use genus::{compile_optimized, CompileSession, Compiler};

const TRIVIAL: &str = "int main() { return 1; }";
const REGISTRY: &str = include_str!("../../../samples/existential_registry.genus");

/// The `n`th one-token body variant of a workload. Every call with a new
/// `n` yields a source the session has never seen, so each warm
/// iteration genuinely re-parses and re-checks the edited unit instead
/// of restoring an old verdict from the LRU.
fn variant(base: &str, n: u64) -> String {
    if base == TRIVIAL {
        format!("int main() {{ return {n}; }}")
    } else {
        base.replacen("return", &format!("return /*w{n}*/"), 1)
    }
}

/// Minimum-of-N wall-clock for one closure, with warmup. Alternating
/// interleave is pointless here (cold and warm share no mutable state),
/// so a plain min keeps the code obvious.
fn min_ns<F: FnMut()>(mut f: F, samples: usize) -> f64 {
    for _ in 0..2 {
        f();
    }
    let mut best = f64::INFINITY;
    for _ in 0..samples {
        let start = std::time::Instant::now();
        f();
        best = best.min(start.elapsed().as_nanos() as f64);
    }
    best
}

/// A cold check: a fresh compiler, stdlib and all, from source text.
fn cold_check(src: &str) {
    let report = Compiler::new()
        .with_stdlib()
        .source("main.genus", src)
        .check_report();
    assert!(!report.has_errors(), "bench program must check");
}

/// One warm re-check on an already-checked session: apply the next
/// one-token variant of the user unit and re-run the query pipeline.
fn warm_recheck(session: &mut CompileSession, n: &mut u64, base: &str) {
    *n += 1;
    session.update_source("main.genus", &variant(base, *n));
    assert!(!session.check().has_errors(), "bench program must check");
}

/// One edit's codegen, whole and resumed from `lib`: `(whole_ns,
/// resumed_ns)`. The edit is applied and checked outside the timings.
fn edit_codegen_ns(
    session: &mut CompileSession,
    n: &mut u64,
    base: &str,
    lib: &Codegen,
) -> (f64, f64) {
    warm_recheck(session, n, base);
    let prog = session.program().expect("bench program checks");
    let start = std::time::Instant::now();
    let whole = compile_optimized(prog, 2);
    let whole_ns = start.elapsed().as_nanos() as f64;
    let start = std::time::Instant::now();
    let resumed = resume(lib.clone(), prog);
    let resumed_ns = start.elapsed().as_nanos() as f64;
    assert_eq!(whole.funcs.len(), resumed.funcs.len());
    assert_eq!(whole.opt_stats, resumed.opt_stats);
    (whole_ns, resumed_ns)
}

fn bench_incremental(c: &mut Criterion) {
    assert_ne!(
        REGISTRY,
        variant(REGISTRY, 1),
        "edit must change the source"
    );
    let workloads: [(&str, &str); 2] = [
        ("stdlib_trivial", TRIVIAL),
        ("existential_registry", REGISTRY),
    ];
    let mut rows = Vec::new();
    let mut g = c.benchmark_group("incremental");
    g.sample_size(10);
    for (name, base) in &workloads {
        g.bench_function(format!("{name}_cold"), |bch| bch.iter(|| cold_check(base)));
        let mut session = CompileSession::with_stdlib();
        session.update_source("main.genus", &variant(base, 0));
        assert!(!session.check().has_errors());
        let mut n = 0u64;
        g.bench_function(format!("{name}_warm"), |bch| {
            bch.iter(|| warm_recheck(&mut session, &mut n, base))
        });

        let cold_ns = min_ns(|| cold_check(base), 15);
        let mut session = CompileSession::with_stdlib();
        session.update_source("main.genus", &variant(base, 0));
        assert!(!session.check().has_errors());
        let before = session.stats();
        let mut n = 0u64;
        let warm_ns = min_ns(|| warm_recheck(&mut session, &mut n, base), 15);
        let after = session.stats();
        let checks = after.checks - before.checks;
        let reused = after.units_not_rechecked() - before.units_not_rechecked();
        let rechecked = after.units_rechecked - before.units_rechecked;
        let reuse_rate = reused as f64 / (reused + rechecked) as f64;
        let speedup = cold_ns / warm_ns;
        // The point of the session pipeline: a one-token edit must be
        // at least 5x cheaper than a from-scratch check.
        assert!(
            speedup >= 5.0,
            "warm re-check of `{name}` only {speedup:.1}x faster than cold"
        );
        assert_eq!(rechecked, checks, "exactly the edited unit re-checks");
        rows.push(format!(
            "    \"{name}\": {{\"cold_ns\": {cold_ns:.0}, \"warm_ns\": {warm_ns:.0}, \"warm_speedup\": {speedup:.3}, \"units_reused_per_recheck\": {}, \"units_rechecked_per_recheck\": {}, \"reuse_rate\": {reuse_rate:.3}}}",
            reused / checks,
            rechecked / checks
        ));
    }
    g.finish();

    let mut codegen_rows = Vec::new();
    let mut g = c.benchmark_group("warm_edit_codegen");
    g.sample_size(10);
    for (name, base) in &workloads {
        let mut session = CompileSession::with_stdlib();
        session.update_source("main.genus", &variant(base, 0));
        assert!(!session.check().has_errors());
        // Body edits keep the library's verdicts, so one segment serves
        // every edit, as in a session.
        let lib = Codegen::library(session.program().expect("checks"), 2);
        let mut n = 0u64;
        g.bench_function(format!("{name}_whole"), |bch| {
            bch.iter(|| {
                warm_recheck(&mut session, &mut n, base);
                compile_optimized(session.program().expect("checks"), 2)
            })
        });
        g.bench_function(format!("{name}_resumed"), |bch| {
            bch.iter(|| {
                warm_recheck(&mut session, &mut n, base);
                resume(lib.clone(), session.program().expect("checks"))
            })
        });
        // Min-of-N per form, whole and resumed timed on the same edit.
        let (mut whole_ns, mut resumed_ns) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..15 {
            let (w, r) = edit_codegen_ns(&mut session, &mut n, base, &lib);
            whole_ns = whole_ns.min(w);
            resumed_ns = resumed_ns.min(r);
        }
        let speedup = whole_ns / resumed_ns;
        assert!(
            speedup >= 2.0,
            "resumed codegen of `{name}` only {speedup:.1}x faster than whole"
        );
        codegen_rows.push(format!(
            "    \"{name}\": {{\"whole_ns\": {whole_ns:.0}, \"resumed_ns\": {resumed_ns:.0}, \"speedup\": {speedup:.3}}}"
        ));
    }
    g.finish();

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let json = format!(
        "{{\n  \"bench\": \"incremental_recheck\",\n  \"min_of\": 15,\n  \"cores\": {cores},\n  \"target_warm_speedup\": 5.0,\n  \"workloads\": {{\n{}\n  }},\n  \"warm_edit_codegen\": {{\n{}\n  }}\n}}\n",
        rows.join(",\n"),
        codegen_rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_incr.json");
    std::fs::write(path, &json).expect("write BENCH_incr.json");
    eprintln!("wrote {path}");
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_incremental
}
criterion_main!(benches);

//! Integration tests for incremental compile sessions at the facade
//! level: dependency-directed invalidation across `import` modules,
//! verdict-LRU eviction accounting, and parity between warm re-checks
//! and from-scratch one-shot checks.

use genus_repro::{CompileSession, Compiler, Engine, Limits};

/// Four closed modules in two independent import pairs:
/// `base <-> dep` and `sib <-> sib2`. Mutual imports keep every unit
/// closed (a unit with no imports is open, and open units are visible
/// everywhere, which would defeat dependency-directed invalidation).
const BASE: &str = "import dep;\nclass Base { Base() { } int id() { return 1; } }\n";
const DEP: &str =
    "import base;\nclass Dep { Dep() { } int callBase() { return new Base().id(); } }\n";
const SIB: &str = "import sib2;\nclass Sib { Sib() { } int s() { return new Sib2().t(); } }\n";
const SIB2: &str = "import sib;\nclass Sib2 { Sib2() { } int t() { return 2; } }\n";

fn module_session() -> CompileSession {
    let mut s = CompileSession::new();
    s.update_source("base.genus", BASE);
    s.update_source("dep.genus", DEP);
    s.update_source("sib.genus", SIB);
    s.update_source("sib2.genus", SIB2);
    s
}

#[test]
fn interface_edit_invalidates_dependents_not_siblings() {
    let mut s = module_session();
    assert!(!s.check().has_errors());
    let before = s.stats();
    // Interface edit: `int id()` becomes `long id()`. `dep` must be
    // re-checked (its import's interface changed — and now mis-types);
    // the sibling pair's verdicts survive the prefix rebuild via the
    // verdict LRU.
    s.update_source(
        "base.genus",
        "import dep;\nclass Base { Base() { } long id() { return 1; } }\n",
    );
    let report = s.check();
    assert!(report.has_errors(), "long -> int narrowing in dep");
    let after = s.stats();
    assert_eq!(
        after.units_rechecked - before.units_rechecked,
        2,
        "exactly base + dep re-check: {after:?}"
    );
    assert!(
        after.units_restored - before.units_restored >= 3,
        "prelude + sib + sib2 restored from the LRU: {after:?}"
    );
}

#[test]
fn body_edit_keeps_the_semantic_prefix() {
    let mut s = module_session();
    assert!(!s.check().has_errors());
    let before = s.stats();
    // Body-only edit: same interface fingerprint, so the collect/wf
    // prefix is patched in place and only `base` itself re-checks.
    s.update_source(
        "base.genus",
        "import dep;\nclass Base { Base() { } int id() { return 2; } }\n",
    );
    assert!(!s.check().has_errors());
    let after = s.stats();
    assert_eq!(after.prefix_rebuilt, before.prefix_rebuilt, "prefix reused");
    assert_eq!(after.units_patched - before.units_patched, 1);
    assert_eq!(after.units_rechecked - before.units_rechecked, 1);
    assert_eq!(after.units_reused - before.units_reused, 4, "{after:?}");
}

#[test]
fn verdict_lru_eviction_is_counted_and_harmless() {
    let mut s = CompileSession::new();
    // Cycle through more distinct programs than the verdict LRU holds.
    // Every check stays correct; the eviction counter records the cap.
    for i in 0..140u32 {
        s.update_source("main.genus", &format!("int main() {{ return {i}; }}"));
        assert!(!s.check().has_errors(), "iteration {i}");
    }
    let stats = s.stats();
    assert!(
        stats.verdict_evictions > 0,
        "cycling 140 programs must evict: {stats:?}"
    );
    // A fresh-looking old version is simply re-checked, not corrupted.
    s.update_source("main.genus", "int main() { return 0; }");
    let mut runner = s;
    let r = runner.run(Engine::Vm, Limits::default()).unwrap();
    assert_eq!(r.rendered_value, "0");
}

#[test]
fn warm_recheck_diagnostics_match_one_shot() {
    // A program with both a warning and (after the edit) an error.
    let v1 = "int main() { int unused = 1; return 3; }";
    let v2 = "int main() { int unused = 1; return nope; }";
    let mut s = CompileSession::with_stdlib();
    s.update_source("main.genus", v1);
    s.check();
    s.update_source("main.genus", v2);
    let warm = s.check();
    let scratch = Compiler::new().with_stdlib().source("main.genus", v2);
    let report = scratch.check_report();
    assert_eq!(
        warm.diags, report.diags,
        "warm == from-scratch, byte for byte"
    );
}

#[test]
fn import_errors_have_stable_codes_at_the_facade() {
    let mut s = CompileSession::new();
    s.update_source("main.genus", "import nowhere;\nint main() { return 1; }");
    let r = s.check();
    assert_eq!(r.diags.len(), 1, "{:?}", r.diags);
    assert_eq!(r.diags[0].code, "E0801");
    // Referencing a module that exists but was not imported is E0802.
    s.update_source("util.genus", "import main;\nclass Util { Util() { } }");
    s.update_source(
        "main.genus",
        "import util;\nint main() { Util u = new Util(); return 1; }",
    );
    let r = s.check();
    assert!(!r.has_errors(), "{:?}", r.diags);
    s.update_source("extra.genus", "import main;\nclass Extra { Extra() { } }");
    s.update_source(
        "main.genus",
        "import util;\nint main() { Extra e = new Extra(); return 1; }",
    );
    let r = s.check();
    assert!(
        r.diags.iter().any(|d| d.code == "E0802"),
        "unimported reference: {:?}",
        r.diags
    );
}

#[test]
fn seeded_stdlib_parses_survive_hundreds_of_edits() {
    // The stdlib's parses are seeded from the process-wide memo and
    // pinned outside the parse cache's FIFO bound: more distinct edits
    // than that bound must parse the edited unit only, never the stdlib
    // again.
    let mut s = CompileSession::with_stdlib();
    for i in 0..300 {
        s.update_source("main.genus", &format!("int main() {{ return {i}; }}"));
        assert!(!s.check().has_errors());
    }
    assert_eq!(s.stats().parse_new, 300);
}

//! Parity of the stdlib-base path with the whole-program compile.
//!
//! A stateless stdlib request is checked as an extension of the
//! process-wide stdlib base (`genus_check::base`) and its bytecode is
//! linked against the stdlib's prebuilt code (`genus_vm::link`). These
//! tests pin that the result is indistinguishable from checking and
//! compiling the whole program the way `genus run` does: byte-identical
//! rendered diagnostics, byte-identical bytecode at O0 and O2, and the
//! same value, output and fuel on the VM and on Tier 2. Programs that open
//! one of the guard's channels must fall back to the whole-program check
//! (and still agree).

use genus_check::base::{check_with_stdlib, stdlib_base, Fallback, StdlibBase};
use genus_check::{CheckReport, CheckedProgram};
use genus_common::{ByteWriter, ErrorFormat};
use genus_repro::{
    compile_optimized, compile_tier, execute_tier_shared, execute_vm_shared, Execution, Limits,
};
use genus_serve::ProgramCache;
use genus_vm::link::resume;
use genus_vm::run::Compiled;
use genus_vm::{link_to_stdlib, write_program, Codegen, VmProgram};
use std::sync::Arc;

const UNIT: &str = "request.genus";
const FUEL: u64 = 50_000_000;

fn rendered(r: &CheckReport) -> (String, String) {
    (r.render(ErrorFormat::Human), r.render(ErrorFormat::Json))
}

fn bytes(code: &VmProgram) -> Vec<u8> {
    let mut w = ByteWriter::new();
    write_program(&mut w, code);
    w.into_bytes()
}

fn limits() -> Limits {
    Limits {
        fuel: Some(FUEL),
        ..Limits::default()
    }
}

/// What a run observably produced: value or trap, output, fuel.
fn observe(ex: &Execution) -> (String, String, u64) {
    let outcome = match &ex.outcome {
        Ok(v) => format!("ok {v}"),
        Err(e) => format!("trap {e:?}"),
    };
    (outcome, ex.output.clone(), ex.resource_stats.fuel_used)
}

fn run_both(prog: &CheckedProgram, code: VmProgram) -> [(String, String, u64); 2] {
    let code = Arc::new(code);
    let vm = observe(&execute_vm_shared(prog, &code, limits()));
    let jit = observe(&execute_tier_shared(prog, &compile_tier(&code), limits()));
    [vm, jit]
}

/// Asserts the base path reproduces the whole-program compile of `src`
/// (which must take the base path) and returns the base report.
fn assert_parity(what: &str, src: &str) -> CheckReport {
    let base = stdlib_base()
        .extend(UNIT, src)
        .unwrap_or_else(|f| panic!("{what}: unexpected fallback ({f:?})"));
    let whole = check_with_stdlib(UNIT, src);
    assert_eq!(rendered(&base), rendered(&whole), "{what}: diagnostics");
    assert_eq!(base.program.is_some(), whole.program.is_some(), "{what}");
    if let (Some(bp), Some(wp)) = (&base.program, &whole.program) {
        // The code holder links the base path and compiles the whole one.
        assert!(bp.extends_stdlib_base(), "{what}: base program unmarked");
        assert!(!wp.extends_stdlib_base(), "{what}: whole program marked");
        for level in [0, 2] {
            let linked = link_to_stdlib(bp, level);
            let full = compile_optimized(wp, level);
            assert!(
                bytes(&linked) == bytes(&full),
                "{what}: bytecode differs at O{level}"
            );
            assert!(
                bytes(&Compiled::new(level).vm_code(bp)) == bytes(&full),
                "{what}: held bytecode differs at O{level}"
            );
            assert_eq!(linked.opt_stats, full.opt_stats, "{what}: O{level} stats");
            assert_eq!(
                run_both(bp, linked),
                run_both(wp, full),
                "{what}: run results at O{level}"
            );
        }
    }
    base
}

fn samples() -> Vec<(String, String)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/samples");
    let mut out: Vec<(String, String)> = std::fs::read_dir(dir)
        .expect("samples dir")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "genus"))
        .map(|p| {
            let src = std::fs::read_to_string(&p).expect("read sample");
            (p.display().to_string(), src)
        })
        .collect();
    out.sort();
    assert!(out.len() >= 7, "expected the sample programs");
    out
}

/// The triggering programs of `docs/ERRORS.md` (one per documented code)
/// plus the rendering goldens' ambiguity fixture.
fn error_fixtures() -> Vec<String> {
    let doc = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/docs/ERRORS.md"))
        .expect("docs/ERRORS.md");
    let mut out = Vec::new();
    let mut cur: Option<String> = None;
    for line in doc.lines() {
        match (&mut cur, line) {
            (None, "```genus") => cur = Some(String::new()),
            (Some(s), "```") => {
                out.push(std::mem::take(s));
                cur = None;
            }
            (Some(s), l) => {
                s.push_str(l);
                s.push('\n');
            }
            (None, _) => {}
        }
    }
    out.push(
        "model RevIntCmp for Comparable[int] {
  boolean equals(int that) { return this == that; }
  int compareTo(int that) { return 0 - this.compareTo(that); }
}
use RevIntCmp;
void main() {
  TreeSet[int] s = new TreeSet[int]();
}
"
        .to_string(),
    );
    assert!(out.len() > 40, "expected the documented error programs");
    out
}

/// Programs shaped like the four stateless templates of the benchmark's
/// `cold_distinct` workload: a generic sort with a reversing model, a
/// case-insensitive word count, an existential registry and a model
/// multimethod over a subclass.
fn templates(k: i64) -> Vec<String> {
    vec![
        format!(
            "model Desc for Comparable[int] {{
  boolean equals(int other) {{ return this == other; }}
  int compareTo(int other) {{ return other - this; }}
}}
void sort[T](List[T] xs) where Comparable[T] {{
  int n = xs.size();
  for (int i = 1; i < n; i = i + 1) {{
    T x = xs.get(i);
    int j = i;
    while (j > 0 && xs.get(j - 1).compareTo(x) > 0) {{ xs.set(j, xs.get(j - 1)); j = j - 1; }}
    xs.set(j, x);
  }}
}}
int main() {{
  ArrayList[int] xs = new ArrayList[int]();
  int x = {k};
  for (int i = 0; i < 20; i = i + 1) {{ x = (x * 75 + 74) % 65537; xs.add(x % 1000); }}
  sort[int with Desc](xs);
  println(\"head \" + xs.get(0));
  return xs.get(0) + {k};
}}
"
        ),
        format!(
            "model CIHash for Hashable[String] {{
  boolean equals(String other) {{ return equalsIgnoreCase(other); }}
  int hashCode() {{ return toLowerCase().hashCode(); }}
}}
int main() {{
  ArrayList[String] words = new ArrayList[String]();
  words.add(\"Apple\"); words.add(\"apple\"); words.add(\"Pear\"); words.add(\"w{k}\");
  HashMap[String, int with CIHash] freq = new HashMap[String, int with CIHash]();
  for (String w : words) {{
    if (freq.containsKey(w)) {{ freq.put(w, freq.get(w) + 1); }} else {{ freq.put(w, 1); }}
  }}
  println(\"keys \" + freq.size());
  return freq.size() * 1000 + freq.get(\"APPLE\") * 10 + {k};
}}
"
        ),
        format!(
            "constraint Describe[T] {{ String describe(); }}
model IntDesc for Describe[int] {{ String describe() {{ return \"i\" + this; }} }}
model StrDesc for Describe[String] {{ String describe() {{ return \"w:\" + this; }} }}
[some T where Describe[T]] List[T] seal[T](ArrayList[T] l) where Describe[T] d {{ return l; }}
[some T where Describe[T]] List[T] numbers() {{
  ArrayList[int] l = new ArrayList[int](); l.add({k}); l.add(7);
  return seal[int with IntDesc](l);
}}
String describeAll[T](List[T] l) where Describe[T] {{
  String out = \"\";
  for (T x : l) {{ out = out + \"[\" + x.describe() + \"]\"; }}
  return out;
}}
int main() {{
  [A] (List[A] a) where Describe[A] da = numbers();
  String s = describeAll[A with da](a);
  println(s);
  return s.length();
}}
"
        ),
        format!(
            "constraint Mix[T] {{ int T.mix(T that); }}
class Cell {{ int v; Cell() {{ }} }}
class Hot extends Cell {{ Hot() {{ }} }}
model M for Mix[Cell] {{
  int Cell.mix(Cell o) {{ return this.v + o.v * 2; }}
  int Hot.mix(Cell o) {{ return this.v * 3 - o.v; }}
  int Cell.mix(Hot o) {{ return this.v - o.v * {k}; }}
  int Hot.mix(Hot o) {{ return this.v * o.v + 1; }}
}}
int main() {{
  Cell[] xs = new Cell[10];
  for (int i = 0; i < 10; i = i + 1) {{
    Cell c = new Cell();
    if (i % 3 == 0) {{ c = new Hot(); }}
    c.v = i + 1;
    xs[i] = c;
  }}
  int s = 0;
  for (int i = 0; i + 1 < 10; i = i + 1) {{ s = s + xs[i].(M.mix)(xs[i + 1]); }}
  println(\"mixed \" + s);
  return s;
}}
"
        ),
    ]
}

#[test]
fn samples_take_the_base_path_and_agree() {
    for (name, src) in samples() {
        let r = assert_parity(&name, &src);
        assert!(r.program.is_some(), "{name} checks");
    }
}

#[test]
fn error_fixtures_agree_on_either_path() {
    let mut on_base = 0;
    for (i, src) in error_fixtures().iter().enumerate() {
        let what = format!("error fixture {i}");
        match stdlib_base().extend(UNIT, src) {
            Ok(_) => {
                assert_parity(&what, src);
                on_base += 1;
            }
            Err(_) => {
                // The fallback is the whole-program check itself; the
                // serve path below pins that it is what gets reported.
            }
        }
    }
    assert!(
        on_base > 30,
        "most error fixtures extend the base ({on_base})"
    );
}

#[test]
fn benchmark_shaped_templates_take_the_base_path_and_agree() {
    for k in [3, 11] {
        for (i, src) in templates(k).iter().enumerate() {
            let r = assert_parity(&format!("template {i} (k = {k})"), src);
            assert!(r.program.is_some(), "template {i} checks");
        }
    }
}

/// One program per guard channel.
fn channel_programs() -> Vec<(&'static str, Fallback)> {
    let sym = genus_common::Symbol::intern;
    vec![
        (
            "import collections;\nint main() { return 1; }",
            Fallback::Import,
        ),
        (
            "model RevIntCmp for Comparable[int] {
  boolean equals(int that) { return this == that; }
  int compareTo(int that) { return that - this; }
}
use RevIntCmp;
int main() { TreeSet[int] s = new TreeSet[int](); s.add(2); s.add(1); return s.first(); }",
            Fallback::Use,
        ),
        (
            "enrich ShapeIntersect { Shape Circle.intersect(Circle c) { return c; } }
int main() { return 0; }",
            Fallback::Enrich(sym("ShapeIntersect")),
        ),
        (
            "class ArrayList { } int main() { return 0; }",
            Fallback::Name(sym("ArrayList")),
        ),
        (
            "class Comparable { } int main() { return 0; }",
            Fallback::Name(sym("Comparable")),
        ),
        (
            // `list.size()` in `ArrayListIterator` names a field of `this`
            // as a bare receiver, which a class `list` would capture.
            "class list { } int main() { return 0; }",
            Fallback::Name(sym("list")),
        ),
        (
            // `cur.item` in `LinkedListIterator` would read this static
            // field instead of the node's.
            "class cur { static int item; } int main() { return 0; }",
            Fallback::Name(sym("cur")),
        ),
        (
            "int sortList() { return 0; } int main() { return sortList(); }",
            Fallback::Name(sym("sortList")),
        ),
        (
            "constraint Shower[T] { String show(TreeSet[T with ReverseCmp[T]] s); }
int main() { return 0; }",
            Fallback::PhaseOrder(sym("ReverseCmp")),
        ),
        (
            "class Square extends Rectangle { Square() { kind = \"square\"; } }
int main() { return 0; }",
            Fallback::Subclass(sym("Square")),
        ),
    ]
}

#[test]
fn every_guard_channel_falls_back_and_agrees() {
    let cache = ProgramCache::new();
    for (i, (src, channel)) in channel_programs().into_iter().enumerate() {
        let got = stdlib_base().extend(UNIT, src);
        let Err(f) = got else {
            panic!("program {i} must open channel {channel:?}");
        };
        assert_eq!(f, channel, "program {i}");
        let before = cache.stats();
        let (served, _) = cache.get_or_compile(src, true, 2);
        let after = cache.stats();
        assert_eq!(after.compiles, before.compiles + 1, "one compile per miss");
        assert_eq!(
            after.base_fallbacks,
            before.base_fallbacks + 1,
            "program {i} counted as a fallback"
        );
        let whole = check_with_stdlib(UNIT, src);
        match served {
            Ok(entry) => {
                let wp = whole.program.as_ref().expect("whole program checks too");
                let code = entry.vm_code();
                assert!(
                    bytes(&code) == bytes(&compile_optimized(wp, 2)),
                    "program {i}"
                );
            }
            Err(msg) => assert_eq!(msg, whole.render_errors_short(), "program {i}"),
        }
    }
}

#[test]
fn declared_model_fallback_is_guarded() {
    // The stdlib resolves no goal by declared-model fallback, so the
    // channel is pinned on a small library that does: `libTag` resolves
    // `Tag[int]` through the only declared model.
    let lib = "constraint Tag[T] { int tag(); }
model IntTag for Tag[int] { int tag() { return 7; } }
int get[T](T x) where Tag[T] { return x.tag(); }
int libTag() { return get(1); }
";
    let base = StdlibBase::with_library(&[("tags.genus", lib)]);
    // A second model for the constraint turns the library's own goal
    // ambiguous: only the whole-program check can see that.
    let client = "model OtherTag for Tag[int] { int tag() { return 8; } }
int main() { return libTag(); }";
    assert_eq!(
        base.extend(UNIT, client).unwrap_err(),
        Fallback::DeclaredModel(genus_common::Symbol::intern("OtherTag"))
    );
    let whole = base.check_whole(UNIT, client);
    assert!(
        whole.error_codes().contains(&"E0401"),
        "{:?}",
        whole.error_codes()
    );
    // A client that leaves the constraint alone extends the base, and the
    // base's code plus the client's segment is the whole program's code.
    let plain = "int main() { return libTag() * 10 + get(2); }";
    let ext = base.extend(UNIT, plain).expect("no channel open");
    let whole = base.check_whole(UNIT, plain);
    assert_eq!(rendered(&ext), rendered(&whole));
    let (ep, wp) = (ext.program.unwrap(), whole.program.unwrap());
    // Only the process-wide stdlib base has prebuilt code to link to.
    assert!(!ep.extends_stdlib_base());
    let library = Codegen::library(base.program().expect("library checks"), 2);
    let linked = resume(library, &ep);
    let full = compile_optimized(&wp, 2);
    assert!(bytes(&linked) == bytes(&full));
    assert_eq!(run_both(&ep, linked), run_both(&wp, full));
}

#[test]
fn a_model_declared_by_one_request_does_not_leak_into_the_next() {
    // Request A declares a model for a fresh constraint and resolves it by
    // declared-model fallback; request B declares the same constraint
    // with no model, so the same goal must fail there — a memo entry from
    // A replayed into B would make B check.
    let a = "constraint Tag[T] { int tag(); }
model IntTag for Tag[int] { int tag() { return 7; } }
int get[T](T x) where Tag[T] { return x.tag(); }
int main() { return get(1); }";
    let b = "constraint Tag[T] { int tag(); }
int get[T](T x) where Tag[T] { return x.tag(); }
int main() { return get(1); }";
    let ra = assert_parity("request A", a);
    assert!(
        ra.program.is_some(),
        "A resolves Tag[int] through its model"
    );
    let rb = assert_parity("request B", b);
    assert!(rb.program.is_none(), "B has no model for Tag[int]");
    // And A again, after B: still checks.
    assert!(assert_parity("request A again", a).program.is_some());
}

#[test]
fn serve_counts_base_compiles_as_compiles_not_fallbacks() {
    let cache = ProgramCache::new();
    for k in 0..4 {
        let src = format!("int main() {{ ArrayList[int] l = new ArrayList[int](); l.add({k}); return l.get(0); }}");
        let (r, hit) = cache.get_or_compile(&src, true, 2);
        assert!(!hit);
        let entry = r.expect("checks");
        let mut vm = genus_repro::Vm::with_code(&entry.prog, entry.vm_code());
        let v = vm.run_main().expect("runs");
        assert_eq!(vm.render(&v), k.to_string());
    }
    let s = cache.stats();
    assert_eq!((s.compiles, s.base_fallbacks), (4, 0));
}

#[test]
fn a_library_with_diagnostics_freezes_nothing() {
    // A warning in the library itself (W0001, unreachable statement):
    // no verdict is frozen, so every unit takes the whole-program path.
    let base = StdlibBase::with_library(&[("warn.genus", "int lib() { return 1; int x = 2; }\n")]);
    assert!(base.program().is_none());
    assert_eq!(
        base.extend(UNIT, "int main() { return lib(); }")
            .unwrap_err(),
        Fallback::BaseDiagnostics
    );
}

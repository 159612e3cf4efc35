//! Seeded input generation and the independent reference.
//!
//! Every generated Genus program comes with the value `main()` must
//! return and the text it must print. Both are computed here, in Rust,
//! from the same seeded parameters that were spliced into the source —
//! never by running an engine under test. The generators depend on no
//! repository code (their own RNG, their own formatting), so one seed
//! yields byte-identical inputs on every commit.

/// SplitMix64: small, fast, and fully specified here so inputs never
/// change when a library's RNG does.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for item `index` of stream `salt` under
    /// `seed`, so item `i` does not depend on how many items came before.
    pub fn derive(seed: u64, salt: u64, index: u64) -> Rng {
        let mut r = Rng(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mix = r.next_u64() ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03);
        Rng(mix)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        let span = u64::try_from(hi - lo + 1).expect("non-empty range");
        lo + i64::try_from(self.next_u64() % span).expect("span fits i64")
    }

    pub fn coin(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = usize::try_from(self.next_u64() % (i as u64 + 1)).expect("index fits");
            xs.swap(i, j);
        }
    }
}

/// A generated program and what it must produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    pub source: String,
    /// `main()`'s rendered return value.
    pub value: String,
    /// Everything the program prints.
    pub output: String,
}

/// The Park–Miller-style generator the Genus templates run in-program
/// (`x = (x * 75 + 74) % 65537`): operands stay far inside `int`.
fn lcg(x: i64) -> i64 {
    (x * 75 + 74) % 65537
}

/// Templates shaped like the shipped samples; a stateless request draws
/// one of them with seeded parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Template {
    /// Generic insertion sort under a `Comparable` model (natural or a
    /// user `Desc` model), like `samples/comparator_sort.genus`.
    Sort,
    /// `HashMap` word count under a case-insensitive `Hashable` model,
    /// like `samples/ci_word_count.genus`.
    WordCount,
    /// Existential packages opened with their witnesses, like
    /// `samples/existential_registry.genus`.
    Registry,
    /// A model multimethod dispatching on receiver and argument classes
    /// (Figure 8's `ShapeIntersect` shape).
    Multimethod,
}

pub const TEMPLATES: [Template; 4] = [
    Template::Sort,
    Template::WordCount,
    Template::Registry,
    Template::Multimethod,
];

const VOCAB: [&str; 8] = [
    "apple", "pear", "fig", "kiwi", "plum", "lime", "date", "yuzu",
];

/// Request `index` of a stateless stream under `seed`. Templates rotate
/// so every run has the same mix; `index` is spliced in as a salt, so
/// the sources of one run are pairwise distinct by construction.
pub fn cold_program(seed: u64, index: u64) -> Program {
    let mut rng = Rng::derive(seed, 1, index);
    let salt = i64::try_from(index).expect("index fits") + 1;
    match TEMPLATES[usize::try_from(index % 4).expect("small")] {
        Template::Sort => sort_program(&mut rng, salt),
        Template::WordCount => word_count_program(&mut rng, salt),
        Template::Registry => registry_program(&mut rng, salt),
        Template::Multimethod => multimethod_program(&mut rng, salt),
    }
}

fn sort_program(rng: &mut Rng, salt: i64) -> Program {
    let n = rng.range(16, 32);
    let x0 = rng.range(1, 60000);
    let desc = rng.coin();
    let mut xs = Vec::new();
    let mut x = x0;
    for _ in 0..n {
        x = lcg(x);
        xs.push(x % 1000);
    }
    xs.sort_unstable();
    if desc {
        xs.reverse();
    }
    let s: i64 = xs.iter().zip(1..).map(|(v, i)| v * i).sum();
    let call = if desc { "[int with Desc]" } else { "" };
    let source = format!(
        "// generic sort, variant {salt}
model Desc for Comparable[int] {{
  boolean equals(int other) {{ return this == other; }}
  int compareTo(int other) {{ return other - this; }}
}}
void sort[T](List[T] xs) where Comparable[T] {{
  int n = xs.size();
  for (int i = 1; i < n; i = i + 1) {{
    T x = xs.get(i);
    int j = i;
    while (j > 0 && xs.get(j - 1).compareTo(x) > 0) {{
      xs.set(j, xs.get(j - 1));
      j = j - 1;
    }}
    xs.set(j, x);
  }}
}}
int main() {{
  ArrayList[int] xs = new ArrayList[int]();
  int x = {x0};
  for (int i = 0; i < {n}; i = i + 1) {{ x = (x * 75 + 74) % 65537; xs.add(x % 1000); }}
  sort{call}(xs);
  int s = 0;
  for (int i = 0; i < {n}; i = i + 1) {{ s = s + xs.get(i) * (i + 1); }}
  println(\"sorted {n} head \" + xs.get(0));
  return s + {salt};
}}
"
    );
    Program {
        source,
        value: (s + salt).to_string(),
        output: format!("sorted {n} head {}\n", xs[0]),
    }
}

/// `word` with each letter's case drawn from `rng`.
fn recase(rng: &mut Rng, word: &str) -> String {
    word.chars()
        .map(|c| {
            if rng.coin() {
                c.to_ascii_uppercase()
            } else {
                c
            }
        })
        .collect()
}

fn word_count_program(rng: &mut Rng, salt: i64) -> Program {
    let k = rng.range(8, 16);
    let words: Vec<String> = (0..k)
        .map(|_| {
            let w = VOCAB[usize::try_from(rng.range(0, 7)).expect("small")];
            recase(rng, w)
        })
        .collect();
    let probe_of = usize::try_from(rng.range(0, k - 1)).expect("small");
    let probe = recase(rng, &words[probe_of].to_ascii_lowercase());
    let mut keys: Vec<String> = words.iter().map(|w| w.to_ascii_lowercase()).collect();
    keys.sort();
    keys.dedup();
    let hits = words
        .iter()
        .filter(|w| w.eq_ignore_ascii_case(&probe))
        .count();
    let adds: String = words
        .iter()
        .map(|w| format!("  words.add(\"{w}\");\n"))
        .collect();
    let source = format!(
        "// case-insensitive word count, variant {salt}
model CIHash for Hashable[String] {{
  boolean equals(String other) {{ return equalsIgnoreCase(other); }}
  int hashCode() {{ return toLowerCase().hashCode(); }}
}}
int main() {{
  ArrayList[String] words = new ArrayList[String]();
{adds}  HashMap[String, int with CIHash] freq = new HashMap[String, int with CIHash]();
  for (String w : words) {{
    if (freq.containsKey(w)) {{ freq.put(w, freq.get(w) + 1); }} else {{ freq.put(w, 1); }}
  }}
  println(\"keys \" + freq.size());
  return freq.size() * 1000 + freq.get(\"{probe}\") * 10 + {salt};
}}
"
    );
    let n_keys = i64::try_from(keys.len()).expect("small");
    let n_hits = i64::try_from(hits).expect("small");
    Program {
        source,
        value: (n_keys * 1000 + n_hits * 10 + salt).to_string(),
        output: format!("keys {n_keys}\n"),
    }
}

fn registry_program(rng: &mut Rng, salt: i64) -> Program {
    let nums: Vec<i64> = (0..rng.range(2, 5)).map(|_| rng.range(0, 999)).collect();
    let words: Vec<&str> = (0..rng.range(2, 4))
        .map(|_| VOCAB[usize::try_from(rng.range(0, 7)).expect("small")])
        .collect();
    let s1: String = nums.iter().map(|n| format!("[i{n}]")).collect();
    let s2: String = words.iter().map(|w| format!("[w:{w}]")).collect();
    let num_adds: String = nums.iter().map(|n| format!(" l.add({n});")).collect();
    let word_adds: String = words.iter().map(|w| format!(" l.add(\"{w}\");")).collect();
    let source = format!(
        "// existential registry, variant {salt}
constraint Describe[T] {{ String describe(); }}
model IntDesc for Describe[int] {{ String describe() {{ return \"i\" + this; }} }}
model StrDesc for Describe[String] {{ String describe() {{ return \"w:\" + this; }} }}
[some T where Describe[T]] List[T] seal[T](ArrayList[T] l) where Describe[T] d {{ return l; }}
[some T where Describe[T]] List[T] numbers() {{
  ArrayList[int] l = new ArrayList[int]();{num_adds}
  return seal[int with IntDesc](l);
}}
[some T where Describe[T]] List[T] words() {{
  ArrayList[String] l = new ArrayList[String]();{word_adds}
  return seal[String with StrDesc](l);
}}
String describeAll[T](List[T] l) where Describe[T] {{
  String out = \"\";
  for (T x : l) {{ out = out + \"[\" + x.describe() + \"]\"; }}
  return out;
}}
int main() {{
  [A] (List[A] a) where Describe[A] da = numbers();
  String s1 = describeAll[A with da](a);
  [B] (List[B] b) where Describe[B] db = words();
  String s2 = describeAll[B with db](b);
  println(s1);
  println(s2);
  return s1.length() * 100 + s2.length() + {salt};
}}
"
    );
    let len = |s: &str| i64::try_from(s.len()).expect("small");
    Program {
        source,
        value: (len(&s1) * 100 + len(&s2) + salt).to_string(),
        output: format!("{s1}\n{s2}\n"),
    }
}

fn multimethod_program(rng: &mut Rng, salt: i64) -> Program {
    let n = rng.range(8, 16);
    let (p, q, r, m) = (
        rng.range(1, 9),
        rng.range(0, 9),
        rng.range(1, 13),
        rng.range(5, 40),
    );
    let k: Vec<i64> = (0..4).map(|_| rng.range(1, 9)).collect();
    // (is_hot, v) per cell, then the receiver×argument case table.
    let cells: Vec<(bool, i64)> = (0..n)
        .map(|i| ((i * p + q) % 3 == 0, (i * r) % m + 1))
        .collect();
    let mix = |a: (bool, i64), b: (bool, i64)| match (a.0, b.0) {
        (false, false) => a.1 + b.1 * k[0],
        (true, false) => a.1 * k[1] - b.1,
        (false, true) => a.1 - b.1 * k[2],
        (true, true) => a.1 * b.1 + k[3],
    };
    let s: i64 = cells.windows(2).map(|w| mix(w[0], w[1])).sum();
    let source = format!(
        "// model multimethod, variant {salt}
constraint Mix[T] {{ int T.mix(T that); }}
class Cell {{ int v; Cell() {{ }} }}
class Hot extends Cell {{ Hot() {{ }} }}
model M for Mix[Cell] {{
  int Cell.mix(Cell o) {{ return this.v + o.v * {k0}; }}
  int Hot.mix(Cell o) {{ return this.v * {k1} - o.v; }}
  int Cell.mix(Hot o) {{ return this.v - o.v * {k2}; }}
  int Hot.mix(Hot o) {{ return this.v * o.v + {k3}; }}
}}
int main() {{
  Cell[] xs = new Cell[{n}];
  for (int i = 0; i < {n}; i = i + 1) {{
    Cell c = new Cell();
    if ((i * {p} + {q}) % 3 == 0) {{ c = new Hot(); }}
    c.v = (i * {r}) % {m} + 1;
    xs[i] = c;
  }}
  int s = 0;
  for (int i = 0; i + 1 < {n}; i = i + 1) {{ s = s + xs[i].(M.mix)(xs[i + 1]); }}
  println(\"mixed \" + s);
  return s + {salt};
}}
",
        k0 = k[0],
        k1 = k[1],
        k2 = k[2],
        k3 = k[3],
    );
    Program {
        source,
        value: (s + salt).to_string(),
        output: format!("mixed {s}\n"),
    }
}

/// The execution-heavy programs of the warm-cache workload. Sizes are
/// fixed so every seed costs the same; the seed moves only the data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hot {
    /// Table 1's insertion sort through `Comparable[T]` (dictionary
    /// passing on the natural `int` model).
    ComparableSort,
    /// The same sort through a user `Ord` constraint with an explicit
    /// model: the call sites the O2 specializer turns into direct calls.
    OrdSort,
    /// `use`-enabled `BoxCmp[E]` model dispatch over `Box[int]`.
    BoxDispatch,
    /// `gc_churn`-style allocation churn: many collections, tiny live set.
    Churn,
}

pub const HOT: [Hot; 4] = [
    Hot::ComparableSort,
    Hot::OrdSort,
    Hot::BoxDispatch,
    Hot::Churn,
];

const SORT_N: i64 = 160;
const SORT_ROUNDS: i64 = 2;
const BOX_N: i64 = 64;
const BOX_ROUNDS: i64 = 40;
const CHURN_N: i64 = 2500;

pub fn hot_program(seed: u64, which: Hot) -> Program {
    let mut rng = Rng::derive(seed, 2, which as u64);
    match which {
        Hot::ComparableSort | Hot::OrdSort => {
            let x0 = rng.range(1, 60000);
            let mut x = x0;
            let mut s = 0;
            for _ in 0..SORT_ROUNDS {
                let mut xs: Vec<i64> = (0..SORT_N)
                    .map(|_| {
                        x = lcg(x);
                        x % 1000
                    })
                    .collect();
                xs.sort_unstable();
                let n = xs.len();
                s += xs[0] + xs[n / 2] * 3 + xs[n - 1] * 7;
            }
            let (decls, call) = if which == Hot::OrdSort {
                (
                    "constraint Ord[T] { boolean T.before(T other); }
model IntOrd for Ord[int] {
  boolean before(int other) { return this < other; }
}
void xsort[T](T[] xs) where Ord[T] {
  for (int i = 1; i < xs.length; i = i + 1) {
    T key = xs[i];
    int j = i - 1;
    while (j >= 0 && key.before(xs[j])) {
      xs[j + 1] = xs[j];
      j = j - 1;
    }
    xs[j + 1] = key;
  }
}",
                    "xsort[int with IntOrd](xs);",
                )
            } else {
                (
                    "void xsort[T](T[] xs) where Comparable[T] {
  for (int i = 1; i < xs.length; i = i + 1) {
    T key = xs[i];
    int j = i - 1;
    while (j >= 0 && xs[j].compareTo(key) > 0) {
      xs[j + 1] = xs[j];
      j = j - 1;
    }
    xs[j + 1] = key;
  }
}",
                    "xsort(xs);",
                )
            };
            let source = format!(
                "{decls}
int main() {{
  int n = {SORT_N};
  int x = {x0};
  int s = 0;
  for (int r = 0; r < {SORT_ROUNDS}; r = r + 1) {{
    int[] xs = new int[n];
    for (int i = 0; i < n; i = i + 1) {{ x = (x * 75 + 74) % 65537; xs[i] = x % 1000; }}
    {call}
    s = s + xs[0] + xs[n / 2] * 3 + xs[n - 1] * 7;
  }}
  return s;
}}
"
            );
            Program {
                source,
                value: s.to_string(),
                output: String::new(),
            }
        }
        Hot::BoxDispatch => {
            let x0 = rng.range(1, 60000);
            let mut x = x0;
            let vals: Vec<i64> = (0..BOX_N)
                .map(|_| {
                    x = lcg(x);
                    x % 1000
                })
                .collect();
            let s: i64 = (0..BOX_ROUNDS)
                .map(|r| vals.iter().filter(|&&v| v > r * 16).count())
                .map(|c| i64::try_from(c).expect("small"))
                .sum();
            let source = format!(
                "class Box[T] {{
  T item;
  Box(T item) {{ this.item = item; }}
  T item() {{ return item; }}
}}
model BoxCmp[E] for Comparable[Box[E]] where Comparable[E] {{
  int compareTo(Box[E] o) {{ return item().compareTo(o.item()); }}
  boolean equals(Box[E] o) {{ return item().compareTo(o.item()) == 0; }}
}}
use BoxCmp;
int count[T](List[T] xs, T pivot) where Comparable[T] {{
  int n = 0;
  for (T x : xs) {{ if (x.compareTo(pivot) > 0) {{ n = n + 1; }} }}
  return n;
}}
int main() {{
  ArrayList[Box[int]] xs = new ArrayList[Box[int]]();
  int x = {x0};
  for (int i = 0; i < {BOX_N}; i = i + 1) {{ x = (x * 75 + 74) % 65537; xs.add(new Box[int](x % 1000)); }}
  int s = 0;
  for (int r = 0; r < {BOX_ROUNDS}; r = r + 1) {{ s = s + count(xs, new Box[int](r * 16)); }}
  return s;
}}
"
            );
            Program {
                source,
                value: s.to_string(),
                output: String::new(),
            }
        }
        Hot::Churn => {
            let c = rng.range(0, 99);
            // sum of (i + c) + 2i - 2i over the loop.
            let s = CHURN_N * (CHURN_N - 1) / 2 + CHURN_N * c;
            let source = format!(
                "class Node {{
  int v;
  Node next;
  Node(int v, Node next) {{ this.v = v; this.next = next; }}
}}
int main() {{
  int sum = 0;
  for (int i = 0; i < {CHURN_N}; i = i + 1) {{
    int[] a = new int[64];
    a[0] = i + {c};
    Node chain = new Node(i, new Node(i * 2, null));
    sum = sum + a[0] + chain.next.v - i * 2;
  }}
  println(\"churned\");
  return sum;
}}
"
            );
            Program {
                source,
                value: s.to_string(),
                output: "churned\n".to_string(),
            }
        }
    }
}

/// The multi-unit program a sessionful client edits. Every literal slot
/// is one token; an edit replaces exactly one of them with a new value,
/// which is a body-only change to exactly one unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EditProgram {
    /// `[util_mul, util_add, score_mul, score_add, main_base, main_add]`.
    pub slots: [i64; 6],
}

/// Unit names in the order a session first receives them.
pub const UNITS: [&str; 3] = ["util.genus", "score.genus", "main.genus"];
/// Elements `main()` builds.
const EDIT_K: i64 = 24;

/// Slot values are drawn from `1..=SLOT_MAX`, so an edit almost always
/// produces unit text the session has never seen and the edited unit is
/// really re-checked, not restored from the verdict cache.
const SLOT_MAX: i64 = 99_999;

impl EditProgram {
    pub fn new(rng: &mut Rng) -> EditProgram {
        let mut slots = [0; 6];
        for s in &mut slots {
            *s = rng.range(1, SLOT_MAX);
        }
        EditProgram { slots }
    }

    /// Unit holding slot `slot`.
    pub fn unit_of(slot: usize) -> usize {
        slot / 2
    }

    /// Source text of unit `unit` under the current slot values.
    pub fn unit_source(&self, unit: usize) -> String {
        let s = &self.slots;
        match unit {
            0 => format!(
                "class Acc {{
  int total;
  Acc() {{ }}
  void add(int x) {{ total = total + x * {}; }}
  int get() {{ return total + {}; }}
}}
",
                s[0], s[1]
            ),
            1 => format!(
                "import util;
constraint Score[T] {{ int T.score(); }}
model AccScore for Score[Acc] {{
  int score() {{ return get() * {} + {}; }}
}}
int scoreAll[T](List[T] xs) where Score[T] {{
  int s = 0;
  for (T x : xs) {{ s = s + x.score(); }}
  return s;
}}
",
                s[2], s[3]
            ),
            _ => format!(
                "import util;
import score;
int main() {{
  ArrayList[Acc] xs = new ArrayList[Acc]();
  for (int i = 0; i < {EDIT_K}; i = i + 1) {{ Acc a = new Acc(); a.add(i + {}); xs.add(a); }}
  return scoreAll[Acc with AccScore](xs) + {};
}}
",
                s[4], s[5]
            ),
        }
    }

    /// `main()`'s value under the current slot values, in Genus `int`
    /// arithmetic (32-bit, wrapping).
    pub fn value(&self) -> String {
        let s: Vec<i32> = self
            .slots
            .iter()
            .map(|&v| i32::try_from(v).expect("slots fit int"))
            .collect();
        let total = (0..i32::try_from(EDIT_K).expect("small")).fold(0i32, |acc, i| {
            let x = i.wrapping_add(s[4]).wrapping_mul(s[0]).wrapping_add(s[1]);
            acc.wrapping_add(x.wrapping_mul(s[2]).wrapping_add(s[3]))
        });
        total.wrapping_add(s[5]).to_string()
    }

    /// One seeded one-token edit: picks a slot and gives it a new value.
    /// Returns the index of the edited unit.
    pub fn edit(&mut self, rng: &mut Rng) -> usize {
        let slot = usize::try_from(rng.range(0, 5)).expect("small");
        let old = self.slots[slot];
        let mut new = rng.range(1, SLOT_MAX);
        if new == old {
            new = old % SLOT_MAX + 1;
        }
        self.slots[slot] = new;
        EditProgram::unit_of(slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genus::{Compiler, Engine};
    use std::collections::HashSet;

    /// The reference is checked against one AST-interpreter run per
    /// template. This validates the generator only; the benchmark never
    /// uses an engine's answer as the expected value.
    fn ast_run(source: &str) -> (String, String) {
        let ex = Compiler::new()
            .with_stdlib()
            .engine(Engine::Ast)
            .source("t.genus", source)
            .execute()
            .unwrap_or_else(|e| panic!("does not compile: {e}\n{source}"));
        (ex.outcome.expect("runs without a trap"), ex.output)
    }

    fn assert_agrees(p: &Program) {
        let (value, output) = ast_run(&p.source);
        assert_eq!(value, p.value, "value\n{}", p.source);
        assert_eq!(output, p.output, "output\n{}", p.source);
    }

    #[test]
    fn same_seed_same_bytes() {
        for i in 0..64 {
            assert_eq!(cold_program(7, i), cold_program(7, i));
        }
        for h in HOT {
            assert_eq!(hot_program(7, h), hot_program(7, h));
        }
        let (mut a, mut b) = (Rng::derive(7, 0, 0), Rng::derive(7, 0, 0));
        let (mut pa, mut pb) = (EditProgram::new(&mut a), EditProgram::new(&mut b));
        for _ in 0..32 {
            assert_eq!(pa.edit(&mut a), pb.edit(&mut b));
            assert_eq!(pa, pb);
        }
        assert_ne!(cold_program(7, 0).source, cold_program(8, 0).source);
    }

    #[test]
    fn stateless_sources_are_distinct() {
        let n = 4000;
        let sources: HashSet<String> = (0..n).map(|i| cold_program(3, i).source).collect();
        assert_eq!(sources.len(), 4000);
    }

    #[test]
    fn edits_change_one_unit_by_one_token() {
        let mut rng = Rng::derive(11, 0, 0);
        let mut p = EditProgram::new(&mut rng);
        for _ in 0..50 {
            let before: Vec<String> = (0..3).map(|u| p.unit_source(u)).collect();
            let unit = p.edit(&mut rng);
            for (u, old) in before.iter().enumerate() {
                let new = p.unit_source(u);
                if u == unit {
                    let diff = old
                        .split_whitespace()
                        .zip(new.split_whitespace())
                        .filter(|(a, b)| a != b)
                        .count();
                    assert_eq!(diff, 1, "{old}\n{new}");
                } else {
                    assert_eq!(*old, new);
                }
            }
        }
    }

    #[test]
    fn reference_agrees_with_the_interpreter_per_template() {
        for i in 0..4 {
            assert_agrees(&cold_program(5, i));
        }
        for h in HOT {
            assert_agrees(&hot_program(5, h));
        }
    }

    #[test]
    fn session_reference_agrees_with_the_interpreter() {
        let mut rng = Rng::derive(5, 0, 0);
        let mut p = EditProgram::new(&mut rng);
        p.edit(&mut rng);
        let mut c = Compiler::new().with_stdlib().engine(Engine::Ast);
        for (u, name) in UNITS.iter().enumerate() {
            c = c.source(*name, p.unit_source(u));
        }
        let ex = c.execute().expect("session program compiles");
        assert_eq!(ex.outcome.expect("runs"), p.value());
    }
}

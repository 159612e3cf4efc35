//! Cross-caller parity: the same program run through every caller of the
//! shared engine runner and code holder — `Compiler::execute`,
//! `CompileSession::execute`, a stateless `genus serve` request and a
//! sessionful serve `run` — must give the same observables on every
//! engine: value or trap, output, fuel and allocated bytes. The programs
//! cover each route a stateless serve compile takes to its code.

use genus_repro::{CompileSession, Compiler, Engine, Execution, Limits};
use genus_serve::{EngineKind, Outcome, Request, Response, ServeConfig, Server};

/// What a caller reports of one run. Traps compare by code and message:
/// serve responses carry no span (the facade paths are compared on
/// `(code, span)` separately).
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    outcome: Result<String, (String, String)>,
    output: String,
    fuel_used: u64,
    mem_used: u64,
}

fn from_execution(ex: &Execution) -> Observed {
    Observed {
        outcome: match &ex.outcome {
            Ok(v) => Ok(v.clone()),
            Err(e) => Err((e.code().to_string(), e.to_string())),
        },
        output: ex.output.clone(),
        fuel_used: ex.resource_stats.fuel_used,
        mem_used: ex.resource_stats.mem_used,
    }
}

fn from_response(resp: &Response) -> Observed {
    Observed {
        outcome: match &resp.outcome {
            Outcome::Ok(v) => Ok(v.clone()),
            Outcome::Trap { code, message } => Err((code.clone(), message.clone())),
            Outcome::Error(msg) => panic!("serve failed to compile: {msg}"),
        },
        output: resp.output.clone(),
        fuel_used: resp.fuel_used,
        mem_used: resp.mem_used,
    }
}

/// One program of the parity check.
struct Program {
    name: &'static str,
    src: &'static str,
    /// Whether the stdlib is compiled in.
    stdlib: bool,
    /// Whether a stateless serve compile must leave the stdlib base for
    /// the whole-program check (and count one `base_fallbacks`).
    fallback: bool,
    /// Whether `main` traps.
    traps: bool,
}

/// The serve routes to code: programs that extend the stdlib base and
/// link to its prebuilt code (`ok`, `trap`), one whose `use` declaration
/// forces the whole-program check and compile (`use`), and a
/// prelude-only one (`prelude`).
const PROGRAMS: [Program; 4] = [
    Program {
        name: "ok",
        src: "int main() {
           ArrayList[int] l = new ArrayList[int]();
           TreeSet[int] s = new TreeSet[int]();
           for (int i = 0; i < 40; i = i + 1) { l.add(i * 7 % 13); s.add(i % 9); }
           println(l.get(5));
           println(s.first());
           return l.size() + s.size();
         }",
        stdlib: true,
        fallback: false,
        traps: false,
    },
    Program {
        name: "trap",
        src: "int main() {
           ArrayList[int] l = new ArrayList[int]();
           l.add(1);
           println(\"before\");
           int[] a = new int[2];
           return a[l.get(0) + 4];
         }",
        stdlib: true,
        fallback: false,
        traps: true,
    },
    Program {
        name: "use",
        src: "class Box[T] { T item; Box(T item) { this.item = item; } T item() { return item; } }
         model BoxCmp[E] for Comparable[Box[E]] where Comparable[E] {
           int compareTo(Box[E] o) { return item().compareTo(o.item()); }
           boolean equals(Box[E] o) { return item().compareTo(o.item()) == 0; }
         }
         use BoxCmp;
         int main() {
           TreeSet[Box[int]] s = new TreeSet[Box[int]]();
           for (int i = 0; i < 30; i = i + 1) { s.add(new Box[int](i * 11 % 17)); }
           println(s.first().item());
           return s.size();
         }",
        stdlib: true,
        fallback: true,
        traps: false,
    },
    Program {
        name: "prelude",
        src: "class Cell[T] { T v; Cell(T v) { this.v = v; } T get() { return v; } }
         T larger[T](T a, T b) where Comparable[T] {
           if (a.compareTo(b) < 0) { return b; }
           return a;
         }
         int main() {
           Cell[int] c = new Cell[int](larger(3, 9));
           println(\"cell \" + c.get());
           int[] a = new int[4];
           for (int i = 0; i < 4; i = i + 1) { a[i] = larger(i * 3, 5); }
           return a[0] + a[3] + c.get();
         }",
        stdlib: false,
        fallback: false,
        traps: false,
    },
];

#[test]
fn every_caller_observes_the_same_run() {
    let server = Server::new(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    for p in PROGRAMS {
        let name = p.name;
        let fallbacks = server.cache_stats().base_fallbacks;
        for engine in [Engine::Ast, Engine::Vm, Engine::Jit] {
            let mut compiler = Compiler::new().engine(engine).source("main.genus", p.src);
            let mut session = CompileSession::new();
            if p.stdlib {
                compiler = compiler.with_stdlib();
                session = CompileSession::with_stdlib();
            }
            let compiled = compiler.execute().unwrap();
            session.update_source("main.genus", p.src);
            let sessioned = session.execute(engine, Limits::default()).unwrap();
            assert_eq!(
                compiled.outcome_key(),
                sessioned.outcome_key(),
                "{name} on {engine:?}: Compiler vs CompileSession"
            );

            let mut stateless = Request::new(format!("{name}-{}", engine.name()), p.src);
            stateless.engine = EngineKind::from(engine);
            stateless.stdlib = p.stdlib;
            let mut sessionful = stateless.clone();
            sessionful.session = Some(format!("{name}-{}", engine.name()));
            let responses = server.run_batch(vec![stateless, sessionful]);

            let want = from_execution(&compiled);
            assert_eq!(want.outcome.is_err(), p.traps, "{want:?}");
            assert!(!want.output.is_empty() && want.fuel_used > 0, "{want:?}");
            assert_eq!(
                from_execution(&sessioned),
                want,
                "{name} on {engine:?}: CompileSession"
            );
            assert_eq!(
                from_response(&responses[0]),
                want,
                "{name} on {engine:?}: stateless serve"
            );
            assert_eq!(
                from_response(&responses[1]),
                want,
                "{name} on {engine:?}: sessionful serve"
            );
            assert!(responses[1].reuse.is_some(), "sessionful response");
        }
        // One stateless compile per program, shared by the three engines.
        assert_eq!(
            server.cache_stats().base_fallbacks - fallbacks,
            u64::from(p.fallback),
            "{name}: base fallbacks"
        );
    }
    server.shutdown();
}

//! Cross-caller parity: the same stdlib program run through every caller
//! of the shared engine runner — `Compiler::execute`,
//! `CompileSession::execute`, a stateless `genus serve` request and a
//! sessionful serve `run` — must give the same observables on every
//! engine: value or trap, output, fuel and allocated bytes.

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

const PROGRAMS: [(&str, &str); 2] = [
    (
        "ok",
        "int main() {
           ArrayList[int] l = new ArrayList[int]();
           TreeSet[int] s = new TreeSet[int]();
           for (int i = 0; i < 40; i = i + 1) { l.add(i * 7 % 13); s.add(i % 9); }
           println(l.get(5));
           println(s.first());
           return l.size() + s.size();
         }",
    ),
    (
        "trap",
        "int main() {
           ArrayList[int] l = new ArrayList[int]();
           l.add(1);
           println(\"before\");
           int[] a = new int[2];
           return a[l.get(0) + 4];
         }",
    ),
];

#[test]
fn every_caller_observes_the_same_run() {
    let server = Server::new(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    for (name, src) in PROGRAMS {
        for engine in [Engine::Ast, Engine::Vm, Engine::Jit] {
            let compiled = Compiler::new()
                .with_stdlib()
                .engine(engine)
                .source("main.genus", src)
                .execute()
                .unwrap();
            let mut session = CompileSession::with_stdlib();
            session.update_source("main.genus", src);
            let sessioned = session.execute(engine, Limits::default()).unwrap();
            assert_eq!(
                compiled.outcome_key(),
                sessioned.outcome_key(),
                "{name} on {engine:?}: Compiler vs CompileSession"
            );

            let mut stateless = Request::new(format!("{name}-{}", engine.name()), src);
            stateless.engine = EngineKind::from(engine);
            let mut sessionful = stateless.clone();
            sessionful.session = Some(format!("{name}-{}", engine.name()));
            let responses = server.run_batch(vec![stateless, sessionful]);

            let want = from_execution(&compiled);
            assert_eq!(want.outcome.is_ok(), name == "ok", "{want:?}");
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
    }
    server.shutdown();
}

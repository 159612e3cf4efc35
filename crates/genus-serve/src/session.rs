//! Server-side incremental compile sessions.
//!
//! A sessionful request (`{"session": "dev", "action": "update" | "check"
//! | "run", ...}`) routes through this registry instead of the stateless
//! program cache. Each named session owns a long-lived
//! [`CompileSession`] — the content-hash-keyed query pipeline plus
//! compiled code keyed by the session's generation counter — so a
//! sequence of `update`/`check`/`run` requests re-derives only what the
//! edits could have changed: untouched units keep their parse trees and
//! check verdicts, and an unchanged program keeps its bytecode.
//!
//! Sessionful requests are handled **inline on the submitting thread**
//! (not on the worker pool): a session's actions are ordered by
//! definition — an `update` must be visible to the `check` that follows
//! it on the same connection — and pipelining them across workers would
//! trade that guarantee for nothing (the whole point of a session is
//! that re-checks are cheap). Distinct sessions on distinct connections
//! still run concurrently; each entry is independently locked.
//!
//! A session is opened with or without the stdlib, as its first request
//! says; a later request that sets `stdlib` to the other value is
//! refused. The registry sums every session's code work ([`CodeStats`]:
//! code builds and reuses, library-segment builds and reuses) for the
//! server's metrics.

use crate::proto::{ms_since, Action, Outcome, Request, Response, SessionReuse};
use genus_vm::session::{CodeStats, CompileSession};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Handles one request against a named session.
fn handle(session: &mut CompileSession, req: Request, submitted: Instant) -> Response {
    if req.action == Action::Metrics {
        // The scheduler answers metrics requests before session
        // routing; this arm only fires on direct registry use.
        return Response::error(req.id, "`metrics` does not apply to a session");
    }
    // The library units are fixed: a request text in place of one (the
    // prelude, say) can panic the checker.
    if session.is_library_unit(&req.file) {
        let message = format!("bad request: `file` names the library unit `{}`", req.file);
        return Response::error(req.id, message);
    }
    // An update, and a check/run carrying text, replace the unit first.
    if req.action == Action::Update || !req.source.is_empty() {
        session.update_source(&req.file, &req.source);
    }
    if req.action == Action::Update {
        return Response {
            id: req.id,
            outcome: Outcome::Ok("updated".to_string()),
            ms: ms_since(submitted),
            engine: req.engine,
            ..Response::error("", "")
        };
    }
    let before = session.stats();
    let report = session.check();
    let after = session.stats();
    let reuse = Some(SessionReuse {
        reused: after.units_not_rechecked() - before.units_not_rechecked(),
        rechecked: after.units_rechecked - before.units_rechecked,
    });
    let response = if report.has_errors() {
        Response {
            engine: req.engine,
            ..Response::error(req.id, session.render_errors_short())
        }
    } else if req.action == Action::Check {
        Response {
            id: req.id,
            outcome: Outcome::Ok("checked".to_string()),
            engine: req.engine,
            ..Response::error("", "")
        }
    } else {
        // `auto` has no hotness signal here; a session's program is warm
        // by definition, so it runs on the VM.
        let engine = req.engine.engine();
        session.opt_level(req.opt_level);
        let ex = session.execute_checked(engine, req.limits);
        Response {
            cache_hit: session.code_reused(),
            ..Response::ran(req.id, ex, engine)
        }
    };
    Response {
        reuse,
        ms: ms_since(submitted),
        ..response
    }
}

/// One named session and whether it was opened with the stdlib.
struct Entry {
    stdlib: bool,
    session: CompileSession,
}

/// The server's named-session table. Sessions are created on first use
/// (with the stdlib iff the creating request asked for it) and live for
/// the server's lifetime; each is independently locked, so concurrent
/// connections using different sessions never contend.
#[derive(Default)]
pub struct SessionRegistry {
    map: Mutex<HashMap<String, Arc<Mutex<Entry>>>>,
    /// [`CodeStats`] summed over every session, in field order.
    code: [AtomicU64; 4],
}

impl SessionRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> SessionRegistry {
        SessionRegistry::default()
    }

    /// Number of live sessions.
    pub fn len(&self) -> usize {
        self.map.lock().expect("session registry poisoned").len()
    }

    /// Whether no session has been created yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Handles one sessionful request synchronously, creating the session
    /// on first use.
    pub fn handle(&self, req: Request, submitted: Instant) -> Response {
        let name = req.session.clone().expect("sessionful request");
        let entry = {
            let mut map = self.map.lock().expect("session registry poisoned");
            Arc::clone(map.entry(name.clone()).or_insert_with(|| {
                Arc::new(Mutex::new(Entry {
                    stdlib: req.stdlib,
                    session: if req.stdlib {
                        CompileSession::with_stdlib()
                    } else {
                        CompileSession::new()
                    },
                }))
            }))
        };
        let mut entry = entry.lock().expect("session entry poisoned");
        if req.stdlib_set && req.stdlib != entry.stdlib {
            let with = if entry.stdlib { "with" } else { "without" };
            let message = format!("bad request: session `{name}` was opened {with} the stdlib");
            return Response::error(req.id, message);
        }
        let before = entry.session.code_stats();
        let response = handle(&mut entry.session, req, submitted);
        let after = entry.session.code_stats();
        let deltas = [
            after.builds - before.builds,
            after.reuses - before.reuses,
            after.library_builds - before.library_builds,
            after.library_reuses - before.library_reuses,
        ];
        for (counter, delta) in self.code.iter().zip(deltas) {
            counter.fetch_add(delta, Ordering::Relaxed);
        }
        response
    }

    /// The code work of every session so far, summed.
    pub fn code_stats(&self) -> CodeStats {
        let [builds, reuses, library_builds, library_reuses] =
            self.code.each_ref().map(|c| c.load(Ordering::Relaxed));
        CodeStats {
            builds,
            reuses,
            library_builds,
            library_reuses,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genus_common::json::{self, Json};
    use genus_interp::Limits;

    fn req(line: &str) -> Request {
        Request::parse(line, &Limits::default()).unwrap()
    }

    #[test]
    fn update_check_run_pipeline_reuses_verdicts() {
        let reg = SessionRegistry::new();
        let t = Instant::now();
        let r = reg.handle(
            req(r#"{"id":"u1","session":"s","action":"update","source":"int main() { return 40 + 2; }"}"#),
            t,
        );
        assert_eq!(r.outcome, Outcome::Ok("updated".to_string()));
        assert!(r.reuse.is_none(), "updates do not check");
        let r = reg.handle(req(r#"{"id":"c1","session":"s","action":"check"}"#), t);
        assert_eq!(r.outcome, Outcome::Ok("checked".to_string()));
        let r = reg.handle(
            req(r#"{"id":"r1","session":"s","action":"run","engine":"vm"}"#),
            t,
        );
        assert_eq!(r.outcome, Outcome::Ok("42".to_string()));
        let reuse = r.reuse.expect("sessionful run carries counters");
        // Nothing changed between the check and the run: every unit's
        // verdict (prelude + stdlib + main) was reused.
        assert!(reuse.reused > 0, "{reuse:?}");
        assert_eq!(reuse.rechecked, 0, "{reuse:?}");
        // And an identical re-run also reuses the compiled bytecode.
        let r = reg.handle(
            req(r#"{"id":"r2","session":"s","action":"run","engine":"vm"}"#),
            t,
        );
        assert!(r.cache_hit, "unchanged program must reuse bytecode");
    }

    #[test]
    fn edit_invalidates_bytecode_but_not_sibling_verdicts() {
        let reg = SessionRegistry::new();
        let t = Instant::now();
        reg.handle(
            req(r#"{"id":"u1","session":"s","action":"update","file":"util.genus","source":"class Box { int v; Box(int v) { this.v = v; } int get() { return v; } }"}"#),
            t,
        );
        let r = reg.handle(
            req(r#"{"id":"r1","session":"s","action":"run","engine":"vm","source":"int main() { return new Box(6).get(); }"}"#),
            t,
        );
        assert_eq!(r.outcome, Outcome::Ok("6".to_string()));
        assert!(!r.cache_hit);
        // Body-only edit to main: util's verdict is reused, bytecode is
        // recompiled.
        let r = reg.handle(
            req(r#"{"id":"r2","session":"s","action":"run","engine":"vm","source":"int main() { return new Box(7).get(); }"}"#),
            t,
        );
        assert_eq!(r.outcome, Outcome::Ok("7".to_string()));
        assert!(!r.cache_hit, "edited program must recompile");
        let reuse = r.reuse.unwrap();
        assert!(reuse.reused >= 2, "prelude + util reused: {reuse:?}");
        assert_eq!(reuse.rechecked, 1, "only main re-checked: {reuse:?}");
    }

    #[test]
    fn check_errors_render_with_stable_codes() {
        let reg = SessionRegistry::new();
        let t = Instant::now();
        let r = reg.handle(
            req(r#"{"id":"c1","session":"s","action":"check","source":"int main() { return nope; }"}"#),
            t,
        );
        let Outcome::Error(msg) = &r.outcome else {
            panic!("expected a compile error, got {:?}", r.outcome);
        };
        assert!(msg.contains("unknown variable"), "{msg}");
        assert!(r.reuse.is_some(), "failed checks still report reuse");
        // The error round-trips through the JSON line renderer.
        let v = json::parse(&r.to_json_line()).unwrap();
        assert_eq!(v.get("outcome").and_then(Json::as_str), Some("error"));
    }

    #[test]
    fn sessions_are_isolated_and_engines_agree() {
        let reg = SessionRegistry::new();
        let t = Instant::now();
        for (name, engine) in [("a", "ast"), ("b", "vm"), ("c", "jit")] {
            let r = reg.handle(
                req(&format!(
                    r#"{{"id":"r","session":"{name}","action":"run","engine":"{engine}","source":"int main() {{ println(\"hi\"); return 9; }}"}}"#
                )),
                t,
            );
            assert_eq!(r.outcome, Outcome::Ok("9".to_string()), "{engine}");
            assert_eq!(r.output, "hi\n", "{engine}");
            assert_eq!(r.engine.name(), engine);
        }
        assert_eq!(reg.len(), 3);
    }
}

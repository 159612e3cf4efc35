//! The traced run: the same seeded inputs as the end-to-end run, replayed
//! through each layer's public function with a span around every call.
//!
//! A request's replay mirrors the work the end-to-end path does for it:
//!
//! - `cold_distinct` replays serve's stateless miss: the stdlib and the
//!   request are parsed (`genus_syntax::memo::parse_unit`, which wraps
//!   `genus_syntax::parse`), checked in a fresh `genus_check::Session` —
//!   the engine of `check_sources_report` and `CompileSession::check` —
//!   lowered (`compile_program`), optimized (`genus_vm::optimize`) and run
//!   (`execute_vm_shared`).
//! - `oneshot_cli` replays the CLI: the same, with the stdlib registered
//!   as always-visible modules the way `CompileSession::with_stdlib` does.
//! - `hot_exec` replays serve's hit: `ProgramCache::get_or_compile` on
//!   the warm server cache, then `execute_vm_shared` or
//!   `execute_tier_shared`. Its set-up compiles (including `compile_tier`)
//!   are traced as warm-up requests.
//! - `session_edit` replays a sessionful run: the edited unit is parsed
//!   and seeded into a long-lived `Session`, re-checked incrementally,
//!   lowered, optimized and run.
//!
//! Spans are kept in memory and written to
//! `.bench_build/perfbench-traces/<workload>-seed<n>.jsonl` at exit. The
//! printed metrics are per-request medians of each layer's self time
//! plus per-request means of the counts each layer's stats report; see
//! `README.md`.

use crate::e2e::{self, CliRun, EditStream, Job};
use crate::gen::{self, Program};
use crate::{sys, Ctx, Report, Workload};
use genus::{execute_tier_shared, execute_vm_shared, CacheStats, Execution, Limits};
use genus_check::{prelude, CheckedProgram, Session, SessionStats};
use genus_common::{json, Diagnostics, FileId, SourceMap};
use genus_serve::{CachedProgram, EngineKind, ProgramCache, Server, DEFAULT_FUEL};
use genus_syntax::memo::{parse_unit, ParsedUnit};
use genus_vm::{compile_program, compile_tier, optimize, VmProgram};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Coverage tolerance: a request's time outside every layer span (its
/// root span's self time) may be at most this share of `request.us`...
const COVER_FRAC: f64 = 0.02;
/// ...plus this many microseconds.
const COVER_ABS_US: f64 = 20.0;
/// A host interruption that lands in the bookkeeping between two spans
/// (measured: about 2 requests in 4000 on a 2-core VM) is not a coverage
/// gap, so this share of requests may exceed the tolerance...
const COVER_EXEMPT: f64 = 0.005;
/// ...as long as all requests together leave at most this share of their
/// time unattributed.
const COVER_TOTAL_FRAC: f64 = 0.01;
/// Requests per second of `--seconds` the traced run replays. Each one is
/// run three times (traced, untraced, and submitted at concurrency 1).
fn replay_rate(w: Workload) -> f64 {
    match w {
        Workload::ColdDistinct => 15.0,
        Workload::HotExec => 40.0,
        Workload::SessionEdit => 200.0,
        Workload::OneshotCli => 20.0,
    }
}
/// The opt level serve and the CLI use by default.
const OPT: u8 = 2;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    req: u32,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder. When off, `begin`/`end` do nothing, which is
/// the untraced replay that `trace.overhead_pct` compares against.
struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    req: u32,
}

impl Tracer {
    fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            req: 0,
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    fn begin(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start_ns = self.now();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            req: self.req,
            parent: self.open.iter().rev().nth(1).copied(),
            start_ns,
            end_ns: start_ns,
        });
    }

    fn end(&mut self) {
        if !self.on {
            return;
        }
        let i = self.open.pop().expect("end without begin");
        self.spans[i].end_ns = self.now();
    }

    /// Closes every span a failed request left open.
    fn close_all(&mut self) {
        while !self.open.is_empty() {
            self.end();
        }
    }

    fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.begin(name);
        let r = f();
        self.end();
        r
    }
}

/// Counts one request's layers reported, by metric name.
type Counts = BTreeMap<&'static str, f64>;

fn add(counts: &mut Counts, name: &'static str, v: f64) {
    *counts.entry(name).or_insert(0.0) += v;
}

/// The stdlib laid out the way every stdlib-seeded session lays it out:
/// prelude at file 0, stdlib units at 1..=N, then `user` units.
fn mirrored_source_map(user: &[(&str, &str)]) -> SourceMap {
    let mut sm = SourceMap::new();
    sm.add_file(prelude::PRELUDE_NAME, prelude::PRELUDE);
    for (name, src) in genus_stdlib::sources() {
        sm.add_file(*name, *src);
    }
    for (name, src) in user {
        sm.add_file(*name, *src);
    }
    sm
}

fn stdlib_file(i: usize) -> FileId {
    FileId(u32::try_from(i + 1).expect("few stdlib units"))
}

fn user_file(i: usize) -> FileId {
    stdlib_file(genus_stdlib::sources().len() + i)
}

fn parse_stdlib(sm: &SourceMap) -> Vec<Arc<ParsedUnit>> {
    genus_stdlib::sources()
        .iter()
        .enumerate()
        .map(|(i, (name, _))| Arc::new(parse_unit(sm, stdlib_file(i), name)))
        .collect()
}

fn token_count(sm: &SourceMap, file: FileId) -> f64 {
    genus_syntax::lex(sm, file, &mut Diagnostics::new()).len() as f64
}

/// Tokens a request's parse spans covered: the user source, plus the
/// stdlib when the request parsed it. Counted after the request's span
/// closes, so lexing for the count is not charged to any layer.
fn record_tokens(counts: &mut Counts, source: &str, with_stdlib: bool) {
    let mut sm = SourceMap::new();
    let file = sm.add_file("request.genus", source);
    add(counts, "parse.tokens", token_count(&sm, file));
    if with_stdlib {
        let sm = mirrored_source_map(&[]);
        for i in 0..genus_stdlib::sources().len() {
            add(counts, "parse.tokens", token_count(&sm, stdlib_file(i)));
        }
    }
}

/// Records one check's reuse counters and its type-query cache traffic
/// (`cache`: the lookups made during the check).
fn record_check(counts: &mut Counts, before: SessionStats, after: SessionStats, cache: CacheStats) {
    add(
        counts,
        "check.units_rechecked",
        (after.units_rechecked - before.units_rechecked) as f64,
    );
    add(
        counts,
        "check.units_reused",
        (after.units_not_rechecked() - before.units_not_rechecked()) as f64,
    );
    add(
        counts,
        "check.prefix_rebuilt",
        (after.prefix_rebuilt - before.prefix_rebuilt) as f64,
    );
    add(counts, "check.type_cache_hits", cache.hits() as f64);
    add(
        counts,
        "check.type_cache_lookups",
        (cache.hits() + cache.misses()) as f64,
    );
}

/// Parse and check one program the way a fresh pipeline does: the stdlib
/// is parsed too (`parse.stdlib`), then a cold session checks everything.
/// `stdlib_visible` registers the stdlib as always-visible modules (the
/// facade and CLI) instead of plain units (serve's stateless compile).
fn check_cold(
    tr: &mut Tracer,
    counts: &mut Counts,
    name: &str,
    source: &str,
    stdlib_visible: bool,
) -> Result<CheckedProgram, String> {
    tr.begin("parse.stdlib");
    let sm = mirrored_source_map(&[(name, source)]);
    let std_parses = parse_stdlib(&sm);
    tr.end();
    let user = tr.time("parse.user", || {
        Arc::new(parse_unit(&sm, user_file(0), name))
    });
    tr.begin("check");
    let mut s = Session::new();
    for ((unit, src), parsed) in genus_stdlib::sources().iter().zip(std_parses) {
        if stdlib_visible {
            s.add_unit(unit, src, &[], true);
        } else {
            s.update_source(unit, src);
        }
        s.seed_parse(unit, parsed);
    }
    s.update_source(name, source);
    s.seed_parse(name, user);
    let before = s.stats();
    s.check();
    let after = s.stats();
    let prog = s.into_report().program;
    let cache = prog.as_ref().map(|p| p.table.cache.stats());
    tr.end();
    let prog = prog.ok_or_else(|| format!("{name} does not check"))?;
    // Every unit was parsed in a parse span; a parse inside the check
    // would be charged to the wrong layer.
    if after.parse_new != before.parse_new {
        return Err(format!("{name}: the checker re-parsed a seeded unit"));
    }
    record_check(counts, before, after, cache.unwrap_or_default());
    Ok(prog)
}

fn lower_and_opt(tr: &mut Tracer, counts: &mut Counts, prog: &CheckedProgram) -> Arc<VmProgram> {
    let mut code = tr.time("lower", || compile_program(prog));
    add(counts, "lower.funcs", code.funcs.len() as f64);
    add(
        counts,
        "lower.ops",
        code.funcs.iter().map(|f| f.code.len()).sum::<usize>() as f64,
    );
    let code = tr.time("opt", || {
        optimize(&mut code, prog, OPT);
        Arc::new(code)
    });
    let o = code.opt_stats;
    add(counts, "opt.funcs_specialized", o.funcs_specialized as f64);
    add(counts, "opt.calls_directed", o.calls_directed as f64);
    add(
        counts,
        "opt.call_model_devirted",
        o.call_model_devirted as f64,
    );
    add(counts, "opt.budget_fallbacks", o.budget_fallbacks as f64);
    code
}

fn limits() -> Limits {
    Limits {
        fuel: Some(DEFAULT_FUEL),
        ..Limits::default()
    }
}

fn record_exec(counts: &mut Counts, ex: &Execution) {
    let d = ex.dispatch_stats;
    let r = ex.resource_stats;
    add(counts, "exec.fuel", r.fuel_used as f64);
    add(counts, "exec.ic_hits", d.ic_hits as f64);
    add(counts, "exec.ic_lookups", (d.ic_hits + d.ic_misses) as f64);
    add(counts, "exec.virt_hits", d.virt_hits as f64);
    add(
        counts,
        "exec.virt_lookups",
        (d.virt_hits + d.virt_misses) as f64,
    );
    add(counts, "exec.model_hits", d.model_hits as f64);
    add(
        counts,
        "exec.model_lookups",
        (d.model_hits + d.model_misses) as f64,
    );
    add(counts, "heap.collections", r.collections as f64);
    add(counts, "heap.mem_used_bytes", r.mem_used as f64);
    add(counts, "heap.peak_bytes", r.peak_bytes as f64);
}

fn check_execution(ex: &Execution, value: &str, output: &str) -> Result<(), String> {
    match &ex.outcome {
        Ok(v) if v == value && ex.output == output => Ok(()),
        other => Err(format!(
            "expected {value:?} / {output:?}, got {other:?} / {:?}",
            ex.output
        )),
    }
}

/// What a replayed request leaves behind; dropped after its span closes,
/// because freeing a whole checked program is not work the request's
/// layers did for the caller.
type Leftovers = Vec<Box<dyn std::any::Any>>;

/// Stateless compile-and-run (`cold_distinct`, `oneshot_cli`).
fn replay_cold(
    tr: &mut Tracer,
    counts: &mut Counts,
    name: &str,
    p: &Program,
    stdlib_visible: bool,
    keep: &mut Leftovers,
) -> Result<(), String> {
    tr.begin("request");
    let prog = check_cold(tr, counts, name, &p.source, stdlib_visible)?;
    let code = lower_and_opt(tr, counts, &prog);
    let ex = tr.time("exec.vm", || execute_vm_shared(&prog, &code, limits()));
    tr.end();
    record_tokens(counts, &p.source, true);
    record_exec(counts, &ex);
    check_execution(&ex, &p.value, &p.output)?;
    keep.push(Box::new((prog, code, ex)));
    Ok(())
}

/// `hot_exec` set-up, traced: compile one program through every layer
/// including Tier 2.
fn replay_hot_compile(
    tr: &mut Tracer,
    counts: &mut Counts,
    p: &Program,
    keep: &mut Leftovers,
) -> Result<(), String> {
    tr.begin("request");
    let prog = check_cold(tr, counts, "request.genus", &p.source, false)?;
    let code = lower_and_opt(tr, counts, &prog);
    let tier = tr.time("tier", || compile_tier(&code));
    tr.end();
    record_tokens(counts, &p.source, true);
    add(counts, "tier.funcs_tiered", tier.stats.funcs_tiered as f64);
    add(counts, "tier.blocks", tier.stats.blocks as f64);
    keep.push(Box::new((prog, code, tier)));
    Ok(())
}

/// `hot_exec` timed request: a cache hit, then execution.
fn replay_hot(
    tr: &mut Tracer,
    counts: &mut Counts,
    server: &Server,
    job: &Job,
    keep: &mut Leftovers,
) -> Result<(), String> {
    tr.begin("request");
    let (cached, hit) = tr.time("serve.cache", || {
        server
            .cache()
            .get_or_compile(&job.req.source, job.req.stdlib, job.req.opt_level)
    });
    let cached: Arc<CachedProgram> = cached?;
    let ex = match job.req.engine {
        EngineKind::Jit => tr.time("exec.jit", || {
            execute_tier_shared(&cached.prog, &cached.tier_code(), limits())
        }),
        _ => tr.time("exec.vm", || {
            execute_vm_shared(&cached.prog, &cached.vm_code(), limits())
        }),
    };
    tr.end();
    if !hit {
        return Err(format!("{}: cache miss in the timed phase", job.req.id));
    }
    record_exec(counts, &ex);
    check_execution(&ex, &job.value, &job.output)?;
    keep.push(Box::new((cached, ex)));
    Ok(())
}

/// A client-side mirror of one server session: same units, same edits.
struct SessionMirror {
    s: Session,
}

impl SessionMirror {
    fn new(stdlib: &[Arc<ParsedUnit>], stream: &EditStream) -> Result<SessionMirror, String> {
        let mut s = Session::new();
        for ((name, src), parsed) in genus_stdlib::sources().iter().zip(stdlib) {
            s.add_unit(name, src, &[], true);
            s.seed_parse(name, parsed.clone());
        }
        for (u, name) in gen::UNITS.iter().enumerate() {
            s.update_source(name, &stream.program.unit_source(u));
        }
        if s.check().has_errors() {
            return Err("session program does not check".to_string());
        }
        Ok(SessionMirror { s })
    }

    /// One sessionful run with an edit to unit `unit`.
    fn replay(
        &mut self,
        tr: &mut Tracer,
        counts: &mut Counts,
        unit: usize,
        text: &str,
        value: &str,
        keep: &mut Leftovers,
    ) -> Result<(), String> {
        let name = gen::UNITS[unit];
        tr.begin("request");
        tr.begin("parse.user");
        self.s.update_source(name, text);
        let parsed = parse_unit(self.s.sm(), user_file(unit), name);
        self.s.seed_parse(name, Arc::new(parsed));
        tr.end();
        tr.begin("check");
        let cache_before = self.s.program().map(|p| p.table.cache.stats());
        let before = self.s.stats();
        let report = self.s.check();
        let after = self.s.stats();
        let cache = self.s.program().map(|p| p.table.cache.stats());
        tr.end();
        let (Some(prog), Some(cache), false) = (self.s.program(), cache, report.has_errors())
        else {
            return Err(format!("edit to {name} does not check"));
        };
        let cache = cache_before.map_or(cache, |b| cache.since(&b));
        let code = lower_and_opt(tr, counts, prog);
        let ex = tr.time("exec.vm", || execute_vm_shared(prog, &code, limits()));
        tr.end();
        record_tokens(counts, text, false);
        // Unlike the cold path, a re-parse inside this check is real
        // session behaviour: the session's parse memo evicts FIFO, stdlib
        // seeds included, and the checker re-parses what it lost.
        record_check(counts, before, after, cache);
        if counts["check.units_reused"] == 0.0 {
            return Err(format!("edit to {name}: no unit verdict reused"));
        }
        record_exec(counts, &ex);
        check_execution(&ex, value, "")?;
        keep.push(Box::new((code, ex)));
        Ok(())
    }
}

/// Self time of each span: its duration minus its children's.
fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans
        .iter()
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
        .collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= (s.end_ns - s.start_ns) as f64 / 1e3;
        }
    }
    own
}

fn write_spans(ctx: &Ctx, spans: &[Span]) -> Result<PathBuf, String> {
    let dir = PathBuf::from(".bench_build/perfbench-traces");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-seed{}.jsonl", ctx.workload.name(), ctx.seed));
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\": {i}, \"name\": {}, \"req\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}\n",
            json::escape(s.name),
            s.req,
            s.start_ns,
            s.end_ns
        ));
    }
    let mut f = std::fs::File::create(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    f.write_all(out.as_bytes())
        .and_then(|()| f.flush())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

/// What one traced run replays, per request.
enum Inputs {
    /// Stateless programs (`cold_distinct`) and their serve jobs.
    Cold {
        programs: Vec<Program>,
        jobs: Vec<Job>,
    },
    /// CLI files (`oneshot_cli`).
    Cli(Vec<CliRun>),
    /// Warm-cache jobs (`hot_exec`) and the programs behind them.
    Hot {
        programs: Vec<Program>,
        jobs: Vec<Job>,
    },
    /// Session edits: the serve job and `(unit, text, value)` for the
    /// client-side mirrors.
    Session(Vec<(Job, (usize, String, String))>),
}

fn serve_counters(server: &Server) -> (genus_serve::ProgramCacheStats, f64) {
    let steals = json::parse(&server.metrics_json())
        .ok()
        .and_then(|v| {
            v.get("pool")
                .and_then(|p| p.get("steals"))
                .and_then(|s| s.as_num())
        })
        .unwrap_or(0.0);
    (server.cache_stats(), steals)
}

/// RSS growth per resident entry when a fresh `ProgramCache` is filled
/// with `programs` (bytecode and, with `tier`, Tier 2 code included, as
/// serve builds them on first use).
fn kb_per_entry(programs: &[Program], tier: bool) -> Result<f64, String> {
    let cache = ProgramCache::new();
    let before = sys::status_kib("VmRSS");
    for p in programs {
        let entry = cache.get_or_compile(&p.source, true, OPT).0?;
        entry.vm_code();
        if tier {
            entry.tier_code();
        }
    }
    let growth = sys::status_kib("VmRSS") - before;
    Ok(growth as f64 / cache.len() as f64)
}

/// Distinct stateless programs `kb_per_entry` fills a cache with.
const KB_SAMPLE: u64 = 16;

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let epoch = Instant::now();
    let m = ((ctx.seconds as f64 * replay_rate(ctx.workload)) as usize).max(1);
    let mut failures: Vec<String> = Vec::new();

    // ---- Set-up: the server, configuration and inputs of the end-to-end
    // run, plus the per-entry memory probe.
    let (server, inputs, kb) = match ctx.workload {
        Workload::ColdDistinct => {
            let (server, jobs) = e2e::prepare_cold(ctx, m, e2e::COLD_CACHE_CAPACITY)?;
            // Stream 9 keeps the probe's sources apart from the replayed ones.
            let sample: Vec<Program> = (0..KB_SAMPLE)
                .map(|i| gen::cold_program(ctx.seed ^ 9, i))
                .collect();
            let kb = kb_per_entry(&sample, false)?;
            let programs = (0..m as u64)
                .map(|i| gen::cold_program(ctx.seed, i))
                .collect();
            (Some(server), Inputs::Cold { programs, jobs }, kb)
        }
        Workload::OneshotCli => (None, Inputs::Cli(e2e::prepare_cli(ctx, m)?), 0.0),
        Workload::HotExec => {
            let (server, jobs) = e2e::prepare_hot(ctx, m)?;
            let programs: Vec<Program> = gen::HOT
                .iter()
                .map(|&h| gen::hot_program(ctx.seed, h))
                .collect();
            let kb = kb_per_entry(&programs, true)?;
            (Some(server), Inputs::Hot { programs, jobs }, kb)
        }
        Workload::SessionEdit => {
            let (server, _) = e2e::prepare_session(ctx, 0)?;
            // Session `s0` and both mirrors start from stream 0's program
            // and receive the same edits.
            let (mut jobs_stream, mut mirror_stream) =
                (EditStream::new(ctx.seed, 0), EditStream::new(ctx.seed, 0));
            let edits = (0..m)
                .map(|i| {
                    (
                        e2e::edit_job(&mut jobs_stream, i),
                        mirror_stream.next_edit(),
                    )
                })
                .collect();
            (Some(server), Inputs::Session(edits), 0.0)
        }
    };
    let server = server.as_ref();
    let std_parses = parse_stdlib(&mirrored_source_map(&[]));
    let mut mirrors = match &inputs {
        Inputs::Session(_) => {
            let stream = EditStream::new(ctx.seed, 0);
            Some([
                SessionMirror::new(&std_parses, &stream)?,
                SessionMirror::new(&std_parses, &stream)?,
            ])
        }
        _ => None,
    };

    let mut traced = Tracer::new(true, epoch);
    let mut plain = Tracer::new(false, epoch);
    let mut counts: Vec<Counts> = Vec::new();
    let mut keep: Leftovers = Vec::new();
    // `hot_exec` set-up compiles, traced as warm-up requests.
    if let Inputs::Hot { programs, .. } = &inputs {
        for p in programs {
            let mut c = Counts::new();
            traced.req = counts.len() as u32;
            if let Err(e) = replay_hot_compile(&mut traced, &mut c, p, &mut keep) {
                failures.push(e);
            }
            traced.close_all();
            keep.clear();
            counts.push(c);
        }
    }
    let warmup = counts.len();

    // ---- Each request three ways, in rotating order so none of them
    // always runs on the warmest caches: submitted through the front end
    // at concurrency 1 (B), replayed traced (T) and untraced (U).
    let (before, steals0) = server.map(serve_counters).unwrap_or_default();
    let mut submitted_us = Vec::with_capacity(m);
    let (mut traced_s, mut plain_s) = (0.0, 0.0);
    // The same safety stop as the end-to-end run's.
    let deadline =
        Instant::now() + Duration::from_secs_f64(ctx.seconds as f64 * e2e::DEADLINE_FACTOR);
    for i in 0..m {
        if Instant::now() >= deadline {
            eprintln!("deadline: replayed {i} of {m} requests");
            break;
        }
        let mut c = Counts::new();
        traced.req = counts.len() as u32;
        for step in 0..3 {
            let t = Instant::now();
            let r = match (i + step) % 3 {
                0 => match &inputs {
                    Inputs::Cli(runs) => e2e::run_cli(ctx, &runs[i]),
                    Inputs::Cold { jobs, .. } | Inputs::Hot { jobs, .. } => {
                        let server = server.expect("serve workloads have a server");
                        jobs[i].check(&e2e::submit(server, jobs[i].req.clone()))
                    }
                    Inputs::Session(edits) => {
                        let server = server.expect("serve workloads have a server");
                        edits[i]
                            .0
                            .check(&e2e::submit(server, edits[i].0.req.clone()))
                    }
                },
                k => {
                    let (tr, c) = if k == 1 {
                        (&mut traced, &mut c)
                    } else {
                        (&mut plain, &mut Counts::new())
                    };
                    let r = match &inputs {
                        Inputs::Cold { programs, .. } => {
                            replay_cold(tr, c, "request.genus", &programs[i], false, &mut keep)
                        }
                        Inputs::Cli(runs) => {
                            let name = runs[i].path.to_string_lossy().into_owned();
                            replay_cold(tr, c, &name, &runs[i].program, true, &mut keep)
                        }
                        Inputs::Hot { jobs, .. } => replay_hot(
                            tr,
                            c,
                            server.expect("hot_exec has a server"),
                            &jobs[i],
                            &mut keep,
                        ),
                        Inputs::Session(edits) => {
                            let (unit, text, value) = &edits[i].1;
                            let mirror = &mut mirrors.as_mut().expect("session mirrors")[k - 1];
                            mirror.replay(tr, c, *unit, text, value, &mut keep)
                        }
                    };
                    tr.close_all();
                    r
                }
            };
            let dt = t.elapsed().as_secs_f64();
            match (i + step) % 3 {
                0 => submitted_us.push(dt * 1e6),
                1 => traced_s += dt,
                _ => plain_s += dt,
            }
            if let Err(e) = r {
                failures.push(e);
            }
            keep.clear();
        }
        counts.push(c);
    }

    // ---- Serve counters over the timed requests, and the anti-vacuity
    // checks the end-to-end run makes.
    let mut serve: Vec<(&'static str, f64)> = Vec::new();
    if let Some(server) = server {
        let (after, steals1) = serve_counters(server);
        let hits = (after.hits - before.hits) as f64;
        let misses = (after.misses - before.misses) as f64;
        let compiles = after.compiles - before.compiles;
        let tiers = after.tier_compiles - before.tier_compiles;
        serve.push(("serve.cache_hit_ratio", ratio(hits, hits + misses)));
        serve.push(("serve.compiles", compiles as f64));
        serve.push(("serve.tier_compiles", tiers as f64));
        serve.push((
            "serve.evictions",
            (after.evictions - before.evictions) as f64,
        ));
        serve.push(("serve.steals", steals1 - steals0));
        match &inputs {
            Inputs::Cold { .. } if compiles != submitted_us.len() as u64 => {
                failures.push(format!(
                    "{compiles} compiles for {} distinct requests",
                    submitted_us.len()
                ));
            }
            Inputs::Hot { .. } if compiles + tiers != 0 => {
                failures.push(format!(
                    "{compiles} compiles and {tiers} tier compiles on a warm cache"
                ));
            }
            _ => {}
        }
    }
    serve.push(("serve.kb_per_entry", kb));
    drop(mirrors.take());
    let spans = std::mem::take(&mut traced.spans);
    let path = write_spans(ctx, &spans)?;
    eprintln!("trace: {} spans written to {}", spans.len(), path.display());
    let (metrics, coverage_failures) = per_layer(
        &spans,
        &counts,
        warmup,
        &submitted_us,
        &serve,
        (traced_s - plain_s) / plain_s * 100.0,
    );
    failures.extend(coverage_failures);
    for f in failures.iter().take(5) {
        eprintln!("FAIL: {f}");
    }
    eprintln!(
        "{}: {} requests replayed, {} failure(s)",
        ctx.workload.name(),
        submitted_us.len(),
        failures.len()
    );
    Ok(Report {
        correct: failures.is_empty(),
        attempted: submitted_us.len() as u64,
        failed: failures.len().min(submitted_us.len()) as u64,
        metrics,
    })
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Layer spans and the metric each one's self time is printed as (the
/// `serve.cache` span of `hot_exec` counts toward coverage only).
const LAYER_SPANS: [(&str, &str); 8] = [
    ("parse.user", "parse.user_us"),
    ("parse.stdlib", "parse.stdlib_us"),
    ("check", "check.us"),
    ("lower", "lower.us"),
    ("opt", "opt.us"),
    ("tier", "tier.us"),
    ("exec.vm", "exec.vm_us"),
    ("exec.jit", "exec.jit_us"),
];

/// Reduces spans and counts to the printed per-layer metrics, and checks
/// that each request's layers cover its `request.us`.
fn per_layer(
    spans: &[Span],
    counts: &[Counts],
    warmup: usize,
    submitted_us: &[f64],
    serve: &[(&'static str, f64)],
    overhead_pct: f64,
) -> (Vec<(&'static str, f64, &'static str)>, Vec<String>) {
    let own = self_times(spans);
    let n = counts.len();
    // Per request: layer self times, root duration, unattributed time.
    let mut layer: Vec<BTreeMap<&str, f64>> = vec![BTreeMap::new(); n];
    let mut request_us = vec![0.0; n];
    let mut unattributed = vec![0.0; n];
    for (s, own) in spans.iter().zip(&own) {
        let r = s.req as usize;
        if s.name == "request" {
            request_us[r] = (s.end_ns - s.start_ns) as f64 / 1e3;
            unattributed[r] = *own;
        } else {
            *layer[r].entry(s.name).or_insert(0.0) += own;
        }
    }
    let mut failures = Vec::new();
    let outside: Vec<usize> = (0..n)
        .filter(|&r| unattributed[r] > COVER_FRAC * request_us[r] + COVER_ABS_US)
        .collect();
    for &r in outside.iter().take(3) {
        eprintln!(
            "coverage: request {r}: layers cover {:.1} of {:.1} us",
            request_us[r] - unattributed[r],
            request_us[r]
        );
    }
    let total_share = unattributed.iter().sum::<f64>() / request_us.iter().sum::<f64>();
    if outside.len() as f64 > COVER_EXEMPT * n as f64 || total_share > COVER_TOTAL_FRAC {
        failures.push(format!(
            "coverage: {} of {n} requests beyond {}% + {} us, {:.3}% of all time unattributed",
            outside.len(),
            COVER_FRAC * 100.0,
            COVER_ABS_US,
            total_share * 100.0
        ));
    }
    let timed = warmup..n;
    let med_span = |name: &str| {
        let xs: Vec<f64> = layer.iter().filter_map(|m| m.get(name).copied()).collect();
        sys::median(&xs)
    };
    // Counts are means, not medians: on a mixed workload (`hot_exec`) the
    // median request would hide the one program that collects.
    let mean_count = |name: &str| {
        let xs: Vec<f64> = counts.iter().filter_map(|c| c.get(name).copied()).collect();
        if xs.is_empty() {
            0.0
        } else {
            xs.iter().sum::<f64>() / xs.len() as f64
        }
    };
    let sum_count = |name: &str| -> f64 { counts.iter().filter_map(|c| c.get(name)).sum() };
    let serve = |name: &str| {
        serve
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    let layer_sum: Vec<f64> = (0..n).map(|r| request_us[r] - unattributed[r]).collect();
    let overhead: Vec<f64> = submitted_us
        .iter()
        .zip(&layer_sum[timed.clone()])
        .map(|(sub, layers)| sub - layers)
        .collect();
    let ns_per_fuel: Vec<f64> = timed
        .clone()
        .filter_map(|r| {
            let exec = layer[r].get("exec.vm").or(layer[r].get("exec.jit"))?;
            let fuel = counts[r].get("exec.fuel")?;
            (*fuel > 0.0).then(|| exec * 1e3 / fuel)
        })
        .collect();
    let mut m: Vec<(&'static str, f64, &'static str)> = Vec::new();
    for (span, metric) in LAYER_SPANS {
        m.push((metric, med_span(span), "us"));
    }
    for (name, unit) in [
        ("parse.tokens", "count"),
        ("check.units_rechecked", "count"),
        ("check.units_reused", "count"),
        ("check.prefix_rebuilt", "count"),
        ("lower.funcs", "count"),
        ("lower.ops", "count"),
        ("opt.funcs_specialized", "count"),
        ("opt.calls_directed", "count"),
        ("opt.call_model_devirted", "count"),
        ("opt.budget_fallbacks", "count"),
        ("tier.funcs_tiered", "count"),
        ("tier.blocks", "count"),
        ("exec.fuel", "count"),
        ("heap.collections", "count"),
        ("heap.mem_used_bytes", "bytes"),
        ("heap.peak_bytes", "bytes"),
    ] {
        m.push((name, mean_count(name), unit));
    }
    m.push((
        "check.type_cache_hit_ratio",
        ratio(
            sum_count("check.type_cache_hits"),
            sum_count("check.type_cache_lookups"),
        ),
        "ratio",
    ));
    m.push(("exec.ns_per_fuel", sys::median(&ns_per_fuel), "ns"));
    for (name, hits, lookups) in [
        ("exec.ic_hit_ratio", "exec.ic_hits", "exec.ic_lookups"),
        ("exec.virt_hit_ratio", "exec.virt_hits", "exec.virt_lookups"),
        (
            "exec.model_hit_ratio",
            "exec.model_hits",
            "exec.model_lookups",
        ),
    ] {
        m.push((name, ratio(sum_count(hits), sum_count(lookups)), "ratio"));
    }
    for name in [
        "serve.cache_hit_ratio",
        "serve.compiles",
        "serve.tier_compiles",
        "serve.evictions",
        "serve.steals",
    ] {
        let unit = if name.ends_with("ratio") {
            "ratio"
        } else {
            "count"
        };
        m.push((name, serve(name), unit));
    }
    m.push(("serve.kb_per_entry", serve("serve.kb_per_entry"), "KiB"));
    m.push(("serve.overhead_us", sys::median(&overhead), "us"));
    m.push(("request.us", sys::median(&request_us[timed]), "us"));
    m.push(("trace.overhead_pct", overhead_pct, "%"));
    (m, failures)
}

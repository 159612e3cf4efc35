//! End-to-end runs: the workloads' set-up, the closed-loop timed phase
//! through `Server::submit` (or sequential `genus run` processes), output
//! verification, and the end-to-end metrics. Tracing is off throughout.

use crate::gen::{self, EditProgram, Program, Rng};
use crate::{sys, Ctx, Report, Workload};
use genus_serve::{
    Action, EngineKind, Outcome, Request, Response, ServeConfig, Server, DEFAULT_FUEL,
};
use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Fresh processes that repeat the set-up for `setup_s`; with the run's
/// own set-up, the reported value is a median of `SETUP_PROBES + 1`.
const SETUP_PROBES: usize = 4;
/// Program-cache bound on `cold_distinct`. With every request a miss, a
/// large resident cache slows compiles as it fills (on a 2-core host,
/// median latency rose from 12 to 22 ms over a run at 256 entries, while
/// 8 entries held it flat), so a run's numbers would depend on where in
/// that drift it ends. Eight entries keep the workload check-bound and
/// steady; each miss still pays an eviction.
pub const COLD_CACHE_CAPACITY: usize = 8;
/// The timed phase stops sending after `DEADLINE_FACTOR × --seconds`.
pub const DEADLINE_FACTOR: f64 = 1.5;
/// Every run has at least this many latency samples, so ten lie beyond
/// the p99.
const MIN_SAMPLES: usize = 1000;
/// Distinct programs compiled during `cold_distinct` set-up (never timed).
const COLD_WARMUP: u64 = 8;

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Closed-loop clients per workload. A session is one editor, so
/// `session_edit` has one client; stateless traffic comes from `nproc`
/// clients. (Two session clients on two cores also contend inside the
/// process, which widened the p99 from 1.2× to up to 2.5× the median and
/// made it swing with the host's load from run to run.)
fn clients(w: Workload) -> usize {
    match w {
        Workload::SessionEdit => 1,
        _ => nproc(),
    }
}

/// The p99 is taken per window of at least `P99_WINDOW` consecutive
/// completions (at most `P99_WINDOWS` windows) and the median window is
/// reported: a host stall of a few hundred milliseconds can delay 1% of a
/// run's short requests by itself, and should move one window, not the
/// run's figure.
const P99_WINDOW: usize = 1000;
const P99_WINDOWS: usize = 5;

/// Median over completion-ordered windows of each window's p99.
fn windowed_p99(samples: &mut [(Instant, f64)]) -> f64 {
    samples.sort_by_key(|&(end, _)| end);
    let windows = (samples.len() / P99_WINDOW).clamp(1, P99_WINDOWS);
    let size = samples.len().div_ceil(windows).max(1);
    let p99s: Vec<f64> = samples
        .chunks(size)
        .map(|w| {
            let us: Vec<f64> = w.iter().map(|&(_, us)| us).collect();
            sys::percentile(&us, 99.0)
        })
        .collect();
    sys::median(&p99s)
}

/// Requests per second each workload completes on a 2-core x86-64 host at
/// the commit that defined the benchmark. A run performs `seconds × rate`
/// requests: runs are bounded by work, not time, so a faster commit does
/// the same work (and fills the same cache) in less time.
fn nominal_rate(w: Workload) -> f64 {
    match w {
        Workload::ColdDistinct => 115.0,
        Workload::HotExec => 240.0,
        Workload::SessionEdit => 620.0,
        Workload::OneshotCli => 130.0,
    }
}

fn request_count(w: Workload, seconds: u64) -> usize {
    ((seconds as f64 * nominal_rate(w)) as usize).max(MIN_SAMPLES)
}

/// One request and what its response must carry.
pub struct Job {
    pub req: Request,
    pub value: String,
    pub output: String,
    /// `Some(hit)`: the response's cache flag must equal `hit`.
    pub expect_hit: Option<bool>,
    /// Sessionful runs must reuse at least one unit's verdict.
    pub expect_reuse: bool,
}

impl Job {
    pub fn check(&self, resp: &Response) -> Result<(), String> {
        match &resp.outcome {
            Outcome::Ok(v) if *v == self.value => {}
            other => {
                return Err(format!(
                    "request {}: expected value {}, got {other:?}",
                    self.req.id, self.value
                ))
            }
        }
        if resp.output != self.output {
            return Err(format!(
                "request {}: expected output {:?}, got {:?}",
                self.req.id, self.output, resp.output
            ));
        }
        if let Some(hit) = self.expect_hit {
            if resp.cache_hit != hit {
                return Err(format!(
                    "request {}: expected cache {}, got the opposite",
                    self.req.id,
                    if hit { "hit" } else { "miss" }
                ));
            }
        }
        if self.expect_reuse && resp.reuse.is_none_or(|r| r.reused == 0) {
            return Err(format!(
                "request {}: no unit verdict reused ({:?})",
                self.req.id, resp.reuse
            ));
        }
        Ok(())
    }
}

fn stateless_job(id: String, p: Program, engine: EngineKind, expect_hit: bool) -> Job {
    let mut req = Request::new(id, p.source);
    req.engine = engine;
    req.limits.fuel = Some(DEFAULT_FUEL);
    Job {
        req,
        value: p.value,
        output: p.output,
        expect_hit: Some(expect_hit),
        expect_reuse: false,
    }
}

fn session_request(
    id: String,
    session: &str,
    action: Action,
    file: &str,
    source: String,
) -> Request {
    let mut req = Request::new(id, source);
    req.session = Some(session.to_string());
    req.action = action;
    req.file = file.to_string();
    req.limits.fuel = Some(DEFAULT_FUEL);
    req
}

/// Sends one request and waits for its response.
pub fn submit(server: &Server, req: Request) -> Response {
    let id = req.id.clone();
    server
        .submit(req)
        .recv()
        .unwrap_or_else(|_| Response::error(id, "worker dropped the request"))
}

/// How clients draw requests in the timed phase.
enum Schedule<J> {
    /// Every client takes the next unsent request (stateless traffic).
    Shared(Vec<J>),
    /// Client `k` sends `lanes[k]` in order (a session's edits are ordered).
    Lanes(Vec<Vec<J>>),
}

/// A workload after set-up, ready for its timed phase.
enum Prepared {
    Serve {
        server: Box<Server>,
        schedule: Schedule<Job>,
    },
    Cli {
        runs: Schedule<CliRun>,
    },
}

/// One `genus run` invocation and its expected standard output.
#[derive(Clone)]
pub struct CliRun {
    pub path: PathBuf,
    pub program: Program,
    pub stdout: String,
}

/// Outcome of a closed-loop phase: one sample per request sent, its
/// completion time and latency in microseconds.
#[derive(Default)]
struct Phase {
    samples: Vec<(Instant, f64)>,
    failed: u64,
    first_error: Option<String>,
}

fn merge(parts: Vec<Phase>) -> Phase {
    let mut out = Phase::default();
    for p in parts {
        out.samples.extend(p.samples);
        out.failed += p.failed;
        out.first_error = out.first_error.or(p.first_error);
    }
    out
}

/// Drives `schedule` through `send` from `clients` threads, each waiting
/// for its reply before sending again. No request is sent after `deadline`.
fn closed_loop<J: Sync>(
    schedule: &Schedule<J>,
    clients: usize,
    deadline: Instant,
    send: impl Fn(&J) -> Result<(), String> + Sync,
) -> Phase {
    let send = &send;
    let client = |jobs: &mut dyn Iterator<Item = &J>| {
        let mut p = Phase::default();
        for job in jobs {
            let t = Instant::now();
            if t >= deadline {
                break;
            }
            let res = send(job);
            p.samples
                .push((Instant::now(), t.elapsed().as_secs_f64() * 1e6));
            if let Err(e) = res {
                p.failed += 1;
                p.first_error.get_or_insert(e);
            }
        }
        p
    };
    let next = AtomicUsize::new(0);
    let next = &next;
    let parts = std::thread::scope(|s| {
        let handles: Vec<_> = match schedule {
            Schedule::Shared(jobs) => (0..clients)
                .map(|_| {
                    s.spawn(move || {
                        let mut it =
                            std::iter::from_fn(|| jobs.get(next.fetch_add(1, Ordering::Relaxed)));
                        client(&mut it)
                    })
                })
                .collect(),
            Schedule::Lanes(lanes) => lanes
                .iter()
                .map(|lane| s.spawn(move || client(&mut lane.iter())))
                .collect(),
        };
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    merge(parts)
}

/// Sends a serve job and checks its response.
fn send_job(server: &Server, job: &Job) -> Result<(), String> {
    job.check(&submit(server, job.req.clone()))
}

/// A deadline no set-up reaches.
fn far_future() -> Instant {
    Instant::now() + Duration::from_secs(3600)
}

fn serve_config(cache_capacity: usize) -> ServeConfig {
    ServeConfig {
        workers: nproc(),
        cache_capacity,
        ..ServeConfig::default()
    }
}

fn verify_setup(phase: &Phase, what: &str) -> Result<(), String> {
    match &phase.first_error {
        Some(e) => Err(format!("{what} failed: {e}")),
        None => Ok(()),
    }
}

/// `cold_distinct`: stateless stdlib requests on the default engine, each
/// source new to the server.
pub fn prepare_cold(
    ctx: &Ctx,
    n: usize,
    cache_capacity: usize,
) -> Result<(Server, Vec<Job>), String> {
    let server = Server::new(serve_config(cache_capacity));
    let jobs: Vec<Job> = (0..n as u64)
        .map(|i| {
            let p = gen::cold_program(ctx.seed, i);
            stateless_job(format!("c{i}"), p, EngineKind::Vm, false)
        })
        .collect();
    let warm: Vec<Job> = (n as u64..n as u64 + COLD_WARMUP)
        .map(|i| {
            let p = gen::cold_program(ctx.seed, i);
            stateless_job(format!("w{i}"), p, EngineKind::Vm, false)
        })
        .collect();
    let phase = closed_loop(&Schedule::Shared(warm), nproc(), far_future(), |job| {
        send_job(&server, job)
    });
    verify_setup(&phase, "warm-up")?;
    Ok((server, jobs))
}

/// The `(program, engine)` pairs of `hot_exec`.
fn hot_pairs(seed: u64) -> Vec<(Program, EngineKind)> {
    gen::HOT
        .iter()
        .flat_map(|&h| {
            let p = gen::hot_program(seed, h);
            [(p.clone(), EngineKind::Vm), (p, EngineKind::Jit)]
        })
        .collect()
}

/// The timed order of `hot_exec`: each pair equally often, shuffled.
fn hot_order(seed: u64, n: usize, pairs: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).map(|i| i % pairs).collect();
    Rng::derive(seed, 3, 0).shuffle(&mut order);
    order
}

/// `hot_exec`: a fixed set of execution-heavy programs on a warm cache;
/// set-up compiles each once per engine.
pub fn prepare_hot(ctx: &Ctx, n: usize) -> Result<(Server, Vec<Job>), String> {
    let server = Server::new(serve_config(ServeConfig::default().cache_capacity));
    let pairs = hot_pairs(ctx.seed);
    for (k, (p, engine)) in pairs.iter().enumerate() {
        let job = stateless_job(format!("w{k}"), p.clone(), *engine, k % 2 == 1);
        job.check(&submit(&server, job.req.clone()))
            .map_err(|e| format!("warm-up failed: {e}"))?;
    }
    let jobs = hot_order(ctx.seed, n, pairs.len())
        .into_iter()
        .enumerate()
        .map(|(i, k)| {
            let (p, engine) = &pairs[k];
            stateless_job(format!("h{i}"), p.clone(), *engine, true)
        })
        .collect();
    Ok((server, jobs))
}

/// A session client's program and its seeded edit stream.
pub struct EditStream {
    pub name: String,
    pub program: EditProgram,
    rng: Rng,
}

impl EditStream {
    pub fn new(seed: u64, client: usize) -> EditStream {
        let mut rng = Rng::derive(seed, 4, client as u64);
        EditStream {
            name: format!("s{client}"),
            program: EditProgram::new(&mut rng),
            rng,
        }
    }

    /// The next edit: `(unit index, new unit text, expected value)`.
    pub fn next_edit(&mut self) -> (usize, String, String) {
        let unit = self.program.edit(&mut self.rng);
        (unit, self.program.unit_source(unit), self.program.value())
    }
}

/// Opens session `stream.name` on `server` with the stream's initial
/// program and checks the first run.
fn open_session(server: &Server, stream: &EditStream) -> Result<(), String> {
    for (u, file) in gen::UNITS.iter().enumerate() {
        let req = session_request(
            format!("{}-u{u}", stream.name),
            &stream.name,
            Action::Update,
            file,
            stream.program.unit_source(u),
        );
        match submit(server, req).outcome {
            Outcome::Ok(_) => {}
            other => return Err(format!("session update failed: {other:?}")),
        }
    }
    let req = session_request(
        format!("{}-r", stream.name),
        &stream.name,
        Action::Run,
        gen::UNITS[2],
        String::new(),
    );
    let job = Job {
        req,
        value: stream.program.value(),
        output: String::new(),
        expect_hit: None,
        expect_reuse: false,
    };
    job.check(&submit(server, job.req.clone()))
        .map_err(|e| format!("session open failed: {e}"))
}

/// The sessionful run request carrying one edit.
pub fn edit_job(stream: &mut EditStream, i: usize) -> Job {
    let (unit, text, value) = stream.next_edit();
    let req = session_request(
        format!("{}-e{i}", stream.name),
        &stream.name,
        Action::Run,
        gen::UNITS[unit],
        text,
    );
    Job {
        req,
        value,
        output: String::new(),
        expect_hit: None,
        expect_reuse: true,
    }
}

/// `session_edit`: one session per client over a multi-unit program, a
/// one-token edit per request.
pub fn prepare_session(ctx: &Ctx, n: usize) -> Result<(Server, Vec<Vec<Job>>), String> {
    let server = Server::new(serve_config(ServeConfig::default().cache_capacity));
    let clients = clients(ctx.workload);
    let mut lanes = Vec::new();
    for k in 0..clients {
        let mut stream = EditStream::new(ctx.seed, k);
        open_session(&server, &stream)?;
        let per = n.div_ceil(clients);
        lanes.push((0..per).map(|i| edit_job(&mut stream, i)).collect());
    }
    Ok((server, lanes))
}

/// The CLI's stdout for a program: its prints, then `=> value`.
fn cli_stdout(p: &Program) -> String {
    format!("{}=> {}\n", p.output, p.value)
}

/// Runs `genus run --engine=vm <file>` and checks its exit and stdout.
pub fn run_cli(ctx: &Ctx, run: &CliRun) -> Result<(), String> {
    let out = Command::new(&ctx.genus_bin)
        .args(["run", "--engine=vm"])
        .arg(&run.path)
        .output()
        .map_err(|e| format!("cannot spawn {}: {e}", ctx.genus_bin.display()))?;
    if !out.status.success() {
        return Err(format!(
            "{}: exit {:?}: {}",
            run.path.display(),
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    if out.stdout != run.stdout.as_bytes() {
        return Err(format!(
            "{}: expected stdout {:?}, got {:?}",
            run.path.display(),
            run.stdout,
            String::from_utf8_lossy(&out.stdout)
        ));
    }
    Ok(())
}

fn write_run(ctx: &Ctx, i: u64) -> Result<CliRun, String> {
    let program = gen::cold_program(ctx.seed, i);
    let path = ctx.work_dir.join(format!("p{i}.genus"));
    std::fs::write(&path, &program.source)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let stdout = cli_stdout(&program);
    Ok(CliRun {
        path,
        program,
        stdout,
    })
}

/// Distinct files `oneshot_cli` cycles through. Every process starts cold
/// whatever file it gets, so the pool only needs to vary the programs;
/// it stays small so set-up is not dominated by file writes.
const CLI_FILES: u64 = 100;

/// `oneshot_cli`: sequential release-binary runs on generated files.
pub fn prepare_cli(ctx: &Ctx, n: usize) -> Result<Vec<CliRun>, String> {
    let files = (0..CLI_FILES)
        .map(|i| write_run(ctx, i))
        .collect::<Result<Vec<_>, _>>()?;
    // One untimed run pages the binary in.
    run_cli(ctx, &write_run(ctx, CLI_FILES)?).map_err(|e| format!("warm-up failed: {e}"))?;
    Ok(files.iter().cycle().take(n).cloned().collect())
}

fn prepare(ctx: &Ctx) -> Result<Prepared, String> {
    let n = request_count(ctx.workload, ctx.seconds);
    Ok(match ctx.workload {
        Workload::ColdDistinct => {
            let (server, jobs) = prepare_cold(ctx, n, COLD_CACHE_CAPACITY)?;
            Prepared::Serve {
                server: Box::new(server),
                schedule: Schedule::Shared(jobs),
            }
        }
        Workload::HotExec => {
            let (server, jobs) = prepare_hot(ctx, n)?;
            Prepared::Serve {
                server: Box::new(server),
                schedule: Schedule::Shared(jobs),
            }
        }
        Workload::SessionEdit => {
            let (server, lanes) = prepare_session(ctx, n)?;
            Prepared::Serve {
                server: Box::new(server),
                schedule: Schedule::Lanes(lanes),
            }
        }
        Workload::OneshotCli => Prepared::Cli {
            runs: Schedule::Shared(prepare_cli(ctx, n)?),
        },
    })
}

/// Set-up only, in a fresh process: seconds from process start to ready.
pub fn setup_probe(ctx: &Ctx) -> Result<f64, String> {
    let prepared = prepare(ctx)?;
    let secs = ctx.start.elapsed().as_secs_f64();
    if let Prepared::Serve { server, .. } = prepared {
        server.shutdown();
    }
    Ok(secs)
}

/// Repeats the set-up in fresh processes and returns each one's seconds.
fn probe_setups(ctx: &Ctx) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    (0..SETUP_PROBES)
        .map(|_| {
            let out = Command::new(&exe)
                .args(["--workload", ctx.workload.name()])
                .args(["--seed", &ctx.seed.to_string()])
                .args(["--seconds", &ctx.seconds.to_string()])
                .args(["--trace", "0", "--setup-probe"])
                .arg("--genus-bin")
                .arg(&ctx.genus_bin)
                .output()
                .map_err(|e| format!("cannot spawn a set-up probe: {e}"))?;
            let text = String::from_utf8_lossy(&out.stdout);
            if !out.status.success() {
                return Err(format!(
                    "set-up probe failed: {}",
                    String::from_utf8_lossy(&out.stderr)
                ));
            }
            text.trim()
                .parse::<f64>()
                .map_err(|e| format!("set-up probe printed {text:?}: {e}"))
        })
        .collect()
}

/// One end-to-end run: set-up, the timed phase, verification, metrics.
pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let prepared = prepare(ctx)?;
    let setup_main = ctx.start.elapsed().as_secs_f64();
    let cpu0 = match &prepared {
        Prepared::Serve { .. } => sys::self_usage().cpu,
        Prepared::Cli { .. } => sys::children_usage().cpu,
    };
    let t0 = Instant::now();
    // A safety stop for a host far slower than the one the request counts
    // were sized on; a run that hits it has done less work than its peers.
    let deadline = t0 + Duration::from_secs_f64(ctx.seconds as f64 * DEADLINE_FACTOR);
    let (mut phase, mut problems) = match &prepared {
        Prepared::Serve { server, schedule } => {
            let before = server.cache_stats();
            let phase = closed_loop(schedule, clients(ctx.workload), deadline, |job| {
                send_job(server, job)
            });
            let after = server.cache_stats();
            let mut problems = Vec::new();
            // Anti-vacuity: the workload must do the work it is named for.
            let sent = phase.samples.len() as u64;
            let compiles = after.compiles - before.compiles;
            let tiers = after.tier_compiles - before.tier_compiles;
            match ctx.workload {
                Workload::ColdDistinct if compiles != sent => {
                    problems.push(format!("{compiles} compiles for {sent} distinct requests"))
                }
                Workload::HotExec if compiles + tiers != 0 => problems.push(format!(
                    "{compiles} compiles and {tiers} tier compiles in the timed phase"
                )),
                _ => {}
            }
            eprintln!("serve: {} entries, cache {after:?}", server.cache().len());
            (phase, problems)
        }
        Prepared::Cli { runs } => (
            closed_loop(runs, clients(ctx.workload), deadline, |run| {
                run_cli(ctx, run)
            }),
            Vec::new(),
        ),
    };
    let wall = t0.elapsed().as_secs_f64();
    let (cpu1, peak_kib) = match &prepared {
        Prepared::Serve { .. } => (sys::self_usage().cpu, sys::status_kib("VmHWM")),
        Prepared::Cli { .. } => {
            let u = sys::children_usage();
            (u.cpu, u.maxrss_kib)
        }
    };
    if let Prepared::Serve { server, .. } = prepared {
        server.shutdown();
    }
    let mut setups = probe_setups(ctx)?;
    setups.push(setup_main);
    let attempted = phase.samples.len() as u64;
    let latencies: Vec<f64> = phase.samples.iter().map(|&(_, us)| us).collect();
    let planned = request_count(ctx.workload, ctx.seconds) as u64;
    if attempted < planned {
        eprintln!("deadline: sent {attempted} of {planned} requests");
    }
    let ok = attempted - phase.failed;
    if let Some(e) = &phase.first_error {
        problems.push(e.clone());
    }
    for p in &problems {
        eprintln!("FAIL: {p}");
    }
    eprintln!(
        "{}: {attempted} requests (latency samples), {} failed, error rate {:.4}, {wall:.3} s timed, set-ups {setups:?}",
        ctx.workload.name(),
        phase.failed,
        phase.failed as f64 / attempted as f64
    );
    let cpu_us = (cpu1 - cpu0).as_secs_f64() * 1e6;
    Ok(Report {
        correct: problems.is_empty(),
        attempted,
        failed: phase.failed,
        metrics: vec![
            ("setup_s", sys::median(&setups), "s"),
            ("throughput_rps", ok as f64 / wall, "1/s"),
            ("latency_p50_us", sys::percentile(&latencies, 50.0), "us"),
            ("latency_p99_us", windowed_p99(&mut phase.samples), "us"),
            ("cpu_us_per_req", cpu_us / attempted as f64, "us"),
            ("peak_rss_mb", peak_kib as f64 / 1024.0, "MiB"),
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stall_in_one_window_does_not_move_the_p99() {
        let t0 = Instant::now();
        let mut samples: Vec<(Instant, f64)> = (0..5000u64)
            .map(|i| (t0 + Duration::from_micros(i), 100.0 + (i % 100) as f64))
            .collect();
        let quiet = windowed_p99(&mut samples.clone());
        for s in &mut samples[1000..1100] {
            s.1 = 10_000.0;
        }
        assert_eq!(windowed_p99(&mut samples), quiet);
        assert_eq!(quiet, 198.0);
    }
}

//! Load-generator benchmark for `genus-serve`: client-observed latency
//! (p50/p99) and throughput across worker-pool sizes, cache temperatures,
//! and engines — including `engine: "auto"` hotness promotion through
//! the tiers and the persistent-bytecode restart path. Writes a
//! machine-readable summary to `BENCH_serve.json` at the repository root.
//!
//! Not a criterion harness: the interesting quantities are tail latency
//! under concurrent load and end-to-end throughput of the scheduler +
//! program cache + engines, which a single-threaded `b.iter` cannot
//! express. The load generator is a **closed-loop client pool**: a fixed
//! number of client threads each keep exactly one request in flight,
//! drawing the next from a shared queue the moment the previous response
//! lands — so offered concurrency stays at the client count for the whole
//! run instead of collapsing as a spawn-per-request design drains.
//! Latencies are recorded in the same `genus_common::histogram::Histogram`
//! the server's `/metrics` surface uses, so client-side and server-side
//! p99 are computed by identical code.
//!
//! The scaling assertions are gated on `cores` (recorded in the output):
//! on a single-core host more workers cannot multiply throughput of
//! CPU-bound work, so the gate only demands no *regression* there, and
//! demands real speedup only when the silicon can deliver one.

use genus_common::histogram::Histogram;
use genus_serve::{EngineKind, Outcome, Request, Response, ServeConfig, Server};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Requests per scenario: enough for a stable p99 at these run times
/// without making the cold-cache scenarios compile-bound for minutes.
const REQUESTS: usize = 64;

/// Distinct program shapes for the cold scenarios (each compiles once).
const PROGRAMS: usize = 16;

/// Closed-loop clients per scenario: the offered concurrency. Constant
/// across worker counts so throughput differences are the scheduler's.
const CLIENTS: usize = 16;

/// A small dispatch-heavy program, parameterized so distinct seeds are
/// distinct cache entries. Prelude-only: the cold scenarios measure the
/// service pipeline, not stdlib checking.
fn src(seed: usize) -> String {
    format!(
        "constraint Ord[T] {{ boolean T.before(T other); }}
         model IntOrd for Ord[int] {{
           boolean before(int other) {{ return this < other; }}
         }}
         int count[T](T[] xs, T p) where Ord[T] {{
           int n = 0;
           for (int i = 0; i < xs.length; i = i + 1) {{
             if (xs[i].before(p)) {{ n = n + 1; }}
           }}
           return n;
         }}
         int main() {{
           int[] xs = new int[256];
           for (int i = 0; i < 256; i = i + 1) {{ xs[i] = (i * 7919 + {seed}) % 997; }}
           int s = 0;
           for (int r = 0; r < 40; r = r + 1) {{ s = s + count[int with IntOrd](xs, 500); }}
           return s;
         }}"
    )
}

fn request(id: usize, seed: usize, engine: EngineKind) -> Request {
    let mut req = Request::new(format!("r{id}"), src(seed));
    req.engine = engine;
    req.stdlib = false;
    req.limits.fuel = Some(genus_serve::DEFAULT_FUEL);
    req
}

struct Measured {
    p50_us: f64,
    p99_us: f64,
    throughput_rps: f64,
    engines: Vec<&'static str>,
}

/// Closed-loop load generation: `clients` threads each keep one request
/// in flight until the shared queue is dry, timestamping every
/// submit→response round trip (queueing delay counts — the number a real
/// caller would see). Concurrency stays pinned at `clients` for the
/// whole run.
fn drive(server: &Arc<Server>, reqs: Vec<Request>, clients: usize) -> Measured {
    let n = reqs.len();
    let hist = Arc::new(Histogram::new());
    let queue = Arc::new(Mutex::new(VecDeque::from(reqs)));
    let engines = Arc::new(Mutex::new(Vec::with_capacity(n)));
    let wall = Instant::now();
    let handles: Vec<_> = (0..clients.max(1))
        .map(|_| {
            let server = Arc::clone(server);
            let hist = Arc::clone(&hist);
            let queue = Arc::clone(&queue);
            let engines = Arc::clone(&engines);
            std::thread::spawn(move || loop {
                let Some(req) = queue.lock().unwrap().pop_front() else {
                    return;
                };
                let start = Instant::now();
                let resp: Response = server.submit(req).recv().expect("response");
                assert!(
                    matches!(resp.outcome, Outcome::Ok(_)),
                    "bench request failed: {}",
                    resp.to_json_line()
                );
                hist.record_us(start.elapsed().as_micros() as u64);
                engines.lock().unwrap().push(resp.engine.name());
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
    let elapsed = wall.elapsed().as_secs_f64();
    let snap = hist.snapshot();
    Measured {
        p50_us: snap.quantile_us(0.50) as f64,
        p99_us: snap.quantile_us(0.99) as f64,
        throughput_rps: n as f64 / elapsed,
        engines: Arc::try_unwrap(engines).unwrap().into_inner().unwrap(),
    }
}

/// Counts how each response resolved its engine (interesting for
/// `engine: "auto"`, where the mix shows the promotion ladder).
fn engine_mix(engines: &[&'static str]) -> String {
    let count = |k: &str| engines.iter().filter(|e| **e == k).count();
    format!(
        "{{\"ast\": {}, \"vm\": {}, \"jit\": {}}}",
        count("ast"),
        count("vm"),
        count("jit")
    )
}

fn row(key: &str, workers: usize, cache: &str, engine: &str, m: &Measured, extra: &str) -> String {
    format!(
        "    \"{key}\": {{\"workers\": {workers}, \"cache\": \"{cache}\", \"engine\": \"{engine}\", \
         \"p50_us\": {:.0}, \"p99_us\": {:.0}, \"throughput_rps\": {:.0}{extra}}}",
        m.p50_us, m.p99_us, m.throughput_rps
    )
}

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut rows = Vec::new();
    let mut hot_rps_w1 = None;
    let mut hot_rps_w4 = None;
    for workers in [1usize, 4, 16] {
        // Cold: a fresh server, 64 requests over 16 distinct programs —
        // compiles dominate, and racing requests on the same fresh
        // source exercise the one-compile-per-program guarantee.
        let server = Arc::new(Server::new(ServeConfig {
            workers,
            ..ServeConfig::default()
        }));
        let cold = drive(
            &server,
            (0..REQUESTS)
                .map(|i| request(i, i % PROGRAMS, EngineKind::Vm))
                .collect(),
            CLIENTS,
        );
        assert_eq!(server.cache_stats().compiles as usize, PROGRAMS);
        rows.push(row(
            &format!("w{workers}_cold_vm"),
            workers,
            "cold",
            "vm",
            &cold,
            "",
        ));

        // Hot: the same sources again on the warmed cache — pure
        // execution + scheduling, zero compiles.
        let hot = drive(
            &server,
            (0..REQUESTS)
                .map(|i| request(REQUESTS + i, i % PROGRAMS, EngineKind::Vm))
                .collect(),
            CLIENTS,
        );
        if workers == 1 {
            hot_rps_w1 = Some(hot.throughput_rps);
        } else if workers == 4 {
            hot_rps_w4 = Some(hot.throughput_rps);
        }
        rows.push(row(
            &format!("w{workers}_hot_vm"),
            workers,
            "hot",
            "vm",
            &hot,
            "",
        ));

        // Hot + Tier 2: same warmed cache, explicit jit engine. The
        // first wave pays one tier compile per program; steady state is
        // closure-tree execution.
        let hot_jit = drive(
            &server,
            (0..REQUESTS)
                .map(|i| request(2 * REQUESTS + i, i % PROGRAMS, EngineKind::Jit))
                .collect(),
            CLIENTS,
        );
        assert_eq!(server.cache_stats().tier_compiles as usize, PROGRAMS);
        rows.push(row(
            &format!("w{workers}_hot_jit"),
            workers,
            "hot",
            "jit",
            &hot_jit,
            "",
        ));
        server.shutdown_arc();

        // Promotion: a fresh server hammered with ONE source under
        // `engine: "auto"` — the entry climbs AST → VM → Tier 2 as its
        // invocation count crosses the thresholds, with exactly one
        // tier compile. The engine mix records the ladder.
        let server = Arc::new(Server::new(ServeConfig {
            workers,
            ..ServeConfig::default()
        }));
        let auto = drive(
            &server,
            (0..REQUESTS)
                .map(|i| request(i, 0, EngineKind::Auto))
                .collect(),
            CLIENTS,
        );
        let stats = server.cache_stats();
        assert_eq!(stats.tier_compiles, 1, "exactly one promotion tier compile");
        rows.push(row(
            &format!("w{workers}_auto_promotion"),
            workers,
            "cold",
            "auto",
            &auto,
            &format!(
                ", \"tier_compiles\": {}, \"engine_mix\": {}",
                stats.tier_compiles,
                engine_mix(&auto.engines)
            ),
        ));
        server.shutdown_arc();
    }
    // Core-gated scaling check on the hot-VM path (pure execution +
    // scheduling). With ≥4 cores, 4 workers must at least double 1
    // worker's throughput; on fewer cores CPU-bound work cannot scale,
    // so the gate only rejects a collapse (sharding overhead making
    // more workers *slower* than one).
    if let (Some(w1), Some(w4)) = (hot_rps_w1, hot_rps_w4) {
        if cores >= 4 {
            assert!(
                w4 >= 2.0 * w1,
                "hot-VM throughput failed to scale on {cores} cores: w1={w1:.0} rps, w4={w4:.0} rps"
            );
        } else {
            assert!(
                w4 >= 0.5 * w1,
                "hot-VM throughput collapsed under sharding on {cores} core(s): \
                 w1={w1:.0} rps, w4={w4:.0} rps"
            );
        }
    }
    let restart = restart_row();
    let soak = soak_row();
    let json = format!(
        "{{\n  \"bench\": \"serve_load\",\n  \"cores\": {cores},\n  \"requests_per_scenario\": {REQUESTS},\n  \"distinct_programs\": {PROGRAMS},\n  \"clients\": {CLIENTS},\n  \"scenarios\": {{\n{}\n  }},\n  \"restart_warm\": {restart},\n  \"soak\": {soak}\n}}\n",
        rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    std::fs::write(path, &json).expect("write BENCH_serve.json");
    eprintln!("wrote {path}");
    print!("{json}");
}

/// Programs in the restart scenario: each is a distinct stdlib-checked
/// source, so a cold first request pays the full check + compile.
const RESTART_PROGRAMS: usize = 8;

/// First-request latency of each of `n` stdlib programs against a fresh
/// server configured by `config`, in microseconds. Sequential on
/// purpose: the quantity is per-request cold-start, not throughput.
fn first_request_us(config: &ServeConfig, offset: usize) -> (Vec<u64>, Arc<Server>) {
    let server = Arc::new(Server::new(config.clone()));
    let mut lat = Vec::with_capacity(RESTART_PROGRAMS);
    for i in 0..RESTART_PROGRAMS {
        let req = Request::new(
            format!("restart{}", offset + i),
            format!("int main() {{ return {}; }}", 100 + i),
        );
        let start = Instant::now();
        let resp = server.submit(req).recv().expect("response");
        assert!(
            matches!(resp.outcome, Outcome::Ok(_)),
            "restart request failed: {}",
            resp.to_json_line()
        );
        lat.push(start.elapsed().as_micros() as u64);
    }
    (lat, server)
}

/// The persistent-bytecode restart scenario: populate a `cache_dir`,
/// then boot a brand-new server over the same directory and compare its
/// first-request latency against a server that must compile from
/// scratch. The warm server's first answer comes off disk — no type
/// check, no compile — which is where the speedup lives (stdlib
/// checking dominates compile cost). Minima are compared so scheduler
/// jitter on a loaded host cannot mask the structural difference.
fn restart_row() -> String {
    let dir = std::env::temp_dir().join(format!("genus-bench-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Cold baseline: no cache dir, every first request compiles.
    let (cold_us, server) = first_request_us(&ServeConfig::default(), 0);
    server.shutdown_arc();

    // Populate: same programs through a cache-dir server, writing
    // artifacts; its own latencies are cold too (compile + store). A
    // cache-dir server first compiles (or loads) a stdlib warm-up
    // program; with one worker, which takes jobs in order, that is done
    // before the first request, so it counts exactly once below.
    let disk_config = ServeConfig {
        workers: 1,
        cache_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    let (_, server) = first_request_us(&disk_config, RESTART_PROGRAMS);
    let writes = server.cache_stats().disk_writes;
    assert_eq!(
        writes as usize,
        RESTART_PROGRAMS + 1,
        "populate phase persisted every program and the warm-up"
    );
    server.shutdown_arc();

    // Restart: a brand-new server over the populated directory answers
    // every first request from disk — zero compiles.
    let (warm_us, server) = first_request_us(&disk_config, 2 * RESTART_PROGRAMS);
    let stats = server.cache_stats();
    assert_eq!(stats.compiles, 0, "warm restart must not compile");
    assert_eq!(
        stats.disk_hits as usize,
        RESTART_PROGRAMS + 1,
        "warm restart serves every program and the warm-up from disk"
    );
    server.shutdown_arc();
    let _ = std::fs::remove_dir_all(&dir);

    let min_cold = *cold_us.iter().min().expect("cold samples") as f64;
    let min_warm = *warm_us.iter().min().expect("warm samples") as f64;
    let speedup = min_cold / min_warm.max(1.0);
    assert!(
        speedup >= 5.0,
        "restart from populated cache-dir not fast enough: \
         cold {min_cold:.0}us vs warm {min_warm:.0}us ({speedup:.1}x, need 5x)"
    );
    format!(
        "{{\"programs\": {RESTART_PROGRAMS}, \"cold_first_request_us\": {min_cold:.0}, \
         \"warm_first_request_us\": {min_warm:.0}, \"speedup\": {speedup:.1}, \
         \"disk_hits\": {}}}",
        stats.disk_hits
    )
}

/// Requests in the GC soak scenario.
const SOAK_REQUESTS: usize = 1000;

/// An allocation-churn request: each run allocates a few megabytes of
/// short-lived arrays and objects, keeping only an int checksum live.
fn soak_src() -> String {
    "class Node {
       int v;
       Node(int v) { this.v = v; }
     }
     int main() {
       int s = 0;
       for (int i = 0; i < 5000; i = i + 1) {
         int[] a = new int[64];
         a[0] = i;
         Node n = new Node(i);
         s = s + a[0] - n.v + 1;
       }
       return s;
     }"
    .to_string()
}

/// Resident-set size in KiB from `/proc/self/statm` (Linux; `None`
/// elsewhere, which skips the flatness assertion but still reports the
/// per-request heap stats).
fn rss_kb() -> Option<u64> {
    let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
    let pages: u64 = statm.split_whitespace().nth(1)?.parse().ok()?;
    Some(pages * 4096 / 1024)
}

/// The memory soak: 1000 allocation-churn requests through one server.
/// Every run gets a fresh per-execution heap that dies with its engine,
/// so process RSS must stay flat while the requests churn gigabytes in
/// aggregate — the response-level stats prove each run's collector did
/// the reclamation (collections > 0, live set back near zero) and the
/// RSS delta proves nothing leaks across requests.
fn soak_row() -> String {
    let server = Arc::new(Server::new(ServeConfig {
        workers: 4,
        ..ServeConfig::default()
    }));
    let rss_before = rss_kb();
    let wall = Instant::now();
    let mut max_live = 0u64;
    let mut min_collections = u64::MAX;
    let mut mem_used = 0u64;
    // Sequential waves keep peak concurrency at the worker count, so the
    // RSS measurement prices per-request cleanup, not queue depth.
    for wave in 0..(SOAK_REQUESTS / 50) {
        let reqs: Vec<Request> = (0..50)
            .map(|i| {
                let mut req = Request::new(format!("soak{}", wave * 50 + i), soak_src());
                req.stdlib = false;
                req.limits.fuel = Some(genus_serve::DEFAULT_FUEL);
                req
            })
            .collect();
        for resp in server.run_batch(reqs) {
            assert!(
                matches!(resp.outcome, Outcome::Ok(_)),
                "soak request failed: {}",
                resp.to_json_line()
            );
            assert!(resp.collections > 0, "soak run never collected");
            max_live = max_live.max(resp.live_bytes);
            min_collections = min_collections.min(resp.collections);
            mem_used = resp.mem_used;
        }
    }
    let elapsed = wall.elapsed().as_secs_f64();
    let rss_after = rss_kb();
    server.shutdown_arc();
    // Flatness: ~3 GiB churned in aggregate must not move RSS by more
    // than a small constant (allocator slack, cache growth).
    if let (Some(before), Some(after)) = (rss_before, rss_after) {
        assert!(
            after.saturating_sub(before) < 64 * 1024,
            "serve soak leaked: RSS {before} KiB -> {after} KiB"
        );
    }
    // Each run's live set came back to (near) zero: the checksum plus
    // the final iteration's garbage at most.
    assert!(
        max_live < mem_used / 100,
        "soak live set did not return to baseline: {max_live} of {mem_used}"
    );
    format!(
        "{{\"requests\": {SOAK_REQUESTS}, \"workers\": 4, \"throughput_rps\": {:.0}, \
         \"mem_used_per_request\": {mem_used}, \"min_collections\": {min_collections}, \
         \"max_live_bytes\": {max_live}, \"rss_before_kb\": {}, \"rss_after_kb\": {}}}",
        SOAK_REQUESTS as f64 / elapsed,
        rss_before.map_or(-1i64, |v| v as i64),
        rss_after.map_or(-1i64, |v| v as i64)
    )
}

/// `Server::shutdown` takes `self` by value; this helper lets the bench
/// drop an `Arc`'d server gracefully once all clients have joined.
trait ShutdownArc {
    fn shutdown_arc(self);
}

impl ShutdownArc for Arc<Server> {
    fn shutdown_arc(self) {
        if let Some(server) = Arc::into_inner(self) {
            server.shutdown();
        }
    }
}

//! The repository benchmark: seeded Genus workloads driven through the
//! public entry points of `genus-serve` (`Server::submit`) and the `genus`
//! CLI, with every result checked against an independently computed
//! expected value. See `README.md` for the workloads, the metrics and
//! how to read a traced run.
//!
//! ```text
//! genus-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                 --genus-bin <path> [--setup-probe]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; everything else goes to stderr.

mod e2e;
mod gen;
mod sys;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ColdDistinct,
    HotExec,
    SessionEdit,
    OneshotCli,
}

impl Workload {
    fn from_name(name: &str) -> Option<Workload> {
        match name {
            "cold_distinct" => Some(Workload::ColdDistinct),
            "hot_exec" => Some(Workload::HotExec),
            "session_edit" => Some(Workload::SessionEdit),
            "oneshot_cli" => Some(Workload::OneshotCli),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdDistinct => "cold_distinct",
            Workload::HotExec => "hot_exec",
            Workload::SessionEdit => "session_edit",
            Workload::OneshotCli => "oneshot_cli",
        }
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    /// The release `genus` binary (`oneshot_cli` spawns it).
    pub genus_bin: PathBuf,
    /// Directory for generated input files, inside the checkout; removed
    /// at exit.
    pub work_dir: PathBuf,
    /// Process start, for `setup_s`.
    pub start: Instant,
}

/// What a run prints as its last line.
#[derive(Debug, Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: genus-perfbench --workload <cold_distinct|hot_exec|session_edit|oneshot_cli> \
         --seed <n> --seconds <s> --trace <0|1> --genus-bin <path> [--setup-probe]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let start = Instant::now();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = false;
    let mut probe = false;
    let mut genus_bin = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--setup-probe" {
            probe = true;
            continue;
        }
        let Some(v) = args.next() else {
            return usage(&format!("`{a}` needs a value"));
        };
        match a.as_str() {
            "--workload" => workload = Workload::from_name(&v),
            "--seed" => seed = v.parse::<u64>().ok(),
            "--seconds" => seconds = v.parse::<u64>().ok().filter(|s| (1..=600).contains(s)),
            "--trace" => match v.as_str() {
                "0" => traced = false,
                "1" => traced = true,
                _ => return usage("--trace takes 0 or 1"),
            },
            "--genus-bin" => genus_bin = Some(PathBuf::from(v)),
            _ => return usage(&format!("unknown option `{a}`")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(genus_bin)) =
        (workload, seed, seconds, genus_bin)
    else {
        return usage("--workload, --seed, --seconds and --genus-bin are required");
    };
    let ctx = Ctx {
        workload,
        seed,
        seconds,
        genus_bin,
        work_dir: PathBuf::from(".bench_build/perfbench-work").join(format!(
            "{}-{}",
            workload.name(),
            std::process::id()
        )),
        start,
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.work_dir) {
        eprintln!("error: cannot create {}: {e}", ctx.work_dir.display());
        return ExitCode::from(2);
    }
    let result = if probe {
        e2e::setup_probe(&ctx).map(|secs| {
            println!("{secs}");
            None
        })
    } else if traced {
        trace::run(&ctx).map(Some)
    } else {
        e2e::run(&ctx).map(Some)
    };
    let _ = std::fs::remove_dir_all(&ctx.work_dir);
    match result {
        Ok(Some(report)) => {
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Ok(None) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

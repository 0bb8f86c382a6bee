//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload from the root of the source tree and prints, as its
//! last line, `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics when untraced, the per-layer metrics when traced.
//! The line before it holds provenance and the detail behind the metrics.
//! Exits non-zero when any response fails the reference check. Runs on
//! the RNS-CKKS backend; the self-test drives the simulator through the
//! library.

use chet_hisa::json::Json;
use chet_perfbench::backend::Rns;
use chet_perfbench::report::{self, num, obj};
use chet_perfbench::{run, RunConfig, Workload};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: perfbench --workload <lenet-small-e2e|serve-batched> \
--seed <n> --seconds <s> --trace <0|1>";

fn parse(mut it: impl Iterator<Item = String>) -> Result<RunConfig, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                seconds =
                    Some(Duration::try_from_secs_f64(s).map_err(|e| format!("--seconds: {e}"))?);
            }
            "--trace" => trace = value == "1",
            other => return Err(format!("unknown argument {other} {value}")),
        }
    }
    let root = PathBuf::from(".");
    Ok(RunConfig {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        out_dir: root.join("perfbench").join("out"),
        root,
    })
}

/// The host and build this record describes.
fn provenance(cfg: &RunConfig) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(str::to_string)
        })
        .map(|s| s.trim_start_matches([' ', '\t', ':']).to_string())
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    obj([
        ("workload", Json::Str(cfg.workload.name().into())),
        ("seed", num(cfg.seed as f64)),
        ("seconds", num(cfg.seconds.as_secs_f64())),
        ("trace", Json::Bool(cfg.trace)),
        ("nproc", num(nproc as f64)),
        ("chet_threads", num(chet_runtime::par::threads() as f64)),
        (
            "chet_threads_env",
            Json::Str(std::env::var("CHET_THREADS").unwrap_or_default()),
        ),
        ("cpu", Json::Str(cpu)),
        ("commit", Json::Str(report::commit())),
        ("source_digest", Json::Str(report::source_digest(&cfg.root))),
    ])
}

fn main() -> ExitCode {
    let cfg = match parse(std::env::args().skip(1)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cfg = &cfg;
    let outcome = match run::<Rns>(cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", cfg.workload.name());
            return ExitCode::FAILURE;
        }
    };

    let result = match report::result_line(&outcome, cfg.trace) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", cfg.workload.name());
            return ExitCode::FAILURE;
        }
    };
    let mut detail = outcome.detail.clone();
    detail.insert("provenance".into(), provenance(cfg));
    if cfg.trace {
        detail.insert(
            "end_to_end".into(),
            Json::Obj(
                outcome
                    .end_to_end
                    .iter()
                    .map(|(k, &v)| (k.clone(), num(v)))
                    .collect(),
            ),
        );
    }
    println!("{}", obj([("detail", Json::Obj(detail))]).render());
    println!("{}", result.render());
    let correct = outcome.failed == 0;
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

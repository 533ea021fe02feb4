//! Host-time benchmark of the agile-paging simulator, driven through the
//! public API of `agile_core` from outside.
//!
//! ```text
//! agile-perfbench --workload <walk_bound|churn_bound|paranoid_matrix>
//!                 --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Repeats the workload until `--seconds` would be exceeded (at least
//! twice) and prints one JSON report on stdout: the end-to-end metrics
//! (`--trace 0`) or the per-layer ones (`--trace 1`), the digest of the
//! simulated statistics, and the deterministic per-layer counts. Every
//! repetition must reproduce the first one's digest and counts exactly;
//! a drift is reported as a problem, never averaged away. `perfbench/run.py`
//! builds this binary and turns the report into the benchmark's result.

mod calib;
mod layers;
mod matrix;
mod report;
mod single;

use agile_core::Json;
use report::{end_to_end, median, per_layer, Metric, Rep};
use std::process::ExitCode;
use std::time::Instant;

const MIN_REPS: usize = 2;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    WalkBound,
    ChurnBound,
    ParanoidMatrix,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "walk_bound" => Workload::WalkBound,
                    "churn_bound" => Workload::ChurnBound,
                    "paranoid_matrix" => Workload::ParanoidMatrix,
                    other => return Err(format!("unknown workload {other:?}")),
                });
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Host memory high-water mark of this process, MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("agile-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let threads = nproc.min(2);
    let spec = match args.workload {
        Workload::WalkBound => Some(single::walk_bound(args.seed)),
        Workload::ChurnBound => Some(single::churn_bound(args.seed)),
        Workload::ParanoidMatrix => None,
    };

    // Untraced repetitions give the end-to-end numbers; on the single-
    // machine workloads a traced run interleaves them with traced ones so
    // the tracing overhead is measured under the same conditions.
    let mut plain: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    let start = Instant::now();
    for round in 1.. {
        match &spec {
            Some(w) => {
                plain.push(single::rep(w, false));
                if args.trace {
                    traced.push(single::rep(w, true));
                }
            }
            None if args.trace => traced.push(matrix::rep(args.seed, threads, true)),
            None => plain.push(matrix::rep(args.seed, threads, false)),
        }
        // A list that a round does not add to stays empty, so `last()` is
        // always this round's repetition.
        for (kind, rep) in [("plain", plain.last()), ("traced", traced.last())] {
            if let Some(r) = rep {
                eprintln!(
                    "rep {round} {kind}: wall {:.6} s (raw {:.6} s), setup {:.6} s, {:.0} accesses/s",
                    r.wall_s,
                    r.raw_wall_s,
                    r.setup_s,
                    r.accesses as f64 / r.wall_s
                );
            }
        }
        let elapsed = start.elapsed().as_secs_f64();
        if round >= MIN_REPS && elapsed * (round + 1) as f64 / round as f64 > args.seconds {
            break;
        }
    }

    let all: Vec<&Rep> = plain.iter().chain(&traced).collect();
    let mut problems: Vec<String> = all.iter().flat_map(|r| r.problems.clone()).collect();
    if all.iter().any(|r| r.digest != all[0].digest) {
        problems.push("simulated-statistics digest drifted between repetitions".into());
    }
    let counts: Vec<Vec<u64>> = traced
        .iter()
        .filter_map(|r| r.trace.as_ref())
        .map(|t| t.layers.count_vector())
        .collect();
    if counts.iter().any(|c| *c != counts[0]) {
        problems.push("a per-layer count drifted between repetitions".into());
    }
    let violations: u64 = all.iter().map(|r| r.violations).sum();

    let metrics: Vec<Metric> = if args.trace {
        let mut by_time: Vec<&Rep> = traced.iter().collect();
        by_time.sort_by(|a, b| {
            let t = |r: &Rep| r.trace.as_ref().map_or(0.0, |t| t.layers.traced_s);
            t(a).total_cmp(&t(b))
        });
        let rep = by_time[(by_time.len() - 1) / 2];
        let trace = rep.trace.as_ref().expect("traced repetition");
        let overhead = trace.overhead_frac.unwrap_or_else(|| {
            let traced_s: Vec<f64> = traced
                .iter()
                .filter_map(|r| r.trace.as_ref())
                .map(|t| t.layers.traced_s)
                .collect();
            let plain_s: Vec<f64> = plain.iter().map(|r| r.raw_wall_s).collect();
            median(&traced_s) / median(&plain_s) - 1.0
        });
        per_layer(trace, overhead, rep.violations)
    } else {
        let rss = match peak_rss_mb() {
            Ok(v) => v,
            Err(e) => {
                eprintln!("agile-perfbench: peak RSS: {e}");
                return ExitCode::from(1);
            }
        };
        end_to_end(&plain.iter().collect::<Vec<_>>(), rss)
    };

    let counts_digest = counts.first().map(|c| {
        let text: Vec<String> = c.iter().map(u64::to_string).collect();
        format!("{:016x}", agile_core::digest(text.join(",").as_bytes()))
    });
    let workload_name = match args.workload {
        Workload::WalkBound => "walk_bound",
        Workload::ChurnBound => "churn_bound",
        Workload::ParanoidMatrix => "paranoid_matrix",
    };
    for m in &metrics {
        eprintln!("  {:<32} {:>18.6} {}", m.name, m.value, m.unit);
    }
    let report = Json::obj(vec![
        ("workload", Json::Str(workload_name.into())),
        ("seed", Json::UInt(args.seed)),
        ("trace", Json::Bool(args.trace)),
        (
            "paranoia",
            Json::Bool(args.workload == Workload::ParanoidMatrix),
        ),
        ("threads", Json::UInt(threads as u64)),
        ("nproc", Json::UInt(nproc as u64)),
        ("reps", Json::UInt(all.len() as u64)),
        (
            "attempted",
            Json::UInt(all.iter().map(|r| r.attempted).sum()),
        ),
        ("failed", Json::UInt(all.iter().map(|r| r.failed).sum())),
        ("violations", Json::UInt(violations)),
        (
            "host_slowdown",
            Json::Num(median(
                &all.iter()
                    .map(|r| r.raw_wall_s / r.wall_s)
                    .collect::<Vec<_>>(),
            )),
        ),
        ("digest", Json::Str(format!("{:016x}", all[0].digest))),
        ("counts_digest", counts_digest.map_or(Json::Null, Json::Str)),
        (
            "problems",
            Json::Arr(problems.into_iter().map(Json::Str).collect()),
        ),
        (
            "metrics",
            Json::Obj(
                metrics
                    .into_iter()
                    .map(|m| {
                        (
                            m.name,
                            Json::obj(vec![
                                ("value", Json::Num(m.value)),
                                ("unit", Json::Str(m.unit.into())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", report.render());
    ExitCode::SUCCESS
}

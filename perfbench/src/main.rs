//! `perfbench`: the fixed-duration benchmark of the `cds` workspace.
//!
//! One invocation runs one workload for a fixed window and prints one
//! JSON document on standard output: `correct`, `attempted`, `failed`,
//! the metrics (each with its unit and, for timings, its sample count)
//! and a record of the run. The untraced build reports the end-to-end
//! metrics; the build with `--features telemetry` reports the per-layer
//! ones. `perfbench/run.py` builds both and drives them.
//!
//! ```text
//! perfbench --workload map-read|set-churn|scatter-gather --seed N
//!           --seconds S --trace 0|1 [--spans FILE]
//! ```

mod gather;
mod keyed;
mod measure;

use cds_bench::json::Json;

use measure::{Outcome, RunConfig, TRACED};

/// The workloads: the three `BENCHMARK.json` lists, in the order
/// `run.py --workload all` runs them, then the unlisted reproducer of a
/// known library defect (see the README).
const WORKLOADS: [&str; 4] = ["map-read", "set-churn", "scatter-gather", "skiplist-churn"];

/// The window is cut into segments of about this many seconds (see
/// [`RunConfig::segments`]).
const SEGMENT_S: f64 = 1.0;

/// Untimed warm-up before each segment's window, seconds: long enough for
/// the EBR collector, the allocator and the caches to settle on a freshly
/// built structure or pool.
const WARMUP_S: f64 = 0.25;

struct Args {
    workload: String,
    cfg: RunConfig,
    trace: bool,
    spans: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut spans = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => match value.as_str() {
                "0" | "1" => trace = Some(value == "1"),
                _ => return Err(format!("--trace takes 0 or 1, not {value}")),
            },
            "--spans" => spans = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds must be positive, not {seconds}"));
    }
    Ok(Args {
        workload,
        cfg: RunConfig {
            seed: seed.ok_or("--seed is required")?,
            seconds,
            warmup: WARMUP_S,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            segments: ((seconds / SEGMENT_S).round() as usize).max(1),
        },
        trace: trace.ok_or("--trace is required")?,
        spans,
    })
}

fn run(workload: &str, cfg: &RunConfig) -> Outcome {
    match workload {
        "map-read" => keyed::run::<keyed::Map>(&keyed::MAP_READ, cfg),
        "set-churn" => keyed::run::<keyed::Set>(&keyed::SET_CHURN, cfg),
        "scatter-gather" => gather::run(cfg),
        "skiplist-churn" => keyed::run::<keyed::SkipSet>(&keyed::WIDE_CHURN, cfg),
        _ => unreachable!("workload names are checked by parse_args"),
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Build guard: the end-to-end numbers must come from a build without
    // the counters, and the per-layer numbers from one with them.
    if cds_obs::enabled() != args.trace || TRACED != args.trace {
        eprintln!(
            "perfbench: --trace {} run on a build with telemetry {}",
            args.trace as u8,
            cds_obs::enabled()
        );
        std::process::exit(3);
    }
    // Span timestamps count from here.
    measure::now_ns();

    let out = run(&args.workload, &args.cfg);

    if let Some(path) = &args.spans {
        if let Err(e) = measure::write_spans(path, &out.spans) {
            eprintln!("perfbench: writing spans to {path}: {e}");
            std::process::exit(4);
        }
    }

    let metrics = out
        .metrics
        .iter()
        .map(|m| {
            let mut fields = vec![
                ("value".to_string(), Json::Num(m.value)),
                ("unit".to_string(), Json::Str(m.unit.into())),
            ];
            if let Some(n) = m.samples {
                fields.push(("samples".into(), Json::Num(n as f64)));
            }
            (m.name.clone(), Json::Obj(fields))
        })
        .collect();
    let mut record = vec![
        ("workload".to_string(), Json::Str(args.workload.clone())),
        ("seed".into(), Json::Num(args.cfg.seed as f64)),
        ("seconds".into(), Json::Num(args.cfg.seconds)),
        ("warmup_s_per_segment".into(), Json::Num(args.cfg.warmup)),
        ("telemetry".into(), Json::Bool(cds_obs::enabled())),
        ("nproc".into(), Json::Num(args.cfg.nproc as f64)),
        ("cpu_model".into(), Json::Str(cpu_model())),
        ("throughput_ops_s".into(), Json::Num(out.throughput_ops_s)),
    ];
    record.extend(out.record);
    let doc = Json::Obj(vec![
        ("correct".into(), Json::Bool(out.failed == 0)),
        ("attempted".into(), Json::Num(out.attempted as f64)),
        ("failed".into(), Json::Num(out.failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
        ("record".into(), Json::Obj(record)),
    ]);
    print!("{}", doc.to_string_pretty());
}

//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output,
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Exits non-zero if any request failed or answered wrongly.

use std::process::ExitCode;

use obda_perfbench::drive::{self, RunResult};
use obda_perfbench::ops::{self, Workload};
use obda_perfbench::{replay, stats};
use obda_server::Json;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    Ok(Args {
        workload: workload.ok_or_else(|| format!("--workload is one of {}", names.join(", ")))?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(20).max(1),
        trace: trace.unwrap_or(false),
    })
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj(vec![("value", Json::Num(value)), ("unit", unit.into())])
}

/// Prints per-class latency ranges and where the median and the tail
/// land among them.
fn report_classes(w: Workload, res: &RunResult, reads: &[f64]) {
    let names = ops::class_names(w);
    let pairs: Vec<(usize, f64)> = res
        .samples
        .iter()
        .filter(|s| !s.write)
        .map(|s| (s.class, s.latency_us))
        .collect();
    let classes = stats::class_ranges(&names, &pairs);
    for c in &classes {
        println!(
            "class {:<16} n={:<6} min_us={:<10.1} p50_us={:<10.1} max_us={:.1}",
            c.name, c.count, c.min_us, c.p50_us, c.max_us
        );
    }
    let (tail, tail_name) = w.tail();
    for (p, name) in [(0.5, "p50"), (tail, tail_name)] {
        let l = stats::landing(&classes, p);
        println!(
            "landing op_{name}_us={:.1} class={} margin={:.3} neighbour={} ratio={:.2} on_boundary={}",
            stats::percentile(reads, p),
            l.class,
            l.margin,
            l.neighbour.as_deref().unwrap_or("-"),
            l.ratio,
            l.on_boundary
        );
    }
}

/// Per-round figures: ops per second, read median and read tail.
struct Rounds {
    rate: Vec<f64>,
    p50: Vec<f64>,
    tail: Vec<f64>,
}

fn round_figures(res: &RunResult, tail: f64) -> Rounds {
    let mut out = Rounds {
        rate: Vec::new(),
        p50: Vec::new(),
        tail: Vec::new(),
    };
    let mut start = 0;
    for r in &res.rounds {
        let mut lat: Vec<f64> = res.samples[start..start + r.ops]
            .iter()
            .filter(|s| !s.write)
            .map(|s| s.latency_us)
            .collect();
        lat.sort_by(f64::total_cmp);
        start += r.ops;
        out.rate.push(r.ops as f64 / r.secs.max(f64::MIN_POSITIVE));
        out.p50.push(stats::percentile(&lat, 0.5));
        out.tail.push(stats::percentile(&lat, tail));
    }
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let knobs: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("QUONTO_"))
        .collect();
    if !knobs.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set: every engine option is pinned",
            knobs.join(", ")
        );
        return ExitCode::from(2);
    }
    let w = args.workload;
    let probe_before = stats::host_probe_s();
    let ticks_before = stats::cpu_ticks();
    let res = match drive::run(w, args.seed, args.seconds) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", w.name());
            return ExitCode::from(1);
        }
    };
    let ticks_after = stats::cpu_ticks();
    let probe_after = stats::host_probe_s();
    let steal_frac =
        (ticks_after.0 - ticks_before.0) as f64 / (ticks_after.1 - ticks_before.1).max(1) as f64;
    let peak_rss = stats::peak_rss_mb();

    let mut reads: Vec<f64> = res
        .samples
        .iter()
        .filter(|s| !s.write)
        .map(|s| s.latency_us)
        .collect();
    reads.sort_by(f64::total_cmp);
    let timed_ops = res.samples.len();
    let (tail, tail_name) = w.tail();
    println!(
        "workload {} seed={} seconds={} ops={} reads={} rounds={}",
        w.name(),
        args.seed,
        args.seconds,
        timed_ops,
        reads.len(),
        ops::ROUNDS
    );
    println!(
        "config engine=[{}] workers={} connections={}",
        res.config,
        res.workers,
        w.connections()
    );
    println!(
        "run_record host_probe_s before={probe_before:.4} after={probe_after:.4} iters={} host_steal_frac={steal_frac:.4} setup_s={:?} timed_s={:.4}",
        stats::PROBE_ITERS,
        res.setup_s,
        res.timed_s()
    );
    let rounds = round_figures(&res, tail);
    println!(
        "run_record round_ops_per_s={:.1?} round_p50_us={:.1?} round_{tail_name}_us={:.1?}",
        rounds.rate, rounds.p50, rounds.tail
    );
    report_classes(w, &res, &reads);
    let (ops_per_s, p50, tail_us, beyond, over) = if w.per_round() {
        let beyond = res.rounds.iter().map(|r| stats::beyond(r.reads, tail));
        (
            stats::median(&rounds.rate),
            stats::median(&rounds.p50),
            stats::median(&rounds.tail),
            beyond.min().unwrap_or(0),
            "every round",
        )
    } else {
        (
            timed_ops as f64 / res.timed_s().max(f64::MIN_POSITIVE),
            stats::percentile(&reads, 0.5),
            stats::percentile(&reads, tail),
            stats::beyond(reads.len(), tail),
            "the run",
        )
    };
    println!("tail {tail_name} with {beyond} samples beyond it in {over}");
    let mut writes: Vec<f64> = res
        .samples
        .iter()
        .filter(|s| s.write)
        .map(|s| s.latency_us)
        .collect();
    writes.sort_by(f64::total_cmp);
    if !writes.is_empty() {
        println!(
            "writes n={} write_p50_us={:.1} write_p99_us={:.1} ({} beyond p99)",
            writes.len(),
            stats::percentile(&writes, 0.5),
            stats::percentile(&writes, 0.99),
            stats::beyond(writes.len(), 0.99)
        );
    }
    for f in &res.failures {
        println!("failure {f}");
    }
    let failed_frac = res.failed as f64 / res.attempted.max(1) as f64;
    println!(
        "failed_frac={failed_frac} (ratio) failed={} attempted={}",
        res.failed, res.attempted
    );

    let (mut failed, attempted) = (res.failed, res.attempted);
    let metrics: Vec<(&str, Json)> = if args.trace {
        let rep = match replay::run(w, args.seed, args.seconds, &res) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("perfbench: traced replay of {} failed: {e}", w.name());
                return ExitCode::from(1);
            }
        };
        for m in &rep.mismatches {
            println!("failure {m}");
        }
        failed += rep.mismatches.len() as u64;
        let dir = std::path::Path::new("perfbench-out");
        let path = dir.join(format!("spans-{}-seed{}.tsv", w.name(), args.seed));
        if let Err(e) =
            std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, &rep.spans_tsv))
        {
            eprintln!("perfbench: writing {}: {e}", path.display());
        } else {
            println!("spans written to {}", path.display());
        }
        for (name, value, unit) in &rep.metrics {
            println!("layer {name}={value} ({unit})");
        }
        rep.metrics
            .iter()
            .map(|(name, value, unit)| (*name, metric(*value, unit)))
            .collect()
    } else {
        let e2e = vec![
            ("setup_s", stats::median(&res.setup_s), "s"),
            ("ops_per_s", ops_per_s, "1/s"),
            ("op_p50_us", p50, "us"),
            ("op_tail_us", tail_us, "us"),
            ("peak_rss_mb", peak_rss, "MiB"),
        ];
        for (name, value, unit) in &e2e {
            println!("metric {name}={value} ({unit})");
        }
        e2e.into_iter()
            .map(|(name, value, unit)| (name, metric(value, unit)))
            .collect()
    };
    let correct = failed == 0;
    println!(
        "{}",
        Json::obj(vec![
            ("correct", Json::Bool(correct)),
            ("attempted", attempted.into()),
            ("failed", failed.into()),
            ("metrics", Json::obj(metrics)),
        ])
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

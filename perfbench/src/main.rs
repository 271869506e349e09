//! End-to-end and per-layer benchmark of the star-rings library and
//! server. See `perfbench/README.md`; `perfbench/run.py` builds and runs
//! it.
//!
//! ```text
//! perfbench --workload <embed-fresh|serve-orbit|serve-cold> --seed <n>
//!           --seconds <s> --trace <0|1> --server-bin <path> --work-dir <dir>
//! ```
//!
//! Prints every metric of the workload by name with its unit and sample
//! count, then one JSON line with the metrics `BENCHMARK.json` names.
//! Exits 1 if any ring fails its check, 2 if the run could not measure.

mod embed;
mod inputs;
mod replay;
mod serve;
mod stats;
mod sys;

use std::path::PathBuf;

use serve::{Kind, Paths};
use stats::Report;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    server_bin: Option<PathBuf>,
    work_dir: PathBuf,
    setup_probe: bool,
    layer_peak: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        server_bin: None,
        work_dir: PathBuf::from(".bench_build/perfbench-work"),
        setup_probe: false,
        layer_peak: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--setup-probe" => args.setup_probe = true,
            "--layer-peak" => args.layer_peak = true,
            _ => {
                let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
                set_flag(&mut args, flag, value)?;
            }
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

fn set_flag(args: &mut Args, flag: &str, value: &str) -> Result<(), String> {
    let bad = || format!("bad value for {flag}: {value}");
    match flag {
        "--workload" => args.workload = value.to_string(),
        "--seed" => args.seed = value.parse().map_err(|_| bad())?,
        "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
        "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
        "--server-bin" => args.server_bin = Some(PathBuf::from(value)),
        "--work-dir" => args.work_dir = PathBuf::from(value),
        _ => return Err(format!("unknown flag {flag}")),
    }
    Ok(())
}

fn run(args: &Args) -> Result<Report, String> {
    std::fs::create_dir_all(&args.work_dir)
        .map_err(|e| format!("{}: {e}", args.work_dir.display()))?;
    let kind = match args.workload.as_str() {
        "embed-fresh" => {
            return if args.trace {
                embed::run_traced(args.seed, args.seconds)
            } else {
                embed::run(args.seed, args.seconds)
            };
        }
        "serve-orbit" => Kind::Orbit,
        "serve-cold" => Kind::Cold,
        other => return Err(format!("unknown workload {other:?}")),
    };
    let paths = Paths {
        bin: args
            .server_bin
            .clone()
            .ok_or("serve workloads need --server-bin")?,
        work: args.work_dir.clone(),
    };
    if args.trace {
        serve::run_traced(kind, args.seed, args.seconds, &paths)
    } else {
        serve::run(kind, args.seed, args.seconds, &paths)
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.setup_probe {
        println!("{}", embed::setup(args.seed));
        return;
    }
    if args.layer_peak {
        match embed::layer_peaks(&inputs::largest(&args.workload, args.seed)) {
            Ok((hierarchy, expand)) => println!("{hierarchy} {expand}"),
            Err(e) => {
                eprintln!("perfbench: layer peak: {e}");
                std::process::exit(2);
            }
        }
        return;
    }
    let ticks = sys::cpu_ticks();
    match run(&args) {
        Ok(mut report) => {
            report.note(format!(
                "host: {:.1}% of CPU time stolen by other guests during the run",
                100.0 * sys::steal_since(ticks)
            ));
            let mode = if args.trace { "traced" } else { "untraced" };
            report.print_table(&format!(
                "{} seed={} seconds={} {mode}",
                args.workload, args.seed, args.seconds
            ));
            println!("{}", report.json_line());
            if report.failed > 0 {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(2);
        }
    }
}

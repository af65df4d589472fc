//! `nsxbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload once and prints, as the last line of stdout, a JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. Progress
//! notes and failed checks go to stderr. A traced run also writes its
//! spans as CSV under `nsxbench/out/`.

use std::path::Path;
use std::process::ExitCode;

use nsxbench::gen::Workload;
use nsxbench::json::result_line;
use nsxbench::run::{run, Config};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&val).ok_or_else(|| format!("unknown workload {val}"))?)
            }
            "--seed" => seed = val.parse().map_err(|e| format!("--seed {val}: {e}"))?,
            "--seconds" => {
                seconds = val.parse().map_err(|e| format!("--seconds {val}: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {val}: out of range"));
                }
            }
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {val}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("nsxbench: {e}");
            eprintln!(
                "usage: nsxbench --workload overlay_hot|overlay_wide|conn_setup \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let mut cfg = Config::new(args.workload, args.seed, args.seconds, args.trace);
    if args.trace {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        if std::fs::create_dir_all(&dir).is_ok() {
            cfg.trace_out = Some(dir.join(format!(
                "spans-{}-seed{}.csv",
                args.workload.name(),
                args.seed
            )));
        }
    }
    let out = run(cfg);
    for n in &out.notes {
        eprintln!("nsxbench: {n}");
    }
    for f in &out.failures {
        eprintln!("nsxbench: CHECK FAILED: {f}");
    }
    println!("{}", result_line(&out));
    ExitCode::SUCCESS
}

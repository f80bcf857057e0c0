//! Runs one benchmark workload and prints every metric by name with its
//! unit, then one JSON result line.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload plant_100k --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Exits 1 when an output check fails (the result line then says
//! `"correct": false`) and 2 on bad arguments.

use perfbench::record::{write_and_reread, Record};
use perfbench::{run, Args, WORKLOADS};
use std::process::ExitCode;

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok(args)
}

fn print(record: &Record) -> Result<(), String> {
    let h = &record.host;
    println!(
        "perfbench {} seed {} trace {} | nproc {} | {} | {}",
        record.workload,
        record.seed,
        u8::from(record.trace),
        h.nproc,
        h.cpu_model,
        h.rustc
    );
    for (section, metrics) in [
        ("end_to_end", &record.end_to_end),
        ("layers", &record.layers),
    ] {
        for (name, m) in metrics {
            println!(
                "  {section:<10} {name:<32} {:>14.6} {:<6} (n={}, q1 {:.6}, q3 {:.6}, min {:.6})",
                m.median, m.unit, m.samples, m.q1, m.q3, m.min
            );
        }
    }
    for e in &record.errors {
        println!("  CHECK FAILED: {e}");
    }
    println!("{}", record.result_line()?);
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let record = match run(&args).and_then(|r| write_and_reread(&r)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = print(&record) {
        eprintln!("perfbench: {e}");
        return ExitCode::from(2);
    }
    if record.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

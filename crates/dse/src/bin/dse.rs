//! `dse` — the design-space-search service CLI.
//!
//! Reads a strict-JSON request (`{"queries": [...]}`, see
//! `tsn_dse::parse_batch`) from a file argument or stdin and prints the
//! response. `--workers N` sizes the pool; the response bytes are
//! identical for every worker count. A malformed request exits 2;
//! infeasible queries are answered results, not failures.

use tsn_dse::{parse_batch, run_batch, DseEngine};

fn run_batch_mode(input: Option<&str>, workers: usize) {
    let text = match input {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("dse: cannot read {path}: {e}");
                std::process::exit(2);
            }
        },
        None => {
            use std::io::Read as _;
            let mut buf = String::new();
            if let Err(e) = std::io::stdin().read_to_string(&mut buf) {
                eprintln!("dse: cannot read stdin: {e}");
                std::process::exit(2);
            }
            buf
        }
    };
    let queries = match parse_batch(&text) {
        Ok(q) => q,
        Err(e) => {
            eprintln!("dse: bad request: {e}");
            std::process::exit(2);
        }
    };
    let engine = DseEngine::new();
    let response = run_batch(&engine, &queries, workers);
    // Infeasible queries are an answered result, not a process failure;
    // only a malformed request exits non-zero.
    print!("{}", response.pretty());
}

fn main() {
    let mut workers = 4usize;
    let mut input: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workers" => {
                workers = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&w| w >= 1)
                    .unwrap_or_else(|| {
                        eprintln!("dse: --workers needs a positive integer");
                        std::process::exit(2);
                    });
            }
            "--help" | "-h" => {
                println!(
                    "usage: dse [REQUEST.json] [--workers N]   answer a JSON batch \
                     (stdin when no file)"
                );
                return;
            }
            other if other.starts_with('-') => {
                eprintln!("dse: unknown flag {other} (see --help)");
                std::process::exit(2);
            }
            other => input = Some(other.to_owned()),
        }
    }
    run_batch_mode(input.as_deref(), workers);
}

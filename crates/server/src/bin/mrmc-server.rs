//! The daemon binary.
//!
//! ```text
//! mrmc-server [--addr 127.0.0.1:0] [--workers N]
//!             [--max-queue-depth D] [--max-queued-bytes B]
//!             [--max-session-bytes Q]
//! ```
//!
//! Prints `mrmc-server listening on <addr>` once bound (scripts parse
//! this line to learn the ephemeral port), serves until a client
//! sends `Shutdown`, drains, and exits 0.

use std::process::ExitCode;
use std::sync::Arc;

use mrmc_obs::Tracer;
use mrmc_server::{AdmissionLimits, Server, ServerConfig};

fn usage() -> ! {
    eprintln!(
        "usage: mrmc-server [--addr A] [--workers N] [--max-queue-depth D] \
         [--max-queued-bytes B] [--max-session-bytes Q]"
    );
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(args: &mut std::env::Args, flag: &str) -> T {
    let Some(v) = args.next() else { usage() };
    v.parse().unwrap_or_else(|_| {
        eprintln!("mrmc-server: bad value for {flag}: {v}");
        std::process::exit(2);
    })
}

fn main() -> ExitCode {
    let mut config = ServerConfig::default();
    let mut limits = AdmissionLimits::default();
    let mut args = std::env::args();
    args.next();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => config.addr = parse(&mut args, "--addr"),
            "--workers" => config.workers = parse(&mut args, "--workers"),
            "--max-queue-depth" => limits.max_queue_depth = parse(&mut args, "--max-queue-depth"),
            "--max-queued-bytes" => {
                limits.max_queued_bytes = parse(&mut args, "--max-queued-bytes")
            }
            "--max-session-bytes" => {
                limits.max_session_bytes = parse(&mut args, "--max-session-bytes")
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("mrmc-server: unknown flag {other}");
                usage();
            }
        }
    }
    config.limits = limits;
    let tracer = Arc::new(Tracer::new());
    let server = match Server::bind(&config, tracer) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("mrmc-server: bind {}: {e}", config.addr);
            return ExitCode::FAILURE;
        }
    };
    println!("mrmc-server listening on {}", server.local_addr());
    server.run();
    println!("mrmc-server drained, exiting");
    ExitCode::SUCCESS
}

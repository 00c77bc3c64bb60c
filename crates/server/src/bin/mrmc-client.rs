//! The thin client binary.
//!
//! ```text
//! mrmc-client --addr HOST:PORT [--tenant T] <command>
//!   seed   --fasta F [--kmer K] [--num-hashes N] [--theta X] [--seed S]
//!          [--greedy | --hierarchical]
//!   submit --fasta F
//!   query  --id ID
//!   stats  [--server] [--dashboard] [--width W]
//!   shutdown
//! ```
//!
//! `seed` clusters greedily unless `--hierarchical` asks for average
//! linkage. An unknown flag, or a flag whose value does not parse, is
//! refused (exit 2) before the client connects.
//!
//! `stats` alone prints the tenant session's counters; `--server`
//! pulls the daemon-wide metrics snapshot (all tenants) and renders it
//! as text, `--dashboard` renders the same snapshot as an ASCII
//! dashboard with bucket bars.

use std::process::ExitCode;

use mrmc_seqio::read_fasta_path;
use mrmc_server::{Client, SeedConfig, SubmitOutcome};

fn usage() -> ! {
    eprintln!(
        "usage: mrmc-client --addr HOST:PORT [--tenant T] <command>\n\
         commands:\n\
         \x20 seed   --fasta F [--kmer K] [--num-hashes N] [--theta X] [--seed S]\n\
         \x20        [--greedy | --hierarchical]\n\
         \x20 submit --fasta F\n\
         \x20 query  --id ID\n\
         \x20 stats  [--server] [--dashboard] [--width W]\n\
         \x20 shutdown"
    );
    std::process::exit(2);
}

fn need(v: Option<String>, flag: &str) -> String {
    v.unwrap_or_else(|| {
        eprintln!("mrmc-client: missing {flag}");
        usage();
    })
}

/// The value of `flag`, parsed; exits 2 naming the flag when it is
/// missing or does not parse.
fn parse<T: std::str::FromStr>(v: Option<String>, flag: &str) -> T {
    let v = need(v, flag);
    v.parse().unwrap_or_else(|_| {
        eprintln!("mrmc-client: bad value for {flag}: {v}");
        std::process::exit(2);
    })
}

fn main() -> ExitCode {
    let mut addr: Option<String> = None;
    let mut tenant = "default".to_string();
    let mut command: Option<String> = None;
    let mut fasta: Option<String> = None;
    let mut id: Option<String> = None;
    let mut server_wide = false;
    let mut dashboard = false;
    let mut width: usize = 80;
    let mut config = SeedConfig {
        kmer: 5,
        num_hashes: 64,
        theta: 0.9,
        greedy: true,
        seed: 7,
    };

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = args.next(),
            "--tenant" => tenant = need(args.next(), "--tenant"),
            "--fasta" => fasta = args.next(),
            "--id" => id = args.next(),
            "--kmer" => config.kmer = parse(args.next(), "--kmer"),
            "--num-hashes" => config.num_hashes = parse(args.next(), "--num-hashes"),
            "--theta" => config.theta = parse(args.next(), "--theta"),
            "--seed" => config.seed = parse(args.next(), "--seed"),
            "--server" => server_wide = true,
            "--dashboard" => dashboard = true,
            "--width" => width = parse(args.next(), "--width"),
            "--greedy" => config.greedy = true,
            "--hierarchical" => config.greedy = false,
            "--help" | "-h" => usage(),
            cmd if command.is_none() && !cmd.starts_with('-') => command = Some(cmd.to_string()),
            other => {
                eprintln!("mrmc-client: unknown flag {other}");
                usage();
            }
        }
    }

    let addr = need(addr, "--addr");
    let command = need(command, "a command");

    let mut client = match Client::connect(&addr, &tenant) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("mrmc-client: connect {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let load = |fasta: Option<String>| {
        let path = need(fasta, "--fasta");
        read_fasta_path(&path).unwrap_or_else(|e| {
            eprintln!("mrmc-client: reading {path}: {e}");
            std::process::exit(1);
        })
    };

    let outcome = match command.as_str() {
        "seed" => {
            let reads = load(fasta);
            client.seed_from_batch(&config, &reads).map(|clusters| {
                println!("seeded {} reads into {clusters} clusters", reads.len());
            })
        }
        "submit" => {
            let reads = load(fasta);
            client.submit(&reads).map(|outcome| match outcome {
                SubmitOutcome::Labels(labels) => {
                    for (read, label) in reads.iter().zip(&labels) {
                        println!("{}\t{label}", read.id);
                    }
                }
                SubmitOutcome::Busy { queue_depth, limit } => {
                    println!("busy: queue depth {queue_depth}/{limit}, retry later");
                }
                SubmitOutcome::QuotaExceeded { would_use, quota } => {
                    println!("quota exceeded: {would_use} bytes > quota {quota}");
                }
            })
        }
        "query" => {
            let id = need(id, "--id");
            client.query(&id).map(|label| match label {
                Some(l) => println!("{id}\t{l}"),
                None => println!("{id}\t(unknown)"),
            })
        }
        "stats" if server_wide || dashboard => client.server_stats().map(|snap| {
            if dashboard {
                print!("{}", mrmc_obs::render_dashboard(&snap, width));
            } else {
                print!("{}", snap.render_text());
            }
        }),
        "stats" => client.stats().map(|s| {
            println!(
                "tenant={} clusters={} (seeded {}) admitted={} reads / {} batches / {} bytes \
                 rejected={} reads (busy {}, quota {}) queue={}/{} max-depth={}",
                s.tenant,
                s.clusters,
                s.seeded_clusters,
                s.reads_admitted,
                s.batches_admitted,
                s.bytes_admitted,
                s.reads_rejected,
                s.busy_rejections,
                s.quota_rejections,
                s.queue_depth,
                s.queued_bytes,
                s.max_queue_depth
            );
        }),
        "shutdown" => client.shutdown().map(|drained| {
            println!("daemon drained ({drained} queued batches) and exited");
        }),
        other => {
            eprintln!("mrmc-client: unknown command {other}");
            usage();
        }
    };

    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("mrmc-client: {command}: {e}");
            ExitCode::FAILURE
        }
    }
}

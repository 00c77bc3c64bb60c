//! Scale probe of hierarchical clustering (seed 42): the banded route
//! (`MrMcConfig::sixteen_s().banded().hierarchical()`) on the Huse 3 %
//! benchmark at 8k, 32k, 128k and its full 345k reads and on the FS396
//! environmental sample at its full 73 657 reads, and the dense route
//! (`MrMcConfig::sixteen_s().hierarchical()`, all pairs of FS396's
//! 9 068 distinct reads) on FS396. Every run links with the preset's
//! average linkage except the two `-single` rows, which repeat 128k
//! banded and FS396 dense under single linkage. One row per run: reads,
//! distinct sequences, wall time of `MrMcMinH::run`, the `VmHWM` of the
//! process that ran it (input generation included) and the cluster
//! count. Each row runs in its own child process (`--row NAME`), one at
//! a time, so each peak is its own run's; the parent collects the rows
//! and applies the pins.
//!
//! ```sh
//! cargo run --release --example scale_probe                        # every run
//! cargo run --release --example scale_probe -- --max-reads 128000  # skip 345k
//! cargo run --release --example scale_probe -- --row FS396-dense   # one row
//! ```
//!
//! Exits non-zero when a cluster count differs from its pin, or when a
//! run of at most 128k reads peaks above 150 MB. Wall time is only
//! reported.

use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use mrmc::stages::dereplicate;
use mrmc::{CandidateGen, MrMcConfig, MrMcMinH};
use mrmc_minh_suite::cluster::Linkage;
use mrmc_minh_suite::seqio::SeqRecord;
use mrmc_minh_suite::simulate::{environmental_samples, huse_16s};

const SEED: u64 = 42;
const HUSE_READS: usize = 345_000;
/// `VmHWM` budget of every run of at most `BUDGETED_READS` reads.
const RSS_BUDGET_MB: f64 = 150.0;
const BUDGETED_READS: usize = 128_000;

/// One run: the input, its read count, the route, the linkage and its
/// pinned cluster count.
struct Probe {
    name: &'static str,
    source: Source,
    reads: usize,
    candidates: CandidateGen,
    linkage: Linkage,
    clusters: usize,
}

enum Source {
    /// `huse_16s` at 3 % error, scaled to `Probe::reads`.
    Huse,
    /// The FS396 environmental sample at full size.
    Fs396,
}

const PROBES: [Probe; 8] = [
    Probe {
        name: "huse-8k",
        source: Source::Huse,
        reads: 8_000,
        candidates: CandidateGen::Banded,
        linkage: Linkage::Average,
        clusters: 3_686,
    },
    Probe {
        name: "huse-32k",
        source: Source::Huse,
        reads: 32_000,
        candidates: CandidateGen::Banded,
        linkage: Linkage::Average,
        clusters: 13_299,
    },
    Probe {
        name: "FS396",
        source: Source::Fs396,
        reads: 73_657,
        candidates: CandidateGen::Banded,
        linkage: Linkage::Average,
        clusters: 8_777,
    },
    Probe {
        name: "FS396-dense",
        source: Source::Fs396,
        reads: 73_657,
        candidates: CandidateGen::Dense,
        linkage: Linkage::Average,
        clusters: 8_770,
    },
    Probe {
        name: "FS396-dense-single",
        source: Source::Fs396,
        reads: 73_657,
        candidates: CandidateGen::Dense,
        linkage: Linkage::Single,
        clusters: 8_749,
    },
    Probe {
        name: "huse-128k",
        source: Source::Huse,
        reads: 128_000,
        candidates: CandidateGen::Banded,
        linkage: Linkage::Average,
        clusters: 41_390,
    },
    Probe {
        name: "huse-128k-single",
        source: Source::Huse,
        reads: 128_000,
        candidates: CandidateGen::Banded,
        linkage: Linkage::Single,
        clusters: 40_963,
    },
    Probe {
        name: "huse-345k",
        source: Source::Huse,
        reads: HUSE_READS,
        candidates: CandidateGen::Banded,
        linkage: Linkage::Average,
        clusters: 86_926,
    },
];

fn input(probe: &Probe) -> Vec<SeqRecord> {
    match probe.source {
        Source::Huse => huse_16s(0.03, probe.reads as f64 / HUSE_READS as f64, SEED).reads,
        Source::Fs396 => {
            environmental_samples()
                .into_iter()
                .find(|s| s.sid == "FS396")
                .expect("the registry lists FS396")
                .generate(1.0, SEED)
                .reads
        }
    }
}

/// `VmHWM` of this process in MB.
fn vm_hwm_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Run one probe in this process and print its row.
fn run_row(probe: &Probe) {
    let reads = input(probe);
    assert_eq!(reads.len(), probe.reads, "{}", probe.name);
    let distinct = dereplicate(&reads).expect("ids fit").num_groups();
    let config = MrMcConfig {
        candidates: probe.candidates,
        linkage: probe.linkage,
        ..MrMcConfig::sixteen_s().hierarchical()
    };
    let start = Instant::now();
    let run = MrMcMinH::new(config).run(&reads).expect("hierarchical run");
    let wall = start.elapsed().as_secs_f64();
    println!(
        "{:<18} {:>8} {:>9} {:>8.3} {:>10.1} {:>9}",
        probe.name,
        reads.len(),
        distinct,
        wall,
        vm_hwm_mb(),
        run.num_clusters()
    );
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut max_reads = usize::MAX;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--max-reads" => {
                max_reads = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--max-reads takes a read count");
            }
            "--row" => {
                let name = args.next().expect("--row takes a probe name");
                let probe = PROBES
                    .iter()
                    .find(|p| p.name == name)
                    .unwrap_or_else(|| panic!("no probe named {name:?}"));
                run_row(probe);
                return ExitCode::SUCCESS;
            }
            other => panic!(
                "unknown argument {other:?}; usage: scale_probe [--max-reads N | --row NAME]"
            ),
        }
    }

    let exe = std::env::current_exe().expect("path of this binary");
    let mut failed = false;
    println!(
        "{:<18} {:>8} {:>9} {:>8} {:>10} {:>9}",
        "input", "reads", "distinct", "wall_s", "vmhwm_mb", "clusters"
    );
    for probe in PROBES.iter().filter(|p| p.reads <= max_reads) {
        let child = Command::new(&exe)
            .args(["--row", probe.name])
            .stderr(Stdio::inherit())
            .output()
            .expect("start a probe row");
        if !child.status.success() {
            eprintln!("{}: row exited with {}", probe.name, child.status);
            failed = true;
            continue;
        }
        let row = String::from_utf8(child.stdout).expect("utf-8 row");
        print!("{row}");
        let fields: Vec<&str> = row.split_whitespace().collect();
        let hwm: f64 = fields[4].parse().expect("vmhwm_mb column");
        let clusters: usize = fields[5].parse().expect("clusters column");
        if clusters != probe.clusters {
            eprintln!(
                "{}: {clusters} clusters, pinned {}",
                probe.name, probe.clusters
            );
            failed = true;
        }
        if probe.reads <= BUDGETED_READS && hwm > RSS_BUDGET_MB {
            eprintln!("{}: VmHWM {hwm:.1} MB over {RSS_BUDGET_MB} MB", probe.name);
            failed = true;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

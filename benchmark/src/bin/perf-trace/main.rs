//! `perf-trace`: the traced benchmark. Drives each workload layer by layer
//! through the crates' public functions under in-memory spans and a counting
//! allocator, prints every per-layer metric, writes a Chrome trace to
//! `benchmark/out/`, and gates on the counts that must repeat exactly.

mod alloc;
mod staged;
mod trace;

use std::process::ExitCode;

use mrmc_benchmark::cli::Args;
use mrmc_benchmark::measure::{repeat, set_up, Tally};
use mrmc_benchmark::report::{Report, PER_LAYER};
use mrmc_benchmark::route;
use mrmc_benchmark::stats::fast_quartile;
use mrmc_benchmark::suite::{self, Line};
use mrmc_benchmark::workload::Workload;

use crate::staged::Layers;
use crate::trace::Tracer;

#[global_allocator]
static ALLOCATOR: alloc::CountingAllocator = alloc::CountingAllocator;

/// Share of a traced rep that must lie inside named layer spans.
const MIN_COVERAGE: f64 = 0.95;

/// One traced rep.
struct TracedRep {
    e2e_s: f64,
    layers: Layers,
    tracer: Tracer,
}

fn main() -> ExitCode {
    let args = Args::parse(1);
    match args.workload {
        Some(workload) => run_workload(workload, &args),
        None => suite::run(&args, counts_agree),
    }
}

fn run_workload(workload: Workload, args: &Args) -> ExitCode {
    let (input, _) = set_up(workload, args);
    let mut tally = Tally::default();
    let mut untraced = Vec::new();
    let mut traced: Vec<TracedRep> = Vec::new();
    repeat(args, || {
        // An untraced rep first: the tracing overhead is measured against
        // it, and the tally requires the staged labels to equal its labels.
        let mut plain = route::run(&input);
        tally.record(&input, &mut plain);
        untraced.push(plain.e2e_s);

        let mut tracer = Tracer::new();
        let (mut output, layers) = staged::traced_rep(&input, &mut tracer);
        tally.record(&input, &mut output);
        traced.push(TracedRep {
            e2e_s: output.e2e_s,
            layers,
            tracer,
        });
    });

    let mut ok = tally.failed == 0;
    for metric in PER_LAYER.iter().filter(|m| m.exact) {
        let values: Vec<f64> = traced.iter().map(|r| r.layers.get(metric.name)).collect();
        if values.windows(2).any(|w| w[0] != w[1]) {
            eprintln!(
                "{}: {} differs between reps: {values:?}",
                workload.name(),
                metric.name
            );
            ok = false;
        }
    }

    // The layer times of one rep add up to that rep, so the table is the
    // fastest traced rep's, not a statistic taken metric by metric.
    let traced_s: Vec<f64> = traced.iter().map(|r| r.e2e_s).collect();
    let (rep, fastest) = traced
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.e2e_s.total_cmp(&b.1.e2e_s))
        .expect("at least one rep");
    let covered = fastest.tracer.coverage();
    let mut report = Report::new(workload);
    for metric in PER_LAYER {
        let value = match metric.name {
            "trace.coverage" => covered,
            "trace.overhead_pct" => {
                let plain = fast_quartile(&untraced);
                (fast_quartile(&traced_s) - plain) / plain * 100.0
            }
            name => fastest.layers.get(name),
        };
        report.push(metric.name, value, metric.unit);
    }
    // For reading `trace.overhead_pct`; the allocator's own cost is the gap
    // between this untraced rep and `perf`'s `e2e_s`.
    report.push("untraced_e2e_s", fast_quartile(&untraced), "s");
    report.push("traced_e2e_s", fast_quartile(&traced_s), "s");
    report.push("traced_reps", traced.len() as f64, "count");
    report.print();
    tally.print_digest(workload);

    if covered < MIN_COVERAGE {
        eprintln!(
            "{}: trace.coverage {covered:.4} is below {MIN_COVERAGE}",
            workload.name()
        );
        ok = false;
    }

    let path = format!("benchmark/out/trace_{}.json", workload.name());
    let written = std::fs::create_dir_all("benchmark/out").and_then(|()| {
        fastest
            .tracer
            .write_chrome(std::path::Path::new(&path), workload.name(), rep)
    });
    match written {
        Ok(()) => eprintln!("{}: wrote {path}", workload.name()),
        Err(e) => eprintln!("{}: could not write {path}: {e}", workload.name()),
    }

    println!(
        "{}",
        report.result_line(
            PER_LAYER.iter().map(|m| (m.name, m.unit)),
            tally.attempted,
            tally.failed,
            ok,
        )
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--selfcheck`: two invocations with the same seed must print the same
/// label digest and the same value for every exact-gated count (those of
/// layers a workload bypasses, 0 in both, are not listed).
fn counts_agree(first: &[Line], second: &[Line]) -> bool {
    let gated = |line: &&Line| {
        line.metric == "label_digest" || PER_LAYER.iter().any(|m| m.exact && m.name == line.metric)
    };
    let (a, b): (Vec<&Line>, Vec<&Line>) = (
        first.iter().filter(gated).collect(),
        second.iter().filter(gated).collect(),
    );
    let mut ok = a.len() == b.len();
    for (x, y) in a.iter().zip(&b) {
        let same = x == y;
        ok &= same;
        if same && x.value == "0" {
            continue;
        }
        println!(
            "{} {} {} {} {}",
            x.workload,
            x.metric,
            x.value,
            y.value,
            if same { "same" } else { "DIFFERS" }
        );
    }
    ok
}

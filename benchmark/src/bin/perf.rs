//! `perf`: the timed benchmark. Tracing off, no counting allocator; prints
//! every end-to-end metric as `workload metric value unit`, checks the
//! outputs, and ends with the one-line JSON result the driver reads.

use std::process::ExitCode;

use mrmc_benchmark::cli::Args;
use mrmc_benchmark::measure::{repeat, set_up, Tally};
use mrmc_benchmark::report::{Report, END_TO_END};
use mrmc_benchmark::route;
use mrmc_benchmark::stats::{self, fast_quartile, median, percentile, reset_peak_rss};
use mrmc_benchmark::suite::{self, Line};
use mrmc_benchmark::workload::Workload;

fn main() -> ExitCode {
    let args = Args::parse(0);
    match args.workload {
        Some(workload) => run_workload(workload, &args),
        None => suite::run(&args, within_bounds),
    }
}

/// One value per rep of everything timed.
#[derive(Default)]
struct Reps {
    e2e_s: Vec<f64>,
    stream_s: Vec<f64>,
    submit_p50_s: Vec<f64>,
    submit_p95_s: Vec<f64>,
    query_p50_s: Vec<f64>,
    query_p95_s: Vec<f64>,
}

fn run_workload(workload: Workload, args: &Args) -> ExitCode {
    let (input, setup_s) = set_up(workload, args);
    let mut tally = Tally::default();
    let mut reps = Reps::default();
    let (mut submits, mut queries) = (0, 0);
    let mut w_acc = 0.0;
    let mut peak_rss_mb = Vec::new();
    repeat(args, || {
        reset_peak_rss();
        let mut output = route::run(&input);
        peak_rss_mb.push(stats::peak_rss_mb().unwrap_or(0.0));
        tally.record(&input, &mut output);
        reps.e2e_s.push(output.e2e_s);
        w_acc = output
            .accuracy
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        if let Some(serve) = output.serve {
            reps.stream_s.push(serve.stream_s);
            reps.submit_p50_s
                .push(percentile(&serve.submit_latencies, 50.0));
            reps.submit_p95_s
                .push(percentile(&serve.submit_latencies, 95.0));
            reps.query_p50_s
                .push(percentile(&serve.query_latencies, 50.0));
            reps.query_p95_s
                .push(percentile(&serve.query_latencies, 95.0));
            (submits, queries) = (serve.submit_latencies.len(), serve.query_latencies.len());
        }
    });
    eprintln!("{}: rep seconds {:.3?}", workload.name(), reps.e2e_s);
    eprintln!("{}: rep peak MB {:.1?}", workload.name(), peak_rss_mb);

    let mut report = Report::new(workload);
    let e2e_s = fast_quartile(&reps.e2e_s);
    // Labelling rate: a batch route labels every read in `e2e_s`; the
    // daemon labels the streamed reads during the stream phase alone.
    let labelling_s = if reps.stream_s.is_empty() {
        e2e_s
    } else {
        fast_quartile(&reps.stream_s)
    };
    report.push("e2e_s", e2e_s, "s");
    report.push(
        "reads_per_s",
        input.labelled_reads().len() as f64 / labelling_s,
        "1/s",
    );
    // The first rep's peak: what one run needs in a process that has not run
    // it before. From the second rep on a process settles in one of two
    // levels (190 or 220 MB on `amplicon_banded_greedy`) for the rest of its
    // life, so later reps say more about the allocator than about the run.
    report.push("peak_rss_mb", peak_rss_mb[0], "MB");
    report.push("setup_s", setup_s, "s");
    report.push("reps", reps.e2e_s.len() as f64, "count");
    report.push("e2e_median_s", median(&reps.e2e_s), "s");
    report.push("w_acc", w_acc, "%");
    report.push(
        "failed_share",
        tally.failed as f64 / tally.attempted as f64,
        "ratio",
    );
    if !reps.stream_s.is_empty() {
        report.push("submit_n", submits as f64, "count");
        report.push(
            "submit_p50_ms",
            fast_quartile(&reps.submit_p50_s) * 1e3,
            "ms",
        );
        report.push(
            "submit_p95_ms",
            fast_quartile(&reps.submit_p95_s) * 1e3,
            "ms",
        );
        report.push("query_n", queries as f64, "count");
        report.push("query_p50_us", fast_quartile(&reps.query_p50_s) * 1e6, "us");
        report.push("query_p95_us", fast_quartile(&reps.query_p95_s) * 1e6, "us");
    }
    report.print();
    tally.print_digest(workload);

    let correct = tally.failed == 0;
    println!(
        "{}",
        report.result_line(
            END_TO_END
                .iter()
                .filter(|m| m.every_workload)
                .map(|m| (m.name, m.unit)),
            tally.attempted,
            tally.failed,
            correct,
        )
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--selfcheck`: print both passes' end-to-end values with their relative
/// difference and the bound; the passes agree when no difference exceeds its
/// bound.
fn within_bounds(first: &[Line], second: &[Line]) -> bool {
    let mut ok = true;
    println!("# workload metric first second difference bound");
    for a in first {
        let Some(metric) = END_TO_END.iter().find(|m| m.name == a.metric) else {
            continue;
        };
        let b = second
            .iter()
            .find(|b| b.workload == a.workload && b.metric == a.metric);
        let values =
            b.and_then(|b| Some((a.value.parse::<f64>().ok()?, b.value.parse::<f64>().ok()?)));
        let Some((x, y)) = values else {
            println!("{} {} missing from one pass", a.workload, a.metric);
            ok = false;
            continue;
        };
        let difference = (y - x).abs() / x;
        let verdict = if difference > metric.bound {
            ok = false;
            "EXCEEDED"
        } else {
            "ok"
        };
        println!(
            "{} {} {x} {y} {difference:.4} {} {verdict}",
            a.workload, a.metric, metric.bound
        );
    }
    ok
}

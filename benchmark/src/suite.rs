//! Suite mode: with no `--workload` a binary re-executes itself once per
//! workload, so `peak_rss_mb` is each workload's own, and `--selfcheck` runs
//! every workload twice and compares the two passes.

use std::io::{BufRead, BufReader};
use std::process::{Command, ExitCode, Stdio};

use crate::cli::Args;
use crate::workload::Workload;

/// One `workload metric value unit` line a child printed.
#[derive(Debug, Clone, PartialEq)]
pub struct Line {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// The value as printed (a number, or a digest).
    pub value: String,
    /// Unit.
    pub unit: String,
}

impl Line {
    fn parse(text: &str) -> Option<Line> {
        let mut tokens = text.split_whitespace();
        let line = Line {
            workload: tokens.next()?.to_string(),
            metric: tokens.next()?.to_string(),
            value: tokens.next()?.to_string(),
            unit: tokens.next()?.to_string(),
        };
        let known = Workload::from_name(&line.workload).is_some();
        (known && tokens.next().is_none()).then_some(line)
    }
}

/// Run `workload` in a child process, echoing its output. Returns its metric
/// lines, or `None` when the child failed.
fn run_child(args: &Args, workload: Workload) -> Option<Vec<Line>> {
    let exe = std::env::current_exe().expect("own executable path");
    let mut child = Command::new(exe)
        .args(args.child_flags(workload))
        .stdout(Stdio::piped())
        .spawn()
        .expect("re-executing the benchmark binary");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = Vec::new();
    for text in BufReader::new(stdout).lines() {
        let text = text.expect("child output is UTF-8");
        println!("{text}");
        lines.extend(Line::parse(&text));
    }
    let status = child.wait().expect("waiting for the child");
    if !status.success() {
        eprintln!("{}: FAILED ({status})", workload.name());
        return None;
    }
    Some(lines)
}

/// Suite entry point: every workload once, or with `--selfcheck` twice, the
/// two passes handed to `agree`, which prints its comparison and says whether
/// they agree. The two runs of a workload are back to back, so that both see
/// the same machine: the speed of a shared box drifts by more than the
/// bounds over the minutes a whole pass takes.
pub fn run(args: &Args, agree: impl FnOnce(&[Line], &[Line]) -> bool) -> ExitCode {
    let mut passes = vec![Vec::new(); if args.selfcheck { 2 } else { 1 }];
    let mut ok = true;
    for workload in Workload::ALL {
        for (pass, lines) in passes.iter_mut().enumerate() {
            if args.selfcheck {
                println!("# {} pass {}", workload.name(), pass + 1);
            }
            match run_child(args, workload) {
                Some(child) => lines.extend(child),
                None => ok = false,
            }
        }
    }
    if let [first, second] = &passes[..] {
        println!("\n# selfcheck: first pass vs second pass");
        ok &= agree(first, second);
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

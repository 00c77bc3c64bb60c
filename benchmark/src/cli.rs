//! Command line shared by `perf` and `perf-trace`.
//!
//! `--workload`, `--seed`, `--reps`, `--quick` and `--selfcheck` are the
//! benchmark's own flags; `--seconds` and `--trace` are the two the driver
//! contract adds (`run.sh` picks the binary from `--trace`, each binary only
//! checks it was handed the right one).

use crate::workload::Workload;

/// Default measuring window; `BENCHMARK.json` passes its `run_seconds`.
const DEFAULT_SECONDS: f64 = 15.0;

/// Parsed flags.
#[derive(Debug, Clone)]
pub struct Args {
    /// One workload, or the whole suite when absent.
    pub workload: Option<Workload>,
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Fewest timed reps per workload, however long they take.
    pub reps: usize,
    /// Measuring window: reps repeat until it has elapsed.
    pub seconds: f64,
    /// 1/10 sizes (CI smoke run).
    pub quick: bool,
    /// Run every workload twice and compare the two passes.
    pub selfcheck: bool,
}

impl Args {
    /// Parse `std::env::args`; `trace` is the `--trace` value this binary
    /// serves. Exits with code 2 and a message on a malformed command line.
    pub fn parse(trace: u8) -> Args {
        Args::parse_from(std::env::args().skip(1), trace).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            eprintln!(
                "usage: [--workload <name>] [--seed <n>] [--reps <n>] [--seconds <s>] \
                 [--quick] [--selfcheck] [--trace <0|1>]"
            );
            std::process::exit(2);
        })
    }

    fn parse_from(mut it: impl Iterator<Item = String>, trace: u8) -> Result<Args, String> {
        let mut args = Args {
            workload: None,
            seed: 42,
            reps: 3,
            seconds: DEFAULT_SECONDS,
            quick: false,
            selfcheck: false,
        };
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let name = value()?;
                    args.workload = Some(Workload::from_name(&name).ok_or_else(|| {
                        let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                        format!("unknown workload {name:?}; known: {}", known.join(", "))
                    })?);
                }
                "--seed" => args.seed = number(&flag, &value()?)?,
                "--reps" => args.reps = number(&flag, &value()?)?,
                "--seconds" => args.seconds = number(&flag, &value()?)?,
                "--trace" => {
                    let got: u8 = number(&flag, &value()?)?;
                    if got != trace {
                        return Err(format!(
                            "--trace {got} is served by the other binary (perf: 0, perf-trace: 1); \
                             benchmark/run.sh dispatches on it"
                        ));
                    }
                }
                "--quick" => args.quick = true,
                "--selfcheck" => args.selfcheck = true,
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        if args.reps == 0 {
            return Err("--reps must be at least 1".to_string());
        }
        if args.seconds.is_nan() || args.seconds < 0.0 {
            return Err("--seconds must be a non-negative number".to_string());
        }
        Ok(args)
    }

    /// Size multiplier of the timed inputs.
    pub fn scale(&self) -> f64 {
        if self.quick {
            0.1
        } else {
            1.0
        }
    }

    /// The flags a per-workload child process is re-executed with.
    pub fn child_flags(&self, workload: Workload) -> Vec<String> {
        let mut flags = vec![
            "--workload".to_string(),
            workload.name().to_string(),
            "--seed".to_string(),
            self.seed.to_string(),
            "--reps".to_string(),
            self.reps.to_string(),
            "--seconds".to_string(),
            self.seconds.to_string(),
        ];
        if self.quick {
            flags.push("--quick".to_string());
        }
        flags
    }
}

fn number<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{flag}: {text:?} is not a valid number"))
}

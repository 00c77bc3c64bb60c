//! What both binaries do around the reps: repeated set-up, the measuring
//! window, and the tally of attempted and failed operations.

use std::hint::black_box;
use std::time::Instant;

use crate::check::{label_digest, verify};
use crate::cli::Args;
use crate::route::{self, Output};
use crate::stats::fast_quartile;
use crate::workload::{generate, Input, Workload};

/// Set-ups per run; `setup_s` is their fast quartile.
const SETUPS: usize = 5;

/// Set up `workload` [`SETUPS`] times — generate the inputs (with the serve
/// oracle) from the seed, then run one untimed rep at a tenth of the size to
/// warm the code and the allocator — and return the inputs with the
/// fast-quartile set-up seconds.
pub fn set_up(workload: Workload, args: &Args) -> (Input, f64) {
    let mut seconds = Vec::with_capacity(SETUPS);
    let mut input = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let timed = generate(workload, args.seed, args.scale());
        let warm_up = generate(workload, args.seed, args.scale() / 10.0);
        black_box(route::run(&warm_up));
        seconds.push(start.elapsed().as_secs_f64());
        input = Some(timed);
    }
    (input.expect("SETUPS > 0"), fast_quartile(&seconds))
}

/// Call `rep` until `--seconds` have elapsed and `--reps` reps are done.
pub fn repeat(args: &Args, mut rep: impl FnMut()) {
    let start = Instant::now();
    let mut done = 0;
    while done < args.reps || start.elapsed().as_secs_f64() < args.seconds {
        rep();
        done += 1;
    }
}

/// Attempted and failed operations over the reps of one workload. A batch
/// rep is one operation; a serve rep is one per request.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed a check, errored or were refused.
    pub failed: u64,
    digest: Option<u64>,
}

impl Tally {
    /// Check `output`, count its operations and require its labels to equal
    /// those of the reps before it. Failures are described on stderr.
    pub fn record(&mut self, input: &Input, output: &mut Output) {
        verify(input, output);
        let digest = label_digest(output);
        if *self.digest.get_or_insert(digest) != digest {
            output
                .problems
                .push(|| format!("labels differ from the first rep's ({digest:#018x})"));
        }
        for problem in &output.problems.first {
            eprintln!("{}: FAILED CHECK: {problem}", input.workload.name());
        }
        match &output.serve {
            Some(serve) => {
                self.attempted += serve.requests;
                self.failed += output.problems.count.min(serve.requests);
            }
            None => {
                self.attempted += 1;
                self.failed += output.problems.count.min(1);
            }
        }
    }

    /// Print the first rep's label digest in the table's four-column shape.
    pub fn print_digest(&self, workload: Workload) {
        let digest = self.digest.unwrap_or(0);
        println!("{} label_digest {digest:#018x} hash", workload.name());
    }
}

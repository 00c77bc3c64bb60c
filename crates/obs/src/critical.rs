//! Critical-path analysis over the span dependency DAG.
//!
//! The makespan of a traced job is `horizon − origin`. The critical
//! path is the dependency chain that *explains* that makespan: start
//! from the latest-ending span and repeatedly hop to the
//! latest-ending dependency, accumulating each span's duration into
//! its [`Category`] bucket. When a span has
//! no recorded dependencies but does not start at the origin, we fall
//! back to the latest-ending span that finishes at or before its
//! start (cross-job chaining: stage N's first span waits on stage
//! N−1's last). Gaps that no span covers (scheduler idle between a
//! dep finishing and the dependent starting) are reported as
//! unattributed time, so `coverage()` honestly states how much of the
//! makespan the categorized spans explain.

use crate::trace::{Category, Span, SpanId, TraceLedger, CATEGORIES};

/// One hop on the critical path (stored root-first after analysis).
#[derive(Debug, Clone)]
pub struct PathStep {
    /// The span on the path.
    pub span: SpanId,
    /// Copied span name (so reports don't need the ledger).
    pub name: String,
    /// Copied category.
    pub category: Category,
    /// Copied duration.
    pub dur_ns: u64,
}

/// The longest dependency chain through a ledger, with per-category
/// attribution of the makespan.
#[derive(Debug, Clone)]
pub struct CriticalPath {
    /// Steps from the earliest span on the path to the latest.
    pub steps: Vec<PathStep>,
    /// Total ledger makespan (latest end − earliest start).
    pub makespan_ns: u64,
    /// Nanoseconds attributed to each category, indexed like
    /// [`CATEGORIES`].
    pub by_category: [u64; CATEGORIES.len()],
    /// Makespan time covered by no span on the path (idle gaps).
    pub unattributed_ns: u64,
}

impl CriticalPath {
    /// Attributed time for one category.
    pub fn category_ns(&self, cat: Category) -> u64 {
        let idx = CATEGORIES
            .iter()
            .position(|c| *c == cat)
            .expect("known category");
        self.by_category[idx]
    }

    /// Sum of all categorized time on the path.
    pub fn attributed_ns(&self) -> u64 {
        self.by_category.iter().sum()
    }

    /// Fraction of the makespan explained by categorized spans
    /// (1.0 for an empty ledger).
    pub fn coverage(&self) -> f64 {
        if self.makespan_ns == 0 {
            return 1.0;
        }
        self.attributed_ns() as f64 / self.makespan_ns as f64
    }

    /// Multi-line human-readable report.
    pub fn report(&self) -> String {
        let mut out = String::new();
        let ms = |ns: u64| ns as f64 / 1.0e6;
        out.push_str(&format!(
            "critical path: {} steps, makespan {:.3} ms, coverage {:.1}%\n",
            self.steps.len(),
            ms(self.makespan_ns),
            self.coverage() * 100.0
        ));
        for (i, cat) in CATEGORIES.iter().enumerate() {
            let ns = self.by_category[i];
            if ns == 0 {
                continue;
            }
            let pct = if self.makespan_ns == 0 {
                0.0
            } else {
                ns as f64 * 100.0 / self.makespan_ns as f64
            };
            out.push_str(&format!(
                "  {:>9}: {:>12.3} ms ({:>5.1}%)\n",
                cat.name(),
                ms(ns),
                pct
            ));
        }
        if self.unattributed_ns > 0 {
            let pct = self.unattributed_ns as f64 * 100.0 / self.makespan_ns.max(1) as f64;
            out.push_str(&format!(
                "  {:>9}: {:>12.3} ms ({:>5.1}%)\n",
                "idle",
                ms(self.unattributed_ns),
                pct
            ));
        }
        out
    }
}

/// Find the latest-ending span; `None` for an empty ledger.
fn latest_span(spans: &[Span]) -> Option<&Span> {
    spans.iter().max_by_key(|s| (s.end_ns(), s.id))
}

/// Among `spans`, the latest-ending one that finishes at or before
/// `cutoff_ns` and is not the span itself.
fn predecessor_by_time(spans: &[Span], cutoff_ns: u64, exclude: SpanId) -> Option<&Span> {
    spans
        .iter()
        .filter(|s| s.id != exclude && s.end_ns() <= cutoff_ns)
        .max_by_key(|s| (s.end_ns(), s.id))
}

/// Walk the span DAG backwards from the latest-ending span and return
/// the critical path with per-category attribution.
pub fn critical_path(ledger: &TraceLedger) -> CriticalPath {
    let spans = &ledger.spans;
    let mut by_category = [0u64; CATEGORIES.len()];
    let makespan_ns = ledger.makespan_ns();
    let origin = ledger.origin_ns();

    let mut steps_rev: Vec<PathStep> = Vec::new();
    let mut attributed: u64 = 0;
    let mut cursor = latest_span(spans);
    // Guard against dependency cycles (malformed ledgers): never
    // visit more spans than exist.
    let mut visited = 0usize;
    while let Some(span) = cursor {
        visited += 1;
        if visited > spans.len() {
            break;
        }
        let cat_idx = CATEGORIES
            .iter()
            .position(|c| *c == span.category)
            .expect("known category");
        by_category[cat_idx] += span.dur_ns;
        attributed += span.dur_ns;
        steps_rev.push(PathStep {
            span: span.id,
            name: span.name.clone(),
            category: span.category,
            dur_ns: span.dur_ns,
        });
        if span.start_ns <= origin {
            break;
        }
        // Prefer an explicit dependency edge: the latest-ending dep
        // is what actually gated this span's start.
        let dep = span
            .deps
            .iter()
            .filter_map(|id| spans.iter().find(|s| s.id == *id))
            .max_by_key(|s| (s.end_ns(), s.id));
        cursor = match dep {
            Some(d) => Some(d),
            // No recorded deps but not at the origin: time-order
            // fallback for cross-job chaining.
            None => predecessor_by_time(spans, span.start_ns, span.id),
        };
    }

    steps_rev.reverse();
    CriticalPath {
        steps: steps_rev,
        makespan_ns,
        by_category,
        unattributed_ns: makespan_ns.saturating_sub(attributed.min(makespan_ns)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Category, SpanDraft, Tracer};

    #[test]
    fn empty_ledger_full_coverage() {
        let cp = critical_path(&Tracer::new().ledger());
        assert!(cp.steps.is_empty());
        assert_eq!(cp.makespan_ns, 0);
        assert_eq!(cp.coverage(), 1.0);
    }

    #[test]
    fn chain_with_deps_fully_attributed() {
        let t = Tracer::new();
        let j = t.begin_job("j");
        let setup = t.add_span(SpanDraft::new(j, "setup", Category::Overhead).at(0, 10));
        // Two parallel maps; the longer one gates the shuffle.
        let m0 = t.add_span(
            SpanDraft::new(j, "map", Category::Compute)
                .task_attempt(0, 0)
                .dep(setup)
                .at(10, 100),
        );
        let m1 = t.add_span(
            SpanDraft::new(j, "map", Category::Compute)
                .task_attempt(1, 0)
                .dep(setup)
                .at(10, 40),
        );
        let sh = t.add_span(
            SpanDraft::new(j, "shuffle", Category::Shuffle)
                .deps([m0, m1])
                .at(110, 20),
        );
        t.add_span(
            SpanDraft::new(j, "reduce", Category::Compute)
                .task_attempt(0, 0)
                .dep(sh)
                .at(130, 30),
        );
        let cp = critical_path(&t.ledger());
        assert_eq!(cp.makespan_ns, 160);
        // Path: setup → map0 (the longer map) → shuffle → reduce.
        let names: Vec<&str> = cp.steps.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["setup", "map", "shuffle", "reduce"]);
        assert_eq!(cp.attributed_ns(), 160);
        assert_eq!(cp.coverage(), 1.0);
        assert_eq!(cp.category_ns(Category::Overhead), 10);
        assert_eq!(cp.category_ns(Category::Compute), 130);
        assert_eq!(cp.category_ns(Category::Shuffle), 20);
        assert_eq!(cp.unattributed_ns, 0);
    }

    #[test]
    fn time_order_fallback_bridges_jobs() {
        let t = Tracer::new();
        let j0 = t.begin_job("stage0");
        t.add_span(SpanDraft::new(j0, "map", Category::Compute).at(0, 50));
        let j1 = t.begin_job("stage1");
        // No dep edge across jobs, but stage1 starts when stage0 ends.
        t.add_span(SpanDraft::new(j1, "map", Category::Compute).at(50, 50));
        let cp = critical_path(&t.ledger());
        assert_eq!(cp.steps.len(), 2);
        assert_eq!(cp.attributed_ns(), 100);
        assert_eq!(cp.coverage(), 1.0);
    }

    #[test]
    fn idle_gap_reported_as_unattributed() {
        let t = Tracer::new();
        let j = t.begin_job("j");
        let a = t.add_span(SpanDraft::new(j, "map", Category::Compute).at(0, 10));
        t.add_span(
            SpanDraft::new(j, "reduce", Category::Compute)
                .dep(a)
                .at(30, 10),
        );
        let cp = critical_path(&t.ledger());
        assert_eq!(cp.makespan_ns, 40);
        assert_eq!(cp.attributed_ns(), 20);
        assert_eq!(cp.unattributed_ns, 20);
        assert!((cp.coverage() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn recovery_retry_edge_on_path() {
        let t = Tracer::new();
        let j = t.begin_job("j");
        let a0 = t.add_span(
            SpanDraft::new(j, "map", Category::Compute)
                .task_attempt(0, 0)
                .at(0, 30)
                .meta("error", "panic"),
        );
        let a1 = t.add_span(
            SpanDraft::new(j, "map", Category::Recovery)
                .task_attempt(0, 1)
                .dep(a0)
                .at(30, 30),
        );
        t.add_span(
            SpanDraft::new(j, "shuffle", Category::Shuffle)
                .dep(a1)
                .at(60, 5),
        );
        let cp = critical_path(&t.ledger());
        assert_eq!(cp.category_ns(Category::Recovery), 30);
        assert_eq!(cp.coverage(), 1.0);
    }
}

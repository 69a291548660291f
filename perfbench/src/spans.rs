//! Self-time folding over a captured span forest.
//!
//! A span's *self time* is its duration minus the part of its interval that
//! its child spans cover. Children that ran concurrently on wave threads
//! overlap each other, so the covered part is the length of the *union* of
//! the children's intervals (clipped to the parent), never their sum.
//!
//! Only spans whose name is a *layer* get a self time. A span of any other
//! name (the trace-level `solver.wave` / `solver.node_lp` spans) is
//! transparent: its time stays in the nearest layer ancestor's self time,
//! and its own descendants count as children of that ancestor.

use std::collections::HashMap;

/// One finished span: name, causal parent, and its interval in ms.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    pub name: String,
    pub id: u64,
    /// Id of the causal parent; 0 is the implicit per-thread root.
    pub parent: u64,
    pub start_ms: f64,
    pub end_ms: f64,
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
pub fn union_len(mut intervals: Vec<(f64, f64)>, lo: f64, hi: f64) -> f64 {
    for iv in intervals.iter_mut() {
        iv.0 = iv.0.max(lo);
        iv.1 = iv.1.min(hi);
    }
    intervals.retain(|iv| iv.1 > iv.0);
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for (s, e) in intervals {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = current {
        total += ce - cs;
    }
    total
}

/// Total self time per layer name (ms), summed over every span of that
/// name. Layers with no span in `spans` are absent from the map.
pub fn self_time_by_layer(spans: &[SpanRecord], layers: &[&str]) -> HashMap<String, f64> {
    let by_id: HashMap<u64, &SpanRecord> = spans.iter().map(|s| (s.id, s)).collect();
    let is_layer = |s: &SpanRecord| layers.contains(&s.name.as_str());
    // Nearest layer ancestor of each span (walking through transparent
    // spans); a layer span's descendants then attach to it.
    let layer_ancestor = |s: &SpanRecord| -> Option<u64> {
        let mut p = s.parent;
        while let Some(ps) = by_id.get(&p) {
            if is_layer(ps) {
                return Some(ps.id);
            }
            p = ps.parent;
        }
        None
    };
    let mut children: HashMap<u64, Vec<(f64, f64)>> = HashMap::new();
    for s in spans.iter().filter(|s| is_layer(s)) {
        if let Some(a) = layer_ancestor(s) {
            children.entry(a).or_default().push((s.start_ms, s.end_ms));
        }
    }
    let mut out: HashMap<String, f64> = HashMap::new();
    for s in spans.iter().filter(|s| is_layer(s)) {
        let covered = children
            .remove(&s.id)
            .map_or(0.0, |c| union_len(c, s.start_ms, s.end_ms));
        let own = (s.end_ms - s.start_ms - covered).max(0.0);
        *out.entry(s.name.clone()).or_insert(0.0) += own;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, id: u64, parent: u64, start_ms: f64, end_ms: f64) -> SpanRecord {
        SpanRecord {
            name: name.to_string(),
            id,
            parent,
            start_ms,
            end_ms,
        }
    }

    fn close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-9, "{a} != {b}");
    }

    #[test]
    fn union_merges_overlaps_and_clips_to_parent() {
        close(
            union_len(vec![(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)], 0.0, 10.0),
            4.0,
        );
        // Nested and touching intervals count once.
        close(
            union_len(vec![(0.0, 4.0), (1.0, 2.0), (4.0, 5.0)], 0.0, 10.0),
            5.0,
        );
        // Rounding can push a child past its parent's end: clip it.
        close(union_len(vec![(-1.0, 3.0), (8.0, 12.0)], 0.0, 10.0), 5.0);
        close(union_len(Vec::new(), 0.0, 10.0), 0.0);
    }

    #[test]
    fn sequential_children_are_subtracted_from_the_parent() {
        // decide [0,10] ⊃ build [0,3] ⊃ guide_lp [1,2]; solve [4,9].
        let spans = vec![
            span("runner.decide", 1, 0, 0.0, 10.0),
            span("problem.build", 2, 1, 0.0, 3.0),
            span("problem.guide_lp", 3, 2, 1.0, 2.0),
            span("solver.solve", 4, 1, 4.0, 9.0),
        ];
        let layers = [
            "runner.decide",
            "problem.build",
            "problem.guide_lp",
            "solver.solve",
        ];
        let st = self_time_by_layer(&spans, &layers);
        close(st["runner.decide"], 2.0);
        close(st["problem.build"], 2.0);
        close(st["problem.guide_lp"], 1.0);
        close(st["solver.solve"], 5.0);
        // Self times partition the root's duration.
        close(st.values().sum::<f64>(), 10.0);
    }

    #[test]
    fn overlapping_wave_children_count_once() {
        // Two node LPs ran concurrently on wave threads: [2,6] and [3,7].
        let spans = vec![
            span("solver.solve", 1, 0, 0.0, 10.0),
            span("solver.node_lp", 2, 1, 2.0, 6.0),
            span("solver.node_lp", 3, 1, 3.0, 7.0),
        ];
        let st = self_time_by_layer(&spans, &["solver.solve", "solver.node_lp"]);
        close(st["solver.solve"], 5.0);
        close(st["solver.node_lp"], 8.0);
    }

    #[test]
    fn transparent_spans_fold_into_the_nearest_layer() {
        // solve ⊃ wave (not a layer) ⊃ two overlapping node LPs (not
        // layers) and a root LP (a layer, reached through the wave).
        let spans = vec![
            span("solver.solve", 1, 0, 0.0, 10.0),
            span("solver.wave", 2, 1, 1.0, 8.0),
            span("solver.node_lp", 3, 2, 1.0, 5.0),
            span("solver.node_lp", 4, 2, 2.0, 6.0),
            span("solver.root_lp", 5, 2, 6.0, 8.0),
        ];
        let st = self_time_by_layer(&spans, &["solver.solve", "solver.root_lp"]);
        close(st["solver.solve"], 8.0);
        close(st["solver.root_lp"], 2.0);
        assert!(!st.contains_key("solver.wave"));
    }

    #[test]
    fn self_time_sums_over_spans_of_one_name() {
        let spans = vec![
            span("runner.decide", 1, 0, 0.0, 2.0),
            span("runner.decide", 2, 0, 5.0, 8.0),
            span("solver.solve", 3, 2, 5.5, 7.5),
        ];
        let st = self_time_by_layer(&spans, &["runner.decide", "solver.solve"]);
        close(st["runner.decide"], 3.0);
        close(st["solver.solve"], 2.0);
    }
}

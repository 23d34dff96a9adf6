//! Per-layer accounting: span self times from an `om-obs` trace, and the
//! deterministic work counts of a fixed slice of a workload.

use om_core::OmOutput;
use om_linker::LinkStats;
use om_obs::Sink;
use om_sim::TimingStats;
use std::collections::BTreeMap;

/// Totals per span name over one recorded phase.
#[derive(Debug, Default, Clone, Copy)]
pub struct SpanTotal {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Summed self time (duration minus direct children), nanoseconds.
    pub self_ns: u64,
}

/// Span totals, timer totals and the durations of individual spans of a
/// recorded phase.
pub struct Spans {
    pub by_name: BTreeMap<String, SpanTotal>,
    pub timers_ns: BTreeMap<String, u64>,
    pub counters: BTreeMap<String, u64>,
    sink: Sink,
    /// `children[i]`: indices (into `sink.spans`) of span `i`'s direct
    /// children.
    children: Vec<Vec<usize>>,
}

impl Spans {
    /// Rebuilds the span tree of `sink`. Spans of one install nest by
    /// construction, so sorting each tid's spans by start time (parents
    /// before children on ties) and walking them with a depth-indexed stack
    /// recovers every parent.
    pub fn new(sink: Sink) -> Spans {
        let spans = &sink.spans;
        let mut order: Vec<usize> = (0..spans.len()).collect();
        order.sort_by_key(|&i| (spans[i].tid, spans[i].start_ns, spans[i].depth));
        let mut children = vec![Vec::new(); spans.len()];
        let mut stack: Vec<usize> = Vec::new();
        let mut tid = None;
        for &i in &order {
            let s = &spans[i];
            if tid != Some(s.tid) {
                stack.clear();
                tid = Some(s.tid);
            }
            stack.truncate(s.depth as usize);
            if let Some(&parent) = stack.last() {
                if stack.len() == s.depth as usize {
                    children[parent].push(i);
                }
            }
            stack.push(i);
        }
        let mut by_name: BTreeMap<String, SpanTotal> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let child_ns: u64 = children[i].iter().map(|&c| spans[c].dur_ns).sum();
            let t = by_name.entry(s.name.clone()).or_default();
            t.count += 1;
            t.total_ns += s.dur_ns;
            t.self_ns += s.dur_ns.saturating_sub(child_ns);
        }
        Spans {
            by_name,
            timers_ns: sink.timers_ns.clone(),
            counters: sink.counters.clone(),
            sink,
            children,
        }
    }

    /// Totals for `name` (all zero when it never ran).
    pub fn get(&self, name: &str) -> SpanTotal {
        self.by_name.get(name).copied().unwrap_or_default()
    }

    /// True when at least one span named `name` was recorded.
    pub fn has(&self, name: &str) -> bool {
        self.get(name).count > 0
    }

    /// Mean duration of a `name` span, ms.
    pub fn mean_ms(&self, name: &str) -> f64 {
        let t = self.get(name);
        ms(t.total_ns) / t.count.max(1) as f64
    }

    /// A counter's value (0 when never counted).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Every `name` span as `(duration ms, has a direct child named
    /// child)`.
    pub fn each(&self, name: &str, child: &str) -> Vec<(f64, bool)> {
        let spans = &self.sink.spans;
        spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| {
                (
                    ms(s.dur_ns),
                    self.children[i].iter().any(|&c| spans[c].name == child),
                )
            })
            .collect()
    }

    /// Sum of argument `key` over every `name` span.
    pub fn arg_sum(&self, name: &str, key: &str) -> u64 {
        self.sink
            .spans
            .iter()
            .filter(|s| s.name == name)
            .flat_map(|s| s.args.iter())
            .filter(|(k, _)| k == key)
            .map(|(_, v)| v)
            .sum()
    }
}

/// Nanoseconds to milliseconds.
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Exact work counts over a fixed, deterministic slice of a workload (two
/// runs with the same seed and size give identical values).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    pub full_rounds: u64,
    pub insts_deleted: u64,
    pub gat_slots_after: u64,
    pub gp_groups: u64,
    pub gat_slots: u64,
    pub text_bytes: u64,
    pub sim_insts: u64,
    pub cycles: u64,
    pub dual_issued: u64,
    pub icache_misses: u64,
    pub dcache_misses: u64,
    pub blocks_decoded: u64,
}

impl Counts {
    /// Adds one OM link: its transformation counts and its final link.
    pub fn add_om(&mut self, out: &OmOutput) {
        self.insts_deleted += out.stats.insts_deleted as u64;
        self.gat_slots_after += out.stats.gat_slots_after as u64;
        self.add_link(&out.link);
    }

    /// Adds one link's layout facts.
    pub fn add_link(&mut self, link: &LinkStats) {
        self.gp_groups += link.gp_groups as u64;
        self.gat_slots += link.gat_slots as u64;
        self.text_bytes += link.text_bytes;
    }

    /// Adds one timed simulation.
    pub fn add_sim(&mut self, t: &TimingStats) {
        self.sim_insts += t.insts;
        self.cycles += t.cycles;
        self.dual_issued += t.dual_issued;
        self.icache_misses += t.icache_misses;
        self.dcache_misses += t.dcache_misses;
    }

    /// Adds the counters the program emitted between two snapshots of a
    /// trace's counter state.
    pub fn add_counters(&mut self, before: &BTreeMap<String, u64>, after: &BTreeMap<String, u64>) {
        let delta =
            |k: &str| after.get(k).copied().unwrap_or(0) - before.get(k).copied().unwrap_or(0);
        self.full_rounds += delta("pipeline.full_rounds");
        self.blocks_decoded += delta("sim.blocks_decoded");
    }

    /// The counts as named metrics.
    pub fn metrics(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("core.full_rounds", self.full_rounds),
            ("core.insts_deleted", self.insts_deleted),
            ("core.gat_slots_after", self.gat_slots_after),
            ("linker.gp_groups", self.gp_groups),
            ("linker.gat_slots", self.gat_slots),
            ("linker.text_bytes", self.text_bytes),
            ("sim.insts", self.sim_insts),
            ("sim.cycles", self.cycles),
            ("sim.dual_issued", self.dual_issued),
            ("sim.icache_misses", self.icache_misses),
            ("sim.dcache_misses", self.dcache_misses),
            ("sim.blocks_decoded", self.blocks_decoded),
        ]
    }
}

/// Snapshot of the installed-trace counters, for [`Counts::add_counters`].
pub fn counters(trace: Option<&om_obs::Trace>) -> BTreeMap<String, u64> {
    trace.map(om_obs::Trace::counters).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use om_obs::Trace;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let t = Trace::new();
        {
            let _g = t.install();
            let _outer = om_obs::span("outer");
            {
                let _mid = om_obs::span("mid");
                let _leaf = om_obs::span("leaf");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let s = Spans::new(t.take_sink());
        let (outer, mid, leaf) = (s.get("outer"), s.get("mid"), s.get("leaf"));
        assert_eq!(outer.self_ns, outer.total_ns - mid.total_ns);
        assert_eq!(mid.self_ns, mid.total_ns - leaf.total_ns);
        assert_eq!(leaf.self_ns, leaf.total_ns);
        assert_eq!(s.each("outer", "mid"), vec![(ms(outer.total_ns), true)]);
        assert!(!s.each("outer", "leaf")[0].1);
    }
}

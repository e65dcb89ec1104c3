//! Aggregated coverage over the three feedback signals.
//!
//! A case's coverage is a [`CovSnap`]: which opcodes the ISA retired
//! ([`ExecStats`]), which PC edges it walked ([`EdgeSet`]), and which
//! source constructs the generated program contained
//! ([`FeatureSet`]). The engine folds snaps into one
//! [`GlobalCoverage`] per target; a case earns a place in the corpus
//! exactly when its snap adds something to the global set
//! (the AFL "keep if new coverage" policy).

use ag32::{EdgeSet, ExecStats, Opcode, RetireEvent, State, Tracer};
use cakeml::FeatureSet;

/// Coverage observed while running one case.
#[derive(Clone, Debug)]
pub struct CovSnap {
    /// Per-opcode retire counters from the ISA-level run(s).
    pub stats: ExecStats,
    /// PC-edge bitmap from the ISA-level run(s).
    pub edges: EdgeSet,
    /// Source constructs in the generated program (empty for targets
    /// that generate machine code directly).
    pub features: FeatureSet,
}

impl Default for CovSnap {
    fn default() -> Self {
        CovSnap::new()
    }
}

impl CovSnap {
    /// An empty snapshot.
    #[must_use]
    pub fn new() -> Self {
        CovSnap { stats: ExecStats::new(), edges: EdgeSet::new(), features: FeatureSet::new() }
    }
}

/// Collects both ISA-level signals from one observed run: the PC edge
/// and the opcode of every retire.
impl Tracer for CovSnap {
    fn retire(&mut self, ev: &RetireEvent, state: &State) {
        self.edges.retire(ev, state);
        self.stats.opcode_retired[Opcode::of(&ev.instr) as usize] += 1;
    }
}

/// Accumulated coverage across all cases of one target.
#[derive(Clone, Debug)]
pub struct GlobalCoverage {
    /// Summed opcode counters.
    pub stats: ExecStats,
    /// Union of all PC-edge bitmaps.
    pub edges: EdgeSet,
    /// Union of all feature sets.
    pub features: FeatureSet,
}

impl Default for GlobalCoverage {
    fn default() -> Self {
        GlobalCoverage::new()
    }
}

impl GlobalCoverage {
    /// An empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        GlobalCoverage {
            stats: ExecStats::new(),
            edges: EdgeSet::new(),
            features: FeatureSet::new(),
        }
    }

    /// Would merging `snap` add any new opcode, edge or feature?
    #[must_use]
    pub fn would_add(&self, snap: &CovSnap) -> bool {
        snap.edges.has_new_bits(&self.edges)
            || snap.features.has_new_bits(&self.features)
            || Opcode::ALL
                .iter()
                .any(|op| snap.stats.count(*op) > 0 && self.stats.count(*op) == 0)
    }

    /// Folds `snap` in; returns `true` when it contributed anything new.
    pub fn merge(&mut self, snap: &CovSnap) -> bool {
        let fresh = self.would_add(snap);
        self.stats.merge(&snap.stats);
        self.edges.merge(&snap.edges);
        self.features.merge(&snap.features);
        fresh
    }

    /// Number of distinct opcodes retired so far.
    #[must_use]
    pub fn opcodes(&self) -> usize {
        self.stats.opcodes_exercised()
    }

    /// Opcode coverage as a percentage of the full ISA (0–100).
    #[must_use]
    pub fn opcode_pct(&self) -> f64 {
        100.0 * self.opcodes() as f64 / Opcode::COUNT as f64
    }

    /// Number of distinct PC edges seen.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edges.count()
    }

    /// Number of distinct source features seen.
    #[must_use]
    pub fn feature_count(&self) -> usize {
        self.features.count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cakeml::Feature;

    #[test]
    fn merge_reports_novelty_once() {
        let mut global = GlobalCoverage::new();
        let mut snap = CovSnap::new();
        snap.stats.opcode_retired[Opcode::Normal as usize] = 3;
        snap.edges.insert(0, 4);
        snap.features.insert(Feature::If);

        assert!(global.would_add(&snap));
        assert!(global.merge(&snap));
        // Identical coverage the second time adds nothing.
        assert!(!global.would_add(&snap));
        assert!(!global.merge(&snap));
        assert_eq!(global.opcodes(), 1);
        assert_eq!(global.edge_count(), 1);
        assert_eq!(global.feature_count(), 1);
        assert!(global.opcode_pct() > 0.0);

        // A new opcode alone is novelty, even with no new edges.
        let mut snap2 = snap.clone();
        snap2.stats.opcode_retired[Opcode::Jump as usize] = 1;
        assert!(global.merge(&snap2));
    }
}

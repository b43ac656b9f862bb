//! Per-design counters the run loop snapshots, differences and sums
//! without knowing which design produced them.

use seesaw_cache::WayPredictionStats;
use seesaw_trace::{Collect, MetricsRegistry};

use crate::{SeesawStats, SynonymStats, TftStats, VespaStats};

/// Implements fieldwise `delta` and `add` for a struct of `u64` counters.
/// Both destructure exhaustively, so a field missing from the list is a
/// compile error rather than a silently dropped counter.
macro_rules! counter_arith {
    ($name:ident { $($field:ident),+ $(,)? }) => {
        impl $name {
            /// Fieldwise difference versus an earlier snapshot.
            pub fn delta(&self, earlier: &$name) -> $name {
                let $name { $($field),+ } = *self;
                $name { $($field: $field - earlier.$field),+ }
            }

            /// Fieldwise sum into `self`.
            pub fn add(&mut self, other: &$name) {
                let $name { $($field),+ } = *other;
                $(self.$field += $field;)+
            }
        }
    };
}
pub(crate) use counter_arith;

/// Design-specific counters, cumulative since construction
/// ([`crate::L1DataCache::design_stats`]). A design leaves what it lacks
/// at zero or `None`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DesignStats {
    /// SEESAW's Table I cases and promotion sweeps (`seesaw.*`).
    pub seesaw: SeesawStats,
    /// TFT counters (`tft.*`).
    pub tft: TftStats,
    /// VESPA's fast-path counters (`vespa.*`); VESPA only.
    pub vespa: Option<VespaStats>,
    /// The synonym machinery (`vivt.*`); VIVT only.
    pub synonyms: Option<SynonymStats>,
    /// Way-predictor counters (`l1.waypred.*`); designs with a predictor.
    pub way_prediction: Option<WayPredictionStats>,
}

impl DesignStats {
    /// Fieldwise difference versus an earlier snapshot of the same L1.
    pub fn delta(&self, earlier: &DesignStats) -> DesignStats {
        DesignStats {
            seesaw: self.seesaw.delta(&earlier.seesaw),
            tft: self.tft.delta(&earlier.tft),
            vespa: self
                .vespa
                .map(|v| v.delta(&earlier.vespa.unwrap_or_default())),
            synonyms: self
                .synonyms
                .map(|s| s.delta(&earlier.synonyms.unwrap_or_default())),
            way_prediction: self
                .way_prediction
                .map(|w| w.delta(&earlier.way_prediction.unwrap_or_default())),
        }
    }

    /// Fieldwise sum into `self` (an optional group becomes present when
    /// `other` carries it).
    pub fn add(&mut self, other: &DesignStats) {
        self.seesaw.add(&other.seesaw);
        self.tft.add(&other.tft);
        if let Some(v) = &other.vespa {
            self.vespa.get_or_insert_with(Default::default).add(v);
        }
        if let Some(s) = &other.synonyms {
            self.synonyms.get_or_insert_with(Default::default).add(s);
        }
        if let Some(w) = &other.way_prediction {
            self.way_prediction
                .get_or_insert_with(Default::default)
                .add(w);
        }
    }

    /// Writes `seesaw.*` and `tft.*` (zeros for designs without them),
    /// plus `vespa.*`, `vivt.*` and `l1.waypred.*` for the designs that
    /// carry them.
    pub fn collect_metrics(&self, out: &mut MetricsRegistry) {
        self.seesaw.collect("seesaw", out);
        self.tft.collect("tft", out);
        if let Some(v) = &self.vespa {
            v.collect("vespa", out);
        }
        if let Some(s) = &self.synonyms {
            s.collect("vivt", out);
        }
        if let Some(w) = &self.way_prediction {
            w.collect("l1.waypred", out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_and_add_round_trip_every_group() {
        let mut before = DesignStats::default();
        before.seesaw.sweeps = 1;
        before.tft.hits = 2;
        let mut after = before;
        after.seesaw.sweeps = 4;
        after.tft.hits = 7;
        after.way_prediction = Some(WayPredictionStats {
            hits: 3,
            ..Default::default()
        });
        let d = after.delta(&before);
        assert_eq!(d.seesaw.sweeps, 3);
        assert_eq!(d.tft.hits, 5);
        assert_eq!(d.way_prediction.map(|w| w.hits), Some(3));
        assert_eq!(d.vespa, None);
        let mut total = before;
        total.add(&d);
        assert_eq!(total, after);
    }
}

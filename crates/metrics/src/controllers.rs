//! Controller-state snapshots: what the runtime's self-tuning loops decided.
//!
//! The adaptive *scheduling* controller closes a feedback loop over this
//! crate's counters: it re-tunes the AFS subdivision `k` and grab-ahead
//! `b` at phase boundaries. This module makes its decisions observable
//! through the same snapshot path, so a run can be audited after the fact:
//! which parameters were in force, and how many times the controller moved
//! them.
//!
//! State is instantaneous (the registry holds the latest write), so merging
//! two snapshots keeps the most recent opinion rather than summing.

/// Latest state of the adaptive scheduling controller
/// (`afs_runtime::adapt::AdaptController`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedControllerSnapshot {
    /// Subdivision factor `k` chosen for the next phase.
    pub k: u64,
    /// Grab-ahead batch `b` chosen for the next phase.
    pub b: u64,
    /// Parameter changes the controller has made so far.
    pub decisions: u64,
    /// Whether the controller currently considers itself settled (no
    /// parameter change for several consecutive phases).
    pub settled: bool,
}

/// Controller state attached to a [`crate::MetricsSnapshot`]. Each block is
/// present only when the corresponding controller is active for the pool.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ControllersSnapshot {
    /// Adaptive scheduling controller state, when `Policy::adaptive` runs.
    pub sched: Option<SchedControllerSnapshot>,
}

impl ControllersSnapshot {
    /// Merges `other` into `self`: controller state is instantaneous, so
    /// the other snapshot's opinion wins wherever it has one.
    pub fn merge(&mut self, other: &ControllersSnapshot) {
        if other.sched.is_some() {
            self.sched = other.sched;
        }
    }

    /// JSON object body (`{"sched": {...}|null}`).
    pub fn to_json(&self) -> String {
        let sched = match &self.sched {
            Some(s) => format!(
                "{{\"k\": {}, \"b\": {}, \"decisions\": {}, \"settled\": {}}}",
                s.k, s.b, s.decisions, s.settled
            ),
            None => "null".to_string(),
        };
        format!("{{\"sched\": {sched}}}")
    }

    /// Prometheus exposition lines for whichever controllers are present.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        if let Some(s) = &self.sched {
            out.push_str(
                "# HELP afs_sched_tune_k AFS subdivision k chosen by the adaptive controller.\n\
                 # TYPE afs_sched_tune_k gauge\n",
            );
            out.push_str(&format!("afs_sched_tune_k {}\n", s.k));
            out.push_str(
                "# HELP afs_sched_tune_b Grab-ahead batch chosen by the adaptive controller.\n\
                 # TYPE afs_sched_tune_b gauge\n",
            );
            out.push_str(&format!("afs_sched_tune_b {}\n", s.b));
            out.push_str(
                "# HELP afs_sched_tune_decisions_total Parameter changes made by the adaptive scheduling controller.\n\
                 # TYPE afs_sched_tune_decisions_total counter\n",
            );
            out.push_str(&format!("afs_sched_tune_decisions_total {}\n", s.decisions));
            out.push_str(
                "# HELP afs_sched_tune_settled Whether the adaptive scheduling controller has settled.\n\
                 # TYPE afs_sched_tune_settled gauge\n",
            );
            out.push_str(&format!("afs_sched_tune_settled {}\n", u8::from(s.settled)));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_block_serializes_to_nulls() {
        let c = ControllersSnapshot::default();
        assert_eq!(c.to_json(), "{\"sched\": null}");
        assert_eq!(c.to_prometheus(), "");
    }

    #[test]
    fn present_blocks_export_their_fields() {
        let c = ControllersSnapshot {
            sched: Some(SchedControllerSnapshot {
                k: 8,
                b: 2,
                decisions: 3,
                settled: true,
            }),
        };
        let j = c.to_json();
        assert!(j.contains("\"k\": 8"));
        assert!(j.contains("\"b\": 2"));
        assert!(j.contains("\"decisions\": 3"));
        assert!(j.contains("\"settled\": true"));
        let p = c.to_prometheus();
        assert!(p.contains("afs_sched_tune_k 8"));
        assert!(p.contains("afs_sched_tune_b 2"));
        assert!(p.contains("afs_sched_tune_decisions_total 3"));
        assert!(p.contains("afs_sched_tune_settled 1"));
    }

    #[test]
    fn merge_takes_the_latest_opinion() {
        let mut a = ControllersSnapshot {
            sched: Some(SchedControllerSnapshot {
                k: 4,
                b: 1,
                decisions: 1,
                settled: false,
            }),
        };
        let b = ControllersSnapshot {
            sched: Some(SchedControllerSnapshot {
                k: 8,
                b: 2,
                decisions: 2,
                settled: true,
            }),
        };
        a.merge(&b);
        assert_eq!(a.sched.unwrap().k, 8);
        // Merging an empty block changes nothing.
        a.merge(&ControllersSnapshot::default());
        assert_eq!(a.sched.unwrap().k, 8);
    }
}

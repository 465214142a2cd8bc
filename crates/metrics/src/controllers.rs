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

use afs_core::json;

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
}

json::fields!(ControllersSnapshot: sched);

json::fields!(SchedControllerSnapshot: k, b, decisions, settled);

#[cfg(test)]
mod tests {
    use super::*;
    use afs_core::json::{self, Fields, Value};

    #[test]
    fn empty_block_serializes_to_nulls() {
        let c = ControllersSnapshot::default();
        assert_eq!(
            json::parse(&json::document(|o| c.fields(o))),
            Ok(Value::Obj(vec![("sched".into(), Value::Null)]))
        );
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
        let v = json::parse(&json::document(|o| c.fields(o))).unwrap();
        let sched = v.get("sched").unwrap();
        assert_eq!(sched.get("k").and_then(Value::as_f64), Some(8.0));
        assert_eq!(sched.get("b").and_then(Value::as_f64), Some(2.0));
        assert_eq!(sched.get("decisions").and_then(Value::as_f64), Some(3.0));
        assert_eq!(sched.get("settled"), Some(&Value::Bool(true)));
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

//! Minimal reactor primitives for event-driven serving loops.
//!
//! The vendored-stub build environment has no async runtime, and the
//! workspace's determinism contract rules out wall-clock-driven control
//! flow anyway. This module provides what an open-submission serving
//! front-end actually needs, in the same dependency-free idiom as the
//! thread pool: [`TimerWheel`], a deterministic deadline queue over an
//! abstract monotonic tick (virtual cycles in the serving runtime).
//! Arming, expiry order and tie-breaking are pure functions of the armed
//! `(tick, token)` pairs — never of insertion timing or threads — so a
//! reactor built on it replays bit-identically from a recorded trace.
//!
//! ```
//! use matador_par::reactor::TimerWheel;
//!
//! let mut timers = TimerWheel::new();
//! timers.arm(30, 1);
//! timers.arm(10, 2);
//! timers.arm(10, 1);
//! assert_eq!(timers.next_deadline(), Some(10));
//! // Expiry is (tick, token)-ordered: deterministic under ties.
//! assert_eq!(timers.pop_expired(10), vec![(10, 1), (10, 2)]);
//! assert_eq!(timers.next_deadline(), Some(30));
//! ```

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A deterministic deadline queue: `(tick, token)` pairs expire in
/// ascending `(tick, token)` order.
///
/// Tokens are caller-defined event identities (e.g. *idle flush* vs
/// *deadline check*). The wheel does not deduplicate: arming the same
/// token twice yields two expiries, which is what lazy cancellation
/// wants — a reactor re-arms freely and discards stale expiries by
/// checking them against its current state.
#[derive(Debug, Default, Clone)]
pub struct TimerWheel {
    heap: BinaryHeap<Reverse<(u64, u64)>>,
}

impl TimerWheel {
    /// An empty wheel.
    pub fn new() -> Self {
        TimerWheel::default()
    }

    /// Arms `token` to expire at `tick`.
    pub fn arm(&mut self, tick: u64, token: u64) {
        self.heap.push(Reverse((tick, token)));
    }

    /// The earliest armed tick, if any timer is pending.
    pub fn next_deadline(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse((tick, _))| *tick)
    }

    /// Pops every timer with `tick <= now`, in ascending `(tick, token)`
    /// order.
    pub fn pop_expired(&mut self, now: u64) -> Vec<(u64, u64)> {
        let mut expired = Vec::new();
        while let Some(Reverse((tick, token))) = self.heap.peek().copied() {
            if tick > now {
                break;
            }
            self.heap.pop();
            expired.push((tick, token));
        }
        expired
    }

    /// Number of armed timers (stale re-arms included).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no timers are armed.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timers_expire_in_tick_then_token_order() {
        let mut wheel = TimerWheel::new();
        wheel.arm(5, 9);
        wheel.arm(3, 2);
        wheel.arm(5, 1);
        wheel.arm(8, 0);
        assert_eq!(wheel.next_deadline(), Some(3));
        assert_eq!(wheel.pop_expired(5), vec![(3, 2), (5, 1), (5, 9)]);
        assert_eq!(wheel.next_deadline(), Some(8));
        assert_eq!(wheel.pop_expired(7), vec![]);
        assert_eq!(wheel.pop_expired(100), vec![(8, 0)]);
        assert!(wheel.is_empty());
    }

    #[test]
    fn duplicate_arms_both_expire() {
        let mut wheel = TimerWheel::new();
        wheel.arm(4, 7);
        wheel.arm(2, 7);
        assert_eq!(wheel.len(), 2);
        assert_eq!(wheel.pop_expired(4), vec![(2, 7), (4, 7)]);
    }
}

//! Cost-based shard→device assignment.
//!
//! Longest-processing-time (LPT) greedy: shards are placed heaviest-first
//! onto the currently least-loaded device. LPT's makespan is within 4/3
//! of optimal, which is ample here — prediction error dominates. With
//! the engine's default of one shard per device every device gets one
//! shard; an explicit over-decomposition (more shards than devices)
//! gives this stage freedom to balance skewed costs.

/// The result of scheduling shards onto a device pool.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Assignment {
    /// Per-device shard queues (`queues[d]` lists shard indices, in
    /// descending cost order).
    pub queues: Vec<Vec<usize>>,
    /// Per-device predicted load (sum of assigned costs).
    pub predicted_load: Vec<u64>,
}

impl Assignment {
    /// Device assigned to shard `s`.
    pub fn device_of(&self, s: usize) -> Option<usize> {
        self.queues.iter().position(|q| q.contains(&s))
    }

    /// Ratio of the heaviest to the mean device load (1.0 = perfectly
    /// balanced). Empty loads count as balanced.
    pub fn imbalance(&self) -> f64 {
        let max = self.predicted_load.iter().copied().max().unwrap_or(0);
        let sum: u64 = self.predicted_load.iter().sum();
        if sum == 0 {
            return 1.0;
        }
        max as f64 * self.predicted_load.len() as f64 / sum as f64
    }
}

/// Assigns `costs.len()` shards to `devices` devices by LPT. Deterministic:
/// ties break toward the lower shard index and the lower device index.
///
/// # Panics
///
/// Panics if `devices == 0`.
pub fn lpt_schedule(costs: &[u64], devices: usize) -> Assignment {
    assert!(devices > 0, "need at least one device");
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by_key(|&s| (std::cmp::Reverse(costs[s]), s));
    let mut queues = vec![Vec::new(); devices];
    let mut load = vec![0u64; devices];
    for s in order {
        let d = (0..devices).min_by_key(|&d| (load[d], d)).unwrap();
        queues[d].push(s);
        load[d] += costs[s];
    }
    Assignment {
        queues,
        predicted_load: load,
    }
}

/// Modeled completion time of an assignment — the engine's projected
/// stream makespan, audited against the measured one. `stages[s]` is shard `s`'s
/// `(host, device)` stage pair: the host stage (grid build, done by the
/// executor task's thread) and the modeled device stage (upload + join).
/// Within a queue the two resources pipeline, exactly like the batching
/// scheme's transfer/kernel overlap: the host builds shard `i+1`'s grid
/// while the device crunches shard `i`, so a queue finishes at
///
/// ```text
/// host_i = Σ_{j≤i} host_j;   dev_i = max(host_i, dev_{i−1}) + device_i
/// ```
///
/// Queues run concurrently across devices; the busiest queue bounds the
/// whole. Over-decomposing (more shards than devices) therefore *hides*
/// grid-build time behind device work.
pub fn modeled_makespan(
    assign: &Assignment,
    stages: &[(std::time::Duration, std::time::Duration)],
) -> std::time::Duration {
    use std::time::Duration;
    assign
        .queues
        .iter()
        .map(|q| {
            let mut host = Duration::ZERO;
            let mut dev = Duration::ZERO;
            for &s in q {
                let (h, d) = stages[s];
                host += h;
                dev = host.max(dev) + d;
            }
            dev
        })
        .max()
        .unwrap_or(Duration::ZERO)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn makespan_is_the_busiest_queue() {
        use std::time::Duration;
        // Pure device stages (no host stage): the pipeline degenerates to
        // per-queue sums and the makespan is the busiest queue.
        let stages: Vec<(Duration, Duration)> = [5u64, 3, 8, 1]
            .iter()
            .map(|&m| (Duration::ZERO, Duration::from_millis(m)))
            .collect();
        let a = lpt_schedule(&[5, 3, 8, 1], 2);
        // LPT: 8 alone (8ms), then 5+3+1 on the other (9ms).
        assert_eq!(modeled_makespan(&a, &stages), Duration::from_millis(9));
        let serial = lpt_schedule(&[5, 3, 8, 1], 1);
        assert_eq!(
            modeled_makespan(&serial, &stages),
            Duration::from_millis(17)
        );
    }

    #[test]
    fn makespan_overlaps_host_and_device_stages() {
        use std::time::Duration;
        let ms = Duration::from_millis;
        // One queue of two identical shards (host 4, device 6): shard 1's
        // grid build (done at t=8) hides entirely under shard 0's device
        // stage (runs 4..10), so the queue finishes at 16, not 20.
        let stages = vec![(ms(4), ms(6)), (ms(4), ms(6))];
        let a = lpt_schedule(&[10, 10], 1);
        assert_eq!(modeled_makespan(&a, &stages), ms(16));
        // Host-bound queue: device stages (1) hide under grid builds (4);
        // the last join starts when its grid lands at 8 and ends at 9.
        let stages = vec![(ms(4), ms(1)), (ms(4), ms(1))];
        assert_eq!(modeled_makespan(&a, &stages), ms(9));
    }

    #[test]
    fn every_shard_assigned_exactly_once() {
        let a = lpt_schedule(&[5, 3, 8, 1, 9, 2], 3);
        let mut all: Vec<usize> = a.queues.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(a.predicted_load.iter().sum::<u64>(), 28);
    }

    #[test]
    fn skewed_costs_balance_better_than_count() {
        // One giant shard and seven tiny ones on two devices: count-based
        // round-robin would put 4 shards on each (loads 103 vs 4); LPT
        // isolates the giant.
        let costs = [100, 1, 1, 1, 1, 1, 1, 1];
        let a = lpt_schedule(&costs, 2);
        assert_eq!(a.predicted_load.iter().copied().max().unwrap(), 100);
        assert_eq!(a.predicted_load.iter().copied().min().unwrap(), 7);
        assert_eq!(a.device_of(0), Some(0));
    }

    #[test]
    fn single_device_takes_everything() {
        let a = lpt_schedule(&[4, 2, 6], 1);
        assert_eq!(a.queues.len(), 1);
        assert_eq!(a.queues[0], vec![2, 0, 1]); // descending cost order
        assert_eq!(a.predicted_load, vec![12]);
    }

    #[test]
    fn more_devices_than_shards_leaves_idle_devices() {
        let a = lpt_schedule(&[7, 3], 4);
        assert_eq!(a.queues.iter().filter(|q| q.is_empty()).count(), 2);
        assert_eq!(a.imbalance(), 7.0 * 4.0 / 10.0);
    }

    #[test]
    fn deterministic_under_ties() {
        let a = lpt_schedule(&[5, 5, 5, 5], 2);
        let b = lpt_schedule(&[5, 5, 5, 5], 2);
        assert_eq!(a, b);
        assert_eq!(a.imbalance(), 1.0);
    }

    #[test]
    fn empty_shard_list_is_fine() {
        let a = lpt_schedule(&[], 2);
        assert!(a.queues.iter().all(Vec::is_empty));
        assert_eq!(a.imbalance(), 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn zero_devices_rejected() {
        let _ = lpt_schedule(&[1], 0);
    }
}

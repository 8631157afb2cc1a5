//! Head scheduling: the CVSCAN continuum of Geist & Daniel, plus FCFS.

/// Which request the disk services next.
///
/// The paper's array uses CVSCAN head scheduling (Table 5-1 (c), citing
/// Geist & Daniel's *A Continuum of Disk Scheduling Algorithms*). That
/// continuum, V(R), scores each queued request by its seek distance plus a
/// penalty of `R × cylinders` if serving it would reverse the arm's current
/// direction of travel: `R = 0` degenerates to SSTF, `R = 1` to SCAN, and
/// intermediate values trade SSTF's throughput for SCAN's fairness. Geist &
/// Daniel found `R ≈ 0.2` near-optimal, which is our default.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchedPolicy {
    /// First come, first served (for ablations).
    Fcfs,
    /// The V(R) continuum with reversal-penalty fraction `r` in `[0, 1]`.
    VScan {
        /// Fraction of the full stroke charged for reversing direction.
        r: f64,
    },
}

impl SchedPolicy {
    /// CVSCAN with the conventional `R = 0.2`.
    pub fn cvscan() -> SchedPolicy {
        SchedPolicy::VScan { r: 0.2 }
    }

    /// Shortest-seek-time-first (`V(0)`).
    pub fn sstf() -> SchedPolicy {
        SchedPolicy::VScan { r: 0.0 }
    }

    /// Classic SCAN / elevator (`V(1)`).
    pub fn scan() -> SchedPolicy {
        SchedPolicy::VScan { r: 1.0 }
    }
}

impl Default for SchedPolicy {
    fn default() -> Self {
        SchedPolicy::cvscan()
    }
}

/// Direction the arm last moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ArmDirection {
    /// Toward higher cylinder numbers.
    #[default]
    Up,
    /// Toward lower cylinder numbers.
    Down,
}

/// Picks the index of the next request to service from `queue`, given the
/// head's cylinder, its direction of travel, and the total cylinder count.
///
/// Each queue entry is `(submission_seq, target_cylinder)`; ties are broken
/// by submission order so scheduling is deterministic.
///
/// Returns `None` when the queue is empty.
pub fn pick_next(
    policy: SchedPolicy,
    queue: &[(u64, u32)],
    head: u32,
    direction: ArmDirection,
    cylinders: u32,
) -> Option<usize> {
    if queue.is_empty() {
        return None;
    }
    match policy {
        SchedPolicy::Fcfs => {
            let mut best = 0;
            for (i, entry) in queue.iter().enumerate() {
                if entry.0 < queue[best].0 {
                    best = i;
                }
            }
            Some(best)
        }
        SchedPolicy::VScan { r } => {
            let penalty = r * cylinders as f64;
            let mut best: Option<(usize, f64, u64)> = None;
            for (i, &(seq, cyl)) in queue.iter().enumerate() {
                let dist = (cyl as i64 - head as i64).abs() as f64;
                let reverses = match direction {
                    ArmDirection::Up => cyl < head,
                    ArmDirection::Down => cyl > head,
                };
                let score = dist
                    + if reverses && cyl != head {
                        penalty
                    } else {
                        0.0
                    };
                let better = match best {
                    None => true,
                    Some((_, s, q)) => score < s || (score == s && seq < q),
                };
                if better {
                    best = Some((i, score, seq));
                }
            }
            best.map(|(i, _, _)| i)
        }
    }
}

/// The arm direction implied by moving from `head` to `target`; unchanged
/// when they are equal.
pub fn direction_after(head: u32, target: u32, current: ArmDirection) -> ArmDirection {
    use std::cmp::Ordering::*;
    match target.cmp(&head) {
        Greater => ArmDirection::Up,
        Less => ArmDirection::Down,
        Equal => current,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CYLS: u32 = 949;

    #[test]
    fn fcfs_takes_oldest() {
        let queue = vec![(5, 100), (2, 900), (9, 1)];
        let i = pick_next(SchedPolicy::Fcfs, &queue, 0, ArmDirection::Up, CYLS).unwrap();
        assert_eq!(queue[i].0, 2);
    }

    #[test]
    fn sstf_takes_nearest() {
        let queue = vec![(0, 100), (1, 480), (2, 940)];
        let i = pick_next(SchedPolicy::sstf(), &queue, 500, ArmDirection::Up, CYLS).unwrap();
        assert_eq!(queue[i].1, 480);
    }

    #[test]
    fn scan_keeps_direction() {
        // SSTF would reverse to 480; SCAN (R = 1) keeps climbing to 940
        // because the reversal penalty (949 cylinders) outweighs the longer
        // forward seek.
        let queue = vec![(0, 480), (1, 940)];
        let i = pick_next(SchedPolicy::scan(), &queue, 500, ArmDirection::Up, CYLS).unwrap();
        assert_eq!(queue[i].1, 940);
    }

    #[test]
    fn cvscan_reverses_only_for_big_wins() {
        // With R = 0.2 the penalty is ~190 cylinders: a 20-cylinder
        // backwards request loses to a 100-cylinder forward one...
        let queue = vec![(0, 480), (1, 600)];
        let i = pick_next(SchedPolicy::cvscan(), &queue, 500, ArmDirection::Up, CYLS).unwrap();
        assert_eq!(queue[i].1, 600);
        // ...but wins against a 400-cylinder forward one.
        let queue = vec![(0, 480), (1, 900)];
        let i = pick_next(SchedPolicy::cvscan(), &queue, 500, ArmDirection::Up, CYLS).unwrap();
        assert_eq!(queue[i].1, 480);
    }

    #[test]
    fn same_cylinder_is_free_regardless_of_direction() {
        let queue = vec![(0, 500), (1, 501)];
        let i = pick_next(SchedPolicy::cvscan(), &queue, 500, ArmDirection::Down, CYLS).unwrap();
        assert_eq!(queue[i].1, 500);
    }

    #[test]
    fn ties_break_by_submission_order() {
        let queue = vec![(7, 510), (3, 490)];
        // Equidistant; 490 reverses under Up so 510 wins despite later seq.
        let i = pick_next(SchedPolicy::cvscan(), &queue, 500, ArmDirection::Up, CYLS).unwrap();
        assert_eq!(queue[i].1, 510);
        // With no direction effect (both forward), equal scores → lower seq.
        let queue = vec![(7, 510), (3, 510)];
        let i = pick_next(SchedPolicy::cvscan(), &queue, 500, ArmDirection::Up, CYLS).unwrap();
        assert_eq!(queue[i].0, 3);
    }

    #[test]
    fn empty_queue_yields_none() {
        assert_eq!(
            pick_next(SchedPolicy::cvscan(), &[], 0, ArmDirection::Up, CYLS),
            None
        );
    }

    #[test]
    fn direction_tracking() {
        assert_eq!(
            direction_after(10, 20, ArmDirection::Down),
            ArmDirection::Up
        );
        assert_eq!(
            direction_after(20, 10, ArmDirection::Up),
            ArmDirection::Down
        );
        assert_eq!(
            direction_after(10, 10, ArmDirection::Down),
            ArmDirection::Down
        );
    }
}

//! Cooperative scans vs. demand-paged LRU scans (§5, \[45\]).
//!
//! A discrete-event model: a table of `npages` chunks on a device that
//! delivers one chunk per tick, a buffer of `bufpages` chunks, and `Q`
//! concurrent full-table scans (optionally staggered). Consuming a resident
//! chunk is free (the experiment isolates I/O scheduling).
//!
//! * **LRU regime** — every query demands *its own next sequential chunk*;
//!   the device serves the queries round-robin; replacement is LRU. With
//!   more concurrent scans than buffer headroom, queries evict each other's
//!   chunks and each re-reads the whole table: total I/O ≈ `Q × npages`.
//! * **Cooperative regime** — queries only declare *which chunks they still
//!   need*; the Active Buffer Manager loads the chunk relevant to the most
//!   queries (preferring chunks that keep the slowest query moving), and
//!   every interested query consumes it the moment it is resident. One
//!   physical pass can feed everyone: total I/O ≈ `npages`.

/// Scheduling regime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanPolicy {
    Lru,
    Cooperative,
}

/// Result of simulating a scan workload.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanReport {
    /// Chunks physically read from the device.
    pub disk_reads: u64,
    /// Tick at which each query finished (index = query).
    pub completion: Vec<u64>,
    /// Average completion tick.
    pub avg_completion: f64,
    /// Last completion tick (makespan).
    pub makespan: u64,
}

/// Simulate `queries` full scans of a `npages` table through a
/// `bufpages` buffer. `arrivals[i]` is query `i`'s start tick.
pub fn simulate_scans(
    npages: usize,
    bufpages: usize,
    arrivals: &[u64],
    policy: ScanPolicy,
) -> ScanReport {
    assert!(npages > 0 && bufpages > 0);
    let q = arrivals.len();
    // per-query remaining chunks
    let mut needs: Vec<Vec<bool>> = vec![vec![true; npages]; q];
    let mut remaining: Vec<usize> = vec![npages; q];
    let mut next_seq: Vec<usize> = vec![0; q]; // LRU regime cursor
    let mut done_at: Vec<Option<u64>> = vec![None; q];

    // buffer: resident chunks with last-used ticks
    let mut resident: Vec<Option<usize>> = Vec::new(); // chunk per frame
    let mut last_used: Vec<u64> = Vec::new();
    let mut where_is = vec![usize::MAX; npages]; // chunk -> frame (or MAX)

    let mut disk_reads = 0u64;
    let mut tick = 0u64;
    let mut rr = 0usize; // round-robin pointer for the LRU regime

    let active = |done_at: &Vec<Option<u64>>, arrivals: &[u64], i: usize, tick: u64| {
        done_at[i].is_none() && arrivals[i] <= tick
    };

    // consume everything consumable: free, instantaneous
    let consume = |needs: &mut Vec<Vec<bool>>,
                   remaining: &mut Vec<usize>,
                   done_at: &mut Vec<Option<u64>>,
                   next_seq: &mut Vec<usize>,
                   resident: &Vec<Option<usize>>,
                   last_used: &mut Vec<u64>,
                   arrivals: &[u64],
                   policy: ScanPolicy,
                   tick: u64| {
        for i in 0..needs.len() {
            if done_at[i].is_some() || arrivals[i] > tick {
                continue;
            }
            match policy {
                ScanPolicy::Cooperative => {
                    // attach: consume ANY resident chunk still needed
                    for (f, r) in resident.iter().enumerate() {
                        if let Some(c) = r {
                            if needs[i][*c] {
                                needs[i][*c] = false;
                                remaining[i] -= 1;
                                last_used[f] = tick;
                            }
                        }
                    }
                }
                ScanPolicy::Lru => {
                    // strict order: consume only the next sequential chunk
                    while next_seq[i] < needs[i].len() {
                        let c = next_seq[i];
                        let f = resident.iter().position(|r| *r == Some(c));
                        match f {
                            Some(f) => {
                                needs[i][c] = false;
                                remaining[i] -= 1;
                                next_seq[i] += 1;
                                last_used[f] = tick;
                            }
                            None => break,
                        }
                    }
                }
            }
            if remaining[i] == 0 {
                done_at[i] = Some(tick);
            }
        }
    };

    let all_done = |done_at: &Vec<Option<u64>>| done_at.iter().all(|d| d.is_some());

    // guard against pathological infinite loops
    let tick_limit = (npages as u64 + 2) * (q as u64 + 2) * 4 + arrivals.iter().max().unwrap_or(&0);

    while !all_done(&done_at) && tick <= tick_limit {
        consume(
            &mut needs,
            &mut remaining,
            &mut done_at,
            &mut next_seq,
            &resident,
            &mut last_used,
            arrivals,
            policy,
            tick,
        );
        if all_done(&done_at) {
            break;
        }

        // choose the chunk to load this tick
        let choice: Option<usize> = match policy {
            ScanPolicy::Lru => {
                // serve the active queries round-robin: the next miss wins
                let mut pick = None;
                for k in 0..q {
                    let i = (rr + k) % q;
                    if active(&done_at, arrivals, i, tick) && next_seq[i] < npages {
                        pick = Some(next_seq[i]);
                        rr = (i + 1) % q;
                        break;
                    }
                }
                pick
            }
            ScanPolicy::Cooperative => {
                // relevance: the chunk needed by the most active queries
                // (ties broken toward lower chunk id for determinism)
                let mut best: Option<(usize, usize)> = None;
                for c in 0..npages {
                    if where_is[c] != usize::MAX {
                        continue;
                    }
                    let rel = (0..q)
                        .filter(|&i| active(&done_at, arrivals, i, tick) && needs[i][c])
                        .count();
                    if rel > 0 && best.is_none_or(|(_, b)| rel > b) {
                        best = Some((c, rel));
                    }
                }
                best.map(|(c, _)| c)
            }
        };

        if let Some(chunk) = choice {
            if where_is[chunk] == usize::MAX {
                disk_reads += 1;
                // place into a frame
                let frame = if resident.len() < bufpages {
                    resident.push(None);
                    last_used.push(tick);
                    resident.len() - 1
                } else {
                    // evict: LRU regime uses last_used; cooperative evicts
                    // the chunk with the lowest remaining relevance
                    match policy {
                        ScanPolicy::Lru => {
                            (0..resident.len()).min_by_key(|&f| last_used[f]).unwrap()
                        }
                        ScanPolicy::Cooperative => (0..resident.len())
                            .min_by_key(|&f| {
                                let c = resident[f].unwrap();
                                (0..q)
                                    .filter(|&i| active(&done_at, arrivals, i, tick) && needs[i][c])
                                    .count()
                            })
                            .unwrap(),
                    }
                };
                if let Some(old) = resident[frame] {
                    where_is[old] = usize::MAX;
                }
                resident[frame] = Some(chunk);
                where_is[chunk] = frame;
                last_used[frame] = tick;
            }
        }
        tick += 1;
    }
    // final consumption pass
    consume(
        &mut needs,
        &mut remaining,
        &mut done_at,
        &mut next_seq,
        &resident,
        &mut last_used,
        arrivals,
        policy,
        tick,
    );

    let completion: Vec<u64> = done_at.iter().map(|d| d.unwrap_or(tick)).collect();
    let avg = completion.iter().sum::<u64>() as f64 / completion.len().max(1) as f64;
    ScanReport {
        disk_reads,
        makespan: completion.iter().copied().max().unwrap_or(0),
        avg_completion: avg,
        completion,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_query_costs_one_pass_either_way() {
        for policy in [ScanPolicy::Lru, ScanPolicy::Cooperative] {
            let r = simulate_scans(100, 10, &[0], policy);
            assert_eq!(r.disk_reads, 100, "{policy:?}");
            assert_eq!(r.completion.len(), 1);
        }
    }

    #[test]
    fn concurrent_scans_cooperate() {
        // 8 staggered scans (the realistic case: queries arrive over time),
        // buffer is 1/8 of the table. Under LRU each query insists on its
        // own position and they evict each other; under the cooperative
        // regime arrivals attach to the ongoing pass.
        let arrivals: Vec<u64> = (0..8).map(|i| i * 30).collect();
        let lru = simulate_scans(256, 32, &arrivals, ScanPolicy::Lru);
        let coop = simulate_scans(256, 32, &arrivals, ScanPolicy::Cooperative);
        assert!(
            lru.disk_reads >= 2 * coop.disk_reads,
            "lru {} vs coop {}",
            lru.disk_reads,
            coop.disk_reads
        );
        assert!(coop.makespan <= lru.makespan);
    }

    #[test]
    fn in_sync_scans_share_even_under_lru() {
        // identical arrival + round-robin service keeps LRU queries in
        // lockstep, so sharing happens by accident; cooperative is never
        // worse
        let arrivals = vec![0u64; 2];
        let lru = simulate_scans(64, 32, &arrivals, ScanPolicy::Lru);
        let coop = simulate_scans(64, 32, &arrivals, ScanPolicy::Cooperative);
        assert!(coop.disk_reads <= lru.disk_reads);
    }

    #[test]
    fn staggered_arrivals_attach_mid_scan() {
        // the second query arrives when the first is half done; under the
        // cooperative regime it attaches to the ongoing pass and only the
        // chunks the first pass already consumed need re-reading
        let coop = simulate_scans(100, 10, &[0, 50], ScanPolicy::Cooperative);
        assert!(
            coop.disk_reads < 180,
            "shared tail should save reads: {}",
            coop.disk_reads
        );
        let lru = simulate_scans(100, 10, &[0, 50], ScanPolicy::Lru);
        assert!(coop.disk_reads <= lru.disk_reads);
    }

    #[test]
    fn all_queries_complete() {
        for policy in [ScanPolicy::Lru, ScanPolicy::Cooperative] {
            let r = simulate_scans(40, 4, &[0, 3, 9, 27], policy);
            assert_eq!(r.completion.len(), 4);
            assert!(r.makespan > 0);
            // every query saw every page
            assert!(r.disk_reads >= 40);
        }
    }
}

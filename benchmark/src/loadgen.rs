//! Open- and closed-loop request generators over a fixed set of connections.
//!
//! Every request has a due time. A connection that is free takes the next
//! request in due order, waits until it is due, sends it, and waits for the
//! answer. Latency is measured from the due time, not from the send time,
//! so a stall delays — and is charged to — every request queued behind it
//! (no coordinated omission). How late each request was sent is recorded
//! as well, which shows how far the generator fell behind its schedule.
//!
//! A closed loop is the same generator with every request due at time zero:
//! each connection sends its next request as soon as the previous answer
//! arrives.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use trigon_graph::Xoshiro256pp;

/// One request's timeline, in seconds from the start of the phase.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub due_s: f64,
    pub sent_s: f64,
    pub done_s: f64,
    pub ok: bool,
}

impl Sample {
    /// Latency from the due time; infinite for a failed request, which
    /// counts as beyond any limit.
    pub fn latency_s(&self) -> f64 {
        if self.ok {
            self.done_s - self.due_s
        } else {
            f64::INFINITY
        }
    }

    /// How late the request was sent.
    pub fn late_s(&self) -> f64 {
        self.sent_s - self.due_s
    }
}

/// Due times of `n` Poisson arrivals at `rate_per_s`, starting at zero.
pub fn poisson_schedule(rate_per_s: f64, n: usize, rng: &mut Xoshiro256pp) -> Vec<f64> {
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            let due = t;
            // Inverse-CDF exponential gap; 1 - u is in (0, 1].
            t += -(1.0 - rng.next_f64()).ln() / rate_per_s;
            due
        })
        .collect()
}

/// Drives requests `0..dues.len()` over `conns` (one thread each).
/// `call(conn, i)` performs request `i` and returns whether it succeeded.
/// Returns the samples in request order.
pub fn drive<C, F>(conns: &mut [C], dues: &[f64], call: F) -> Vec<Sample>
where
    C: Send,
    F: Fn(&mut C, usize) -> bool + Sync,
{
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(vec![None; dues.len()]);
    let start = Instant::now();
    std::thread::scope(|s| {
        for conn in conns.iter_mut() {
            let (next, samples, call) = (&next, &samples, &call);
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&due_s) = dues.get(i) else { break };
                let now = start.elapsed().as_secs_f64();
                if due_s > now {
                    std::thread::sleep(Duration::from_secs_f64(due_s - now));
                }
                let sent_s = start.elapsed().as_secs_f64();
                let ok = call(conn, i);
                let done_s = start.elapsed().as_secs_f64();
                samples.lock().expect("no sample writer panics")[i] = Some(Sample {
                    due_s,
                    sent_s,
                    done_s,
                    ok,
                });
            });
        }
    });
    samples
        .into_inner()
        .expect("no sample writer panics")
        .into_iter()
        .map(|s| s.expect("every request index is taken exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::quantile;

    /// A one-connection stub server: each request takes 1 ms, except
    /// request `STALL_AT`, which stalls for 150 ms.
    const STALL_AT: usize = 10;
    const STALL_S: f64 = 0.150;
    const GAP_S: f64 = 0.010;

    fn stub(_: &mut (), i: usize) -> bool {
        let d = if i == STALL_AT { STALL_S } else { 0.001 };
        std::thread::sleep(Duration::from_secs_f64(d));
        true
    }

    #[test]
    fn a_stall_is_charged_to_every_request_queued_behind_it() {
        let dues: Vec<f64> = (0..40).map(|i| i as f64 * GAP_S).collect();
        let samples = drive(&mut [()], &dues, stub);
        let stall_end = samples[STALL_AT].done_s;
        let queued: Vec<&Sample> = samples
            .iter()
            .filter(|s| s.due_s > samples[STALL_AT].due_s && s.due_s < stall_end)
            .collect();
        assert!(queued.len() >= 10, "{} requests queued", queued.len());
        for s in &queued {
            // Service took ~1 ms, but each request waited for the stall:
            // its latency runs from its due time to after the stall.
            assert!(s.done_s >= stall_end);
            assert!(s.latency_s() >= stall_end - s.due_s);
            assert!(s.late_s() >= stall_end - s.due_s - 1e-3);
            // Timing from the send instead would have hidden the stall.
            assert!(s.done_s - s.sent_s < STALL_S / 2.0);
        }
        let late: Vec<f64> = samples.iter().map(Sample::late_s).collect();
        assert!(quantile(&late, 0.99) > 0.1);
        // Requests due well after the stall are on schedule again.
        let last = samples.last().unwrap();
        assert!(last.latency_s() < STALL_S / 2.0, "{last:?}");
    }

    #[test]
    fn failures_count_beyond_any_limit_and_schedule_is_seeded() {
        let dues = vec![0.0; 4];
        let samples = drive(&mut [(), ()], &dues, |_, i| i != 2);
        assert_eq!(samples[2].latency_s(), f64::INFINITY);
        assert!(samples[3].latency_s().is_finite());
        let a = poisson_schedule(50.0, 100, &mut Xoshiro256pp::seed_from_u64(3));
        let b = poisson_schedule(50.0, 100, &mut Xoshiro256pp::seed_from_u64(3));
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        let mean_gap = a[99] / 99.0;
        assert!((0.01..0.04).contains(&mean_gap), "{mean_gap}");
    }
}

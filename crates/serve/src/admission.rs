//! Capacity-gated admission (§IV, Eqs. 1–2) and the bounded request
//! queue.
//!
//! Before a query dispatches, the controller checks the paper's S-UTM
//! capacity inequality `n(n−1)/2 ≤ S` against the primary device's
//! global memory. A graph that fits is **admitted** to the device; one
//! that does not is **routed** to the fleet roster when its pooled
//! global memory holds it ([`trigon_core::table2_fleet`]); otherwise
//! the query is **rejected** with [`Error::GraphTooLarge`] (CLI exit
//! 5) before any layout or transfer is attempted.
//!
//! Separately, [`Queue`] bounds how much work the daemon takes on: a
//! fixed number of execution slots plus a bounded wait line. A request
//! that finds the line full is refused immediately ("server busy"), a
//! queued one records how long it waited — the `queue_wait_s` field of
//! the report's serving section.

use std::sync::{Condvar, Mutex, PoisonError};
use std::time::Instant;

use crate::lock;
use trigon_core::capacity::{fits, max_graph_sutm, StorageModel};
use trigon_core::Error;
use trigon_fleet::FleetSpec;
use trigon_gpu_sim::DeviceSpec;

/// Where an admitted query will execute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The graph fits the primary device (Eq. 2); run there.
    Admit,
    /// The device rejected it but the fleet's pooled capacity holds it;
    /// run on the roster.
    Route,
}

impl Verdict {
    /// The serving-section label.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Verdict::Admit => "admit",
            Verdict::Route => "route",
        }
    }
}

/// The admission controller: a primary device and an optional
/// overflow fleet.
#[derive(Debug, Clone)]
pub struct Policy {
    /// Primary device queries are admitted to.
    pub device: DeviceSpec,
    /// Overflow roster for graphs the device cannot hold.
    pub fleet: Option<FleetSpec>,
}

impl Policy {
    /// Admits, routes, or rejects an `n`-vertex graph under the S-UTM
    /// packing. CPU-only methods bypass the gate (`uses_device =
    /// false`): host memory is not the resource Eqs. 1–2 budget.
    ///
    /// Returns the verdict and the target label (device name, fleet
    /// spec, or `"cpu"`).
    ///
    /// # Errors
    ///
    /// [`Error::GraphTooLarge`] when neither the device nor the fleet
    /// can hold the graph; `needed`/`capacity` are the Eq. 2 sizes in
    /// bytes.
    pub fn admit(&self, n: u32, uses_device: bool) -> Result<(Verdict, String), Error> {
        if !uses_device {
            return Ok((Verdict::Admit, "cpu".to_string()));
        }
        let n = u64::from(n);
        if fits(n, self.device.global_mem_bits(), StorageModel::SUtm) {
            return Ok((Verdict::Admit, self.device.name.to_string()));
        }
        if let Some(fleet) = &self.fleet {
            let pooled: u128 = fleet
                .devices()
                .iter()
                .map(DeviceSpec::global_mem_bits)
                .sum();
            if fits(n, pooled, StorageModel::SUtm) {
                return Ok((Verdict::Route, fleet.to_string()));
            }
        }
        let best_bits: u128 = self.fleet.as_ref().map_or_else(
            || self.device.global_mem_bits(),
            |f| f.devices().iter().map(DeviceSpec::global_mem_bits).sum(),
        );
        Err(Error::GraphTooLarge {
            needed: bits_to_bytes(StorageModel::SUtm.size_bits(n)),
            capacity: bits_to_bytes(best_bits),
        })
    }

    /// The largest admissible `n` (Eq. 2 inverted): the fleet's pooled
    /// S-UTM capacity when a roster is configured, else the device's.
    #[must_use]
    pub fn max_n(&self) -> u64 {
        let bits: u128 = self.fleet.as_ref().map_or_else(
            || self.device.global_mem_bits(),
            |f| f.devices().iter().map(DeviceSpec::global_mem_bits).sum(),
        );
        max_graph_sutm(bits)
    }
}

fn bits_to_bytes(bits: u128) -> u64 {
    u64::try_from(bits.div_ceil(8)).unwrap_or(u64::MAX)
}

/// A bounded admission queue: `slots` requests execute concurrently,
/// up to `depth` more wait, anything beyond is refused immediately.
#[derive(Debug)]
pub struct Queue {
    slots: usize,
    depth: usize,
    state: Mutex<QueueState>,
    cv: Condvar,
}

#[derive(Debug, Default)]
struct QueueState {
    running: usize,
    waiting: usize,
}

/// An execution slot held for the duration of one request; dropping it
/// frees the slot and wakes a waiter.
#[derive(Debug)]
pub struct Permit<'q> {
    queue: &'q Queue,
    /// Seconds this request spent waiting for its slot.
    pub wait_s: f64,
}

impl Queue {
    /// A queue with `slots` concurrent executions and a wait line of
    /// `depth` (both clamped to at least 1 slot / 0 depth).
    #[must_use]
    pub fn new(slots: usize, depth: usize) -> Self {
        Self {
            slots: slots.max(1),
            depth,
            state: Mutex::new(QueueState::default()),
            cv: Condvar::new(),
        }
    }

    /// Takes an execution slot, waiting in line if all are busy.
    ///
    /// # Errors
    ///
    /// [`Error::BadConfig`] ("server busy", CLI exit 2) when the wait
    /// line is already at depth.
    pub fn acquire(&self) -> Result<Permit<'_>, Error> {
        let started = Instant::now();
        let mut st = lock(&self.state);
        if st.running < self.slots && st.waiting == 0 {
            st.running += 1;
            return Ok(Permit {
                queue: self,
                wait_s: 0.0,
            });
        }
        if st.waiting >= self.depth {
            return Err(Error::bad_config(format!(
                "server busy: {} running, {} waiting (queue depth {})",
                st.running, st.waiting, self.depth
            )));
        }
        st.waiting += 1;
        while st.running >= self.slots {
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        st.waiting -= 1;
        st.running += 1;
        Ok(Permit {
            queue: self,
            wait_s: started.elapsed().as_secs_f64(),
        })
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut st = lock(&self.queue.state);
        st.running -= 1;
        drop(st);
        self.queue.cv.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy(fleet: Option<&str>) -> Policy {
        Policy {
            device: DeviceSpec::c2050(),
            fleet: fleet.map(|s| FleetSpec::parse(s).unwrap()),
        }
    }

    #[test]
    fn cpu_methods_bypass_the_gate() {
        let (v, t) = policy(None).admit(u32::MAX, false).unwrap();
        assert_eq!(v, Verdict::Admit);
        assert_eq!(t, "cpu");
    }

    #[test]
    fn table2_boundaries_admit_route_reject() {
        // C2050 global S-UTM capacity is exactly 227,023 (Table II);
        // 2xC2050 pools to the C2070 column, 321,060.
        let p = policy(Some("2xC2050"));
        let (v, t) = p.admit(227_023, true).unwrap();
        assert_eq!((v, t.as_str()), (Verdict::Admit, "C2050"));
        let (v, t) = p.admit(227_024, true).unwrap();
        assert_eq!((v, t.as_str()), (Verdict::Route, "2xC2050"));
        let (v, _) = p.admit(321_060, true).unwrap();
        assert_eq!(v, Verdict::Route);
        let err = p.admit(321_061, true).unwrap_err();
        match err {
            Error::GraphTooLarge { needed, capacity } => assert!(needed > capacity),
            other => panic!("wrong error: {other:?}"),
        }
        assert_eq!(p.max_n(), 321_060);
    }

    #[test]
    fn no_fleet_rejects_at_device_capacity() {
        let p = policy(None);
        assert!(p.admit(227_023, true).is_ok());
        assert!(matches!(
            p.admit(227_024, true),
            Err(Error::GraphTooLarge { .. })
        ));
        assert_eq!(p.max_n(), 227_023);
    }

    #[test]
    fn queue_admits_up_to_slots_then_refuses_past_depth() {
        let q = Queue::new(2, 1);
        let p1 = q.acquire().unwrap();
        let p2 = q.acquire().unwrap();
        assert_eq!(p1.wait_s, 0.0);
        // Slots are full; the wait line holds one. Simulate the waiter
        // being present by checking refusal logic from another thread.
        std::thread::scope(|s| {
            let waiter = s.spawn(|| q.acquire().map(|p| p.wait_s));
            // Give the waiter time to enter the line, then the next
            // arrival must be refused.
            while q.state.lock().unwrap().waiting == 0 {
                std::thread::yield_now();
            }
            assert!(q.acquire().is_err(), "line is at depth");
            drop(p1);
            let wait_s = waiter.join().unwrap().unwrap();
            assert!(wait_s >= 0.0);
        });
        drop(p2);
        // Everything drained; a fresh request is immediate again.
        assert_eq!(q.acquire().unwrap().wait_s, 0.0);
    }
}

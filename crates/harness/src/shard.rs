//! Job leasing of an [`Experiment`](crate::Experiment)'s job list.
//!
//! A [`JobQueue`] is how the distributed runner (`sfence-dist`)
//! splits a sweep across processes and hosts: jobs are *leased* to
//! named workers with a deadline, completed with a payload, and
//! re-leased when their worker dies (disconnect) or goes silent
//! (lease expiry). Every engine is deterministic, so a job completed
//! twice — by a presumed-dead worker that came back and by its
//! replacement — carries the same payload; the queue keeps the first
//! and ignores the duplicate. Workers run a leased index set through
//! [`RunOptions::jobs`](crate::RunOptions::jobs) and the coordinator
//! merges the payloads in job order, byte-identical to a
//! single-process `run_parallel()`.

use crate::json::{FromJson, Json};

/// The lifecycle of one job in a [`JobQueue`].
#[derive(Debug, Clone, PartialEq)]
enum JobState<T> {
    /// Nobody is working on it.
    Pending,
    /// Leased to `worker` until `deadline_ms` (caller-supplied clock,
    /// e.g. milliseconds since the coordinator started).
    Leased { worker: String, deadline_ms: u64 },
    /// Finished, payload in hand.
    Done(T),
}

/// A lease-tracking job table: the coordinator half of the
/// distributed lease/merge protocol, kept free of any networking so
/// the leasing semantics are unit-testable.
///
/// Time is an opaque caller-supplied monotonic millisecond counter —
/// the queue never reads a clock, so expiry behavior is deterministic
/// under test.
#[derive(Debug)]
pub struct JobQueue<T> {
    slots: Vec<JobState<T>>,
    done: usize,
    /// Every slot below this index is non-pending, so [`JobQueue::lease`]
    /// scans from here instead of from zero — amortized O(lease size)
    /// over a campaign rather than O(jobs) per call. Releases rewind
    /// it.
    scan_from: usize,
    /// Jobs each worker has leased — *hints*, possibly stale (a job
    /// may have completed or expired since), verified against the
    /// slot before use. They make the per-heartbeat and per-release
    /// work proportional to that worker's leases instead of the whole
    /// job list; the slots stay the single source of truth.
    by_worker: std::collections::HashMap<String, Vec<usize>>,
}

impl<T> JobQueue<T> {
    pub fn new(job_count: usize) -> JobQueue<T> {
        JobQueue {
            slots: (0..job_count).map(|_| JobState::Pending).collect(),
            done: 0,
            scan_from: 0,
            by_worker: std::collections::HashMap::new(),
        }
    }

    /// Total number of jobs.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Jobs completed so far.
    pub fn done(&self) -> usize {
        self.done
    }

    /// Jobs neither done nor currently leased.
    pub fn pending(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| matches!(s, JobState::Pending))
            .count()
    }

    /// Jobs currently leased to some worker (not yet done, not
    /// pending).
    pub fn leased(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| matches!(s, JobState::Leased { .. }))
            .count()
    }

    /// Completed jobs in index order, payloads borrowed.
    pub fn done_payloads(&self) -> impl Iterator<Item = (usize, &T)> {
        self.slots.iter().enumerate().filter_map(|(i, s)| match s {
            JobState::Done(payload) => Some((i, payload)),
            _ => None,
        })
    }

    /// Every job has a payload.
    pub fn is_complete(&self) -> bool {
        self.done == self.slots.len()
    }

    /// Lease up to `max` pending jobs (lowest indices first) to
    /// `worker`, with a deadline of `now_ms + ttl_ms`. Returns the
    /// leased indices — empty when nothing is pending (everything is
    /// done or leased to someone else).
    pub fn lease(&mut self, worker: &str, max: usize, now_ms: u64, ttl_ms: u64) -> Vec<usize> {
        let mut leased = Vec::new();
        let mut i = self.scan_from;
        while i < self.slots.len() && leased.len() < max {
            if matches!(self.slots[i], JobState::Pending) {
                self.slots[i] = JobState::Leased {
                    worker: worker.to_string(),
                    deadline_ms: now_ms.saturating_add(ttl_ms),
                };
                leased.push(i);
            }
            i += 1;
        }
        // Everything in [scan_from, i) is now non-pending: either it
        // already was, or this call just leased it.
        self.scan_from = i;
        if !leased.is_empty() {
            self.by_worker
                .entry(worker.to_string())
                .or_default()
                .extend(&leased);
        }
        leased
    }

    /// Push every lease held by `worker` out to `now_ms + ttl_ms` —
    /// the coordinator calls this on each heartbeat, so a worker that
    /// is alive but slow never loses its jobs. Also compacts the
    /// worker's lease hints, so the per-heartbeat cost tracks its
    /// *current* leases.
    pub fn heartbeat(&mut self, worker: &str, now_ms: u64, ttl_ms: u64) {
        let Some(jobs) = self.by_worker.get_mut(worker) else {
            return;
        };
        let slots = &mut self.slots;
        jobs.retain(|&i| match &mut slots[i] {
            JobState::Leased {
                worker: w,
                deadline_ms,
            } if w == worker => {
                *deadline_ms = now_ms.saturating_add(ttl_ms);
                true
            }
            // Stale hint (completed, expired, or re-leased elsewhere).
            _ => false,
        });
    }

    /// Record `job` as done. Returns `Ok(true)` if this was the first
    /// completion, `Ok(false)` for a duplicate (the payload already in
    /// hand is kept — engines are deterministic, so both are
    /// identical), and `Err` for an out-of-range index (a corrupt or
    /// hostile worker; the caller should drop that connection).
    pub fn complete(&mut self, job: usize, payload: T) -> Result<bool, String> {
        match self.slots.get_mut(job) {
            None => Err(format!(
                "job index {job} out of range ({} jobs)",
                self.slots.len()
            )),
            Some(slot @ (JobState::Pending | JobState::Leased { .. })) => {
                *slot = JobState::Done(payload);
                self.done += 1;
                Ok(true)
            }
            Some(JobState::Done(_)) => Ok(false),
        }
    }

    /// Return every lease held by `worker` to the pending pool — the
    /// re-lease-on-death path when a connection drops. Returns how
    /// many jobs were released.
    pub fn release(&mut self, worker: &str) -> usize {
        let Some(jobs) = self.by_worker.remove(worker) else {
            return 0;
        };
        let mut released = 0;
        for i in jobs {
            if matches!(&self.slots[i], JobState::Leased { worker: w, .. } if w == worker) {
                self.slots[i] = JobState::Pending;
                self.scan_from = self.scan_from.min(i);
                released += 1;
            }
        }
        released
    }

    /// Return every lease whose deadline has passed to the pending
    /// pool — the re-lease path for workers that went silent without
    /// disconnecting. Returns how many jobs were released.
    pub fn expire(&mut self, now_ms: u64) -> usize {
        let mut released = 0;
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if matches!(slot, JobState::Leased { deadline_ms, .. } if *deadline_ms < now_ms) {
                *slot = JobState::Pending;
                self.scan_from = self.scan_from.min(i);
                released += 1;
            }
        }
        released
    }

    /// Serialize the queue for a coordinator checkpoint: total job
    /// count, every completed job's payload, and the indices currently
    /// leased. Leases are bound to live connections, so
    /// [`JobQueue::from_json`] reloads them as *pending* — the leased
    /// list is recorded for observability (how much in-flight work a
    /// crash would re-run), not replayed.
    pub fn to_json(&self, payload: impl Fn(&T) -> Json) -> Json {
        let mut done = Vec::new();
        let mut leased = Vec::new();
        for (i, slot) in self.slots.iter().enumerate() {
            match slot {
                JobState::Done(p) => done.push(Json::Arr(vec![Json::from(i), payload(p)])),
                JobState::Leased { .. } => leased.push(Json::from(i)),
                JobState::Pending => {}
            }
        }
        Json::obj()
            .field("jobs", self.slots.len())
            .field("done", Json::Arr(done))
            .field("leased", Json::Arr(leased))
    }

    /// Rebuild a queue from [`JobQueue::to_json`] output. Completed
    /// jobs keep their payloads; everything else (including
    /// previously-leased jobs, whose workers did not survive the
    /// round-trip) comes back pending. Out-of-range or duplicated done
    /// indices are a corrupt snapshot and error out.
    pub fn from_json(
        doc: &Json,
        payload: impl Fn(&Json) -> Result<T, String>,
    ) -> Result<JobQueue<T>, String> {
        let mut queue = JobQueue::new(doc.req("jobs").map_err(|e| format!("queue: {e}"))?);
        for entry in doc
            .req::<Vec<&Json>>("done")
            .map_err(|e| format!("queue: {e}"))?
        {
            let [index, row] = entry.as_arr().unwrap_or_default() else {
                return Err("queue: done entry is not an [index, payload] pair".into());
            };
            let index = usize::from_json(index).map_err(|e| format!("queue: done index: {e}"))?;
            match queue.complete(index, payload(row)?) {
                Ok(true) => {}
                Ok(false) => return Err(format!("queue: done index {index} appears twice")),
                Err(e) => return Err(format!("queue: {e}")),
            }
        }
        Ok(queue)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lease_complete_release_expire() {
        let mut q: JobQueue<&str> = JobQueue::new(5);
        assert_eq!(q.len(), 5);
        assert!(!q.is_complete());

        // Leases hand out the lowest pending indices first.
        assert_eq!(q.lease("a", 2, 0, 100), vec![0, 1]);
        assert_eq!(q.lease("b", 10, 0, 100), vec![2, 3, 4]);
        // Nothing pending: an empty lease, not an error.
        assert!(q.lease("c", 1, 0, 100).is_empty());
        assert_eq!(q.pending(), 0);

        // Worker b finishes its jobs.
        for job in [2, 3, 4] {
            assert_eq!(q.complete(job, "row"), Ok(true));
        }
        assert_eq!(q.done(), 3);

        // Worker a disconnects: its leases return to the pool and a
        // replacement picks them up.
        assert_eq!(q.release("a"), 2);
        assert_eq!(q.lease("c", 10, 50, 100), vec![0, 1]);

        // A duplicate completion (the presumed-dead worker came back)
        // is ignored, not double-counted.
        assert_eq!(q.complete(2, "again"), Ok(false));
        assert_eq!(q.done(), 3);

        assert_eq!(q.complete(0, "row"), Ok(true));
        assert_eq!(q.complete(1, "row"), Ok(true));
        assert!(q.is_complete());
        assert_eq!(q.done_payloads().count(), 5);
    }

    #[test]
    fn expiry_frees_only_overdue_leases() {
        let mut q: JobQueue<()> = JobQueue::new(3);
        q.lease("slow", 1, 0, 100); // deadline 100
        q.lease("live", 2, 0, 1000); // deadline 1000
        assert_eq!(q.expire(50), 0);
        assert_eq!(q.expire(200), 1); // only "slow" is overdue
        assert_eq!(q.lease("replacement", 10, 200, 100), vec![0]);
        q.complete(0, ()).unwrap();
        // Heartbeats push the live worker's deadlines out past what
        // would otherwise expire them.
        q.heartbeat("live", 500, 1000);
        assert_eq!(q.expire(1200), 0);
        assert_eq!(q.expire(2000), 2);
    }

    #[test]
    fn lease_cursor_skips_settled_prefixes_but_rewinds_on_release() {
        let mut q: JobQueue<u8> = JobQueue::new(6);
        // Drain the front of the queue in small leases: each lease
        // resumes where the previous one stopped.
        assert_eq!(q.lease("a", 2, 0, 100), vec![0, 1]);
        assert_eq!(q.lease("b", 2, 0, 100), vec![2, 3]);
        assert_eq!(q.lease("c", 10, 0, 100), vec![4, 5]);
        assert!(q.lease("d", 1, 0, 100).is_empty());
        // A release in the middle must be visible to the next lease
        // even though the cursor had moved past it.
        assert_eq!(q.release("b"), 2);
        assert_eq!(q.lease("d", 10, 0, 100), vec![2, 3]);
        // Same for expiry-driven releases.
        q.complete(0, 0).unwrap();
        q.complete(1, 0).unwrap();
        q.heartbeat("c", 0, 100);
        q.heartbeat("d", 1000, 100);
        assert_eq!(q.expire(500), 2); // c's 4 and 5
        assert_eq!(q.lease("e", 10, 500, 100), vec![4, 5]);
    }

    #[test]
    fn bad_indices_and_incomplete_queues_error() {
        let mut q: JobQueue<u32> = JobQueue::new(2);
        assert!(q.complete(7, 0).is_err());
        q.complete(0, 1).unwrap();
        assert!(!q.is_complete());
        assert_eq!(q.done_payloads().collect::<Vec<_>>(), [(0, &1)]);
    }

    #[test]
    fn queue_serialization_round_trips_and_reloads_leases_as_pending() {
        let mut q: JobQueue<u64> = JobQueue::new(5);
        q.lease("a", 2, 0, 100); // 0, 1 leased
        q.complete(3, 33).unwrap();
        q.complete(4, 44).unwrap();
        assert_eq!((q.done(), q.leased(), q.pending()), (2, 2, 1));
        assert_eq!(q.done_payloads().collect::<Vec<_>>(), [(3, &33), (4, &44)]);

        let doc = q.to_json(|&v| Json::from(v));
        let back: JobQueue<u64> =
            JobQueue::from_json(&doc, |j| j.as_u64().ok_or("bad payload".into())).unwrap();
        // Done payloads survive; the leased jobs come back pending
        // (their worker connections did not survive the round-trip).
        assert_eq!(back.done(), 2);
        assert_eq!(back.leased(), 0);
        assert_eq!(back.pending(), 3);
        assert_eq!(
            back.done_payloads().collect::<Vec<_>>(),
            [(3, &33), (4, &44)]
        );

        // The reloaded queue leases the previously-leased jobs afresh.
        let mut back = back;
        assert_eq!(back.lease("b", 10, 0, 100), vec![0, 1, 2]);
    }

    #[test]
    fn corrupt_queue_snapshots_error() {
        use crate::json;
        let payload = |j: &Json| j.as_u64().ok_or_else(|| "bad payload".to_string());
        let parse = |text: &str| {
            JobQueue::<u64>::from_json(&json::parse(text).unwrap(), payload)
                .expect_err("corrupt snapshot must error")
        };
        assert!(parse(r#"{"done":[],"leased":[]}"#).contains("jobs"));
        assert!(parse(r#"{"jobs":2,"done":[[7,1]],"leased":[]}"#).contains("out of range"));
        assert!(parse(r#"{"jobs":2,"done":[[0,1],[0,2]],"leased":[]}"#).contains("twice"));
        assert!(parse(r#"{"jobs":2,"done":[[0]],"leased":[]}"#).contains("pair"));
    }
}

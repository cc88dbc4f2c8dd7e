//! The simulated host pipeline under both checkpoint directions (§4.4).
//!
//! A checkpoint writes as parallel per-host shards and a restore reads the
//! same way. Both directions run the same skeleton, defined here once; the
//! direction supplies only its per-chunk work ([`HostWork`]):
//!
//! * **Fan-out.** Per-host jobs run on at most `workers` threads, and each
//!   host splits `max(1, workers / hosts)` threads over its own chunks — so
//!   a single-host pass still uses every worker.
//! * **Assignment-order I/O.** Within a host, the CPU step of each chunk
//!   (quantize + encode, or decode + de-quantize) runs in parallel, but the
//!   simulated I/O step (upload, or ranged fetch) waits for the previous
//!   chunk's I/O on that host ([`Turn`]). The simulated schedule is thus
//!   the same on one thread as on many, and from run to run.
//! * **Host death.** A host with a kill injected runs sequentially, dies on
//!   chunk `k` (the direction's [`HostWork::die`]) and hands chunks `k..`
//!   back; they are dealt round-robin onto the surviving hosts and run
//!   there in a second pass.
//! * **In-flight window.** [`Window`] bounds how many parts each host may
//!   have in flight in simulated time; the upload and fetch schedulers
//!   both keep one.

use crate::error::{CnrError, Result};
use cnr_cluster::HostKill;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// One direction's per-chunk work on a simulated host.
pub(crate) trait HostWork: Sync {
    /// A planned chunk.
    type Item: Send;
    /// What finishing a chunk produces.
    type Output: Send;

    /// Runs `item` on `host`. The item's simulated I/O step must run
    /// inside [`Turn::io`]; its CPU steps run outside it.
    fn run_one(&self, host: u16, item: &Self::Item, turn: Turn<'_>) -> Result<Self::Output>;

    /// Simulates `host` dying partway through the I/O of `item`.
    fn die(&self, host: u16, item: &Self::Item) -> Result<()>;
}

/// Everything a pass over all hosts produced.
pub(crate) struct HostRun<O> {
    /// Each host's outputs in assignment order: the first-pass hosts by
    /// id, then the survivors that adopted leftovers, by id.
    pub outputs: Vec<(u16, Vec<O>)>,
    /// Hosts that died in the first pass.
    pub killed: Vec<u16>,
    /// Chunks re-sharded from dead hosts onto survivors.
    pub rescheduled: usize,
}

/// What one host's share produced.
struct HostOutcome<I, O> {
    host: u16,
    outputs: Vec<O>,
    /// Items a dead host never finished, the one it died on first; empty
    /// for a host that lived.
    leftover: Vec<I>,
}

/// Runs `jobs` (host `h` owns `jobs[h]`) on `workers` threads, killing the
/// host named by `kill`, then re-shards every dead host's leftovers
/// round-robin onto the survivors and runs them there. `adopt` sees each
/// re-sharded item with its adopter, in dealing order, before it runs.
pub(crate) fn run<W: HostWork>(
    work: &W,
    workers: usize,
    jobs: Vec<Vec<W::Item>>,
    kill: Option<HostKill>,
    mut adopt: impl FnMut(u16, &mut W::Item),
) -> Result<HostRun<W::Output>> {
    let hosts = jobs.len();
    let jobs = jobs
        .into_iter()
        .enumerate()
        .map(|(h, items)| (h as u16, items))
        .collect();
    let mut outcomes = one_pass(work, workers, jobs, kill)?;

    let killed: Vec<u16> = outcomes
        .iter()
        .filter(|o| !o.leftover.is_empty())
        .map(|o| o.host)
        .collect();
    let leftover: Vec<W::Item> = outcomes
        .iter_mut()
        .flat_map(|o| std::mem::take(&mut o.leftover))
        .collect();
    let rescheduled = leftover.len();
    if !leftover.is_empty() {
        let survivors: Vec<u16> = (0..hosts as u16).filter(|h| !killed.contains(h)).collect();
        if survivors.is_empty() {
            return Err(CnrError::Pipeline(
                "every host died before finishing its share".into(),
            ));
        }
        let mut rescue: Vec<(u16, Vec<W::Item>)> =
            survivors.iter().map(|&h| (h, Vec::new())).collect();
        for (i, mut item) in leftover.into_iter().enumerate() {
            let (adopter, items) = &mut rescue[i % survivors.len()];
            adopt(*adopter, &mut item);
            items.push(item);
        }
        rescue.retain(|(_, items)| !items.is_empty());
        outcomes.extend(one_pass(work, workers, rescue, None)?);
    }

    Ok(HostRun {
        outputs: outcomes.into_iter().map(|o| (o.host, o.outputs)).collect(),
        killed,
        rescheduled,
    })
}

/// One pass: every `(host, items)` job on at most `workers` threads.
fn one_pass<W: HostWork>(
    work: &W,
    workers: usize,
    jobs: Vec<(u16, Vec<W::Item>)>,
    kill: Option<HostKill>,
) -> Result<Vec<HostOutcome<W::Item, W::Output>>> {
    let threads_per_host = (workers / jobs.len().max(1)).max(1);
    fan_out(workers, jobs, |_, (host, items)| {
        let kill_after = kill.filter(|k| k.host == host).map(|k| k.after_chunks);
        run_host(work, host, items, kill_after, threads_per_host)
    })
    .into_iter()
    .collect()
}

/// Runs one host's `items` on up to `threads` threads. A kill forces the
/// sequential path, so the death point is deterministic.
fn run_host<W: HostWork>(
    work: &W,
    host: u16,
    items: Vec<W::Item>,
    kill_after: Option<u32>,
    threads: usize,
) -> Result<HostOutcome<W::Item, W::Output>> {
    let mut outcome = HostOutcome {
        host,
        outputs: Vec::with_capacity(items.len()),
        leftover: Vec::new(),
    };
    if kill_after.is_none() && threads > 1 && items.len() > 1 {
        let gate = Gate::default();
        outcome.outputs = fan_out(threads, items, |i, item| {
            work.run_one(host, &item, Turn(Some((&gate, i))))
        })
        .into_iter()
        .collect::<Result<_>>()?;
        return Ok(outcome);
    }
    let mut items = items.into_iter();
    while let Some(item) = items.next() {
        if kill_after == Some(outcome.outputs.len() as u32) {
            work.die(host, &item)?;
            outcome.leftover = std::iter::once(item).chain(items).collect();
            break;
        }
        outcome.outputs.push(work.run_one(host, &item, Turn(None))?);
    }
    Ok(outcome)
}

/// Runs `f(index, job)` over `jobs` on at most `threads` scoped threads,
/// handing jobs out in order, and returns the results in job order.
fn fan_out<J: Send, R: Send>(
    threads: usize,
    jobs: Vec<J>,
    f: impl Fn(usize, J) -> R + Sync,
) -> Vec<R> {
    let n = jobs.len();
    let queue = Mutex::new(jobs.into_iter().enumerate());
    let mut results: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.max(1).min(n))
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let next = queue.lock().unwrap().next();
                        let Some((i, job)) = next else { break };
                        done.push((i, f(i, job)));
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("host worker panicked"))
            .collect()
    });
    results.sort_by_key(|(i, _)| *i);
    results.into_iter().map(|(_, r)| r).collect()
}

/// A host's I/O turn counter: the index of the next item allowed to issue.
#[derive(Default)]
struct Gate {
    next: Mutex<usize>,
    advanced: Condvar,
}

impl Gate {
    fn wait_for(&self, index: usize) {
        let mut next = self.next.lock().unwrap();
        while *next != index {
            next = self.advanced.wait(next).unwrap();
        }
    }

    fn advance(&self) {
        *self.next.lock().unwrap() += 1;
        self.advanced.notify_all();
    }
}

/// One item's place in its host's I/O order. The sequential path holds
/// every turn already. Dropping a turn passes it on, whether or not its
/// I/O ran (an item can fail before reaching it).
pub(crate) struct Turn<'a>(Option<(&'a Gate, usize)>);

impl Turn<'_> {
    /// Runs the item's simulated I/O once every earlier item on the host
    /// has run its own.
    pub(crate) fn io<T>(self, f: impl FnOnce() -> T) -> T {
        if let Some((gate, index)) = self.0 {
            gate.wait_for(index);
        }
        f()
    }
}

impl Drop for Turn<'_> {
    fn drop(&mut self) {
        if let Some((gate, index)) = self.0 {
            gate.wait_for(index);
            gate.advance();
        }
    }
}

/// Per-host in-flight windows in simulated time: part `n` on a host may not
/// start before part `n − limit` on it has finished, nor before the floor.
pub(crate) struct Window {
    /// Completion times of in-flight parts, one min-heap per host.
    heaps: Vec<BinaryHeap<Reverse<Duration>>>,
    limit: usize,
    /// No part may start before this simulated instant.
    pub floor: Duration,
    /// Latest completion recorded (the durability or ready point).
    pub done_at: Duration,
    /// Parts recorded.
    pub parts: u64,
    /// Parts whose start a full window delayed.
    pub stalls: u64,
}

impl Window {
    /// Windows of `limit` parts for `hosts` hosts, floored at `floor`.
    pub fn new(hosts: usize, limit: usize, floor: Duration) -> Self {
        assert!(hosts >= 1 && limit >= 1);
        Self {
            heaps: (0..hosts).map(|_| BinaryHeap::new()).collect(),
            limit,
            floor,
            done_at: floor,
            parts: 0,
            stalls: 0,
        }
    }

    /// Admits the next part on `host`: the earliest simulated time it may
    /// start. With a full window that is the completion of the oldest
    /// in-flight part (backpressure), never earlier than the floor.
    pub fn admit(&mut self, host: usize) -> Duration {
        if self.heaps[host].len() >= self.limit {
            let Reverse(earliest) = self.heaps[host].pop().expect("window is non-empty");
            self.stalls += 1;
            earliest.max(self.floor)
        } else {
            self.floor
        }
    }

    /// Records a part admitted on `host` that completes at `completed_at`.
    pub fn record(&mut self, host: usize, completed_at: Duration) {
        self.heaps[host].push(Reverse(completed_at));
        self.done_at = self.done_at.max(completed_at);
        self.parts += 1;
    }

    /// Retires every part finished by `now`; returns how many are still in
    /// flight.
    pub fn retire(&mut self, now: Duration) -> usize {
        for heap in &mut self.heaps {
            while matches!(heap.peek(), Some(&Reverse(t)) if t <= now) {
                heap.pop();
            }
        }
        self.heaps.iter().map(BinaryHeap::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Records the order in which items reach their I/O step; item `fail`
    /// errors after its I/O, and every item burns CPU outside it.
    struct Probe {
        issued: Mutex<Vec<u32>>,
        deaths: AtomicUsize,
        fail: Option<u32>,
    }

    impl Probe {
        fn new(fail: Option<u32>) -> Self {
            Self {
                issued: Mutex::new(Vec::new()),
                deaths: AtomicUsize::new(0),
                fail,
            }
        }
    }

    impl HostWork for Probe {
        type Item = u32;
        type Output = (u16, u32);

        fn run_one(&self, host: u16, item: &u32, turn: Turn<'_>) -> Result<(u16, u32)> {
            // Uneven CPU work, so threads reach their turns out of order.
            std::hint::black_box((0..(item % 7) * 2_000).sum::<u32>());
            turn.io(|| self.issued.lock().unwrap().push(*item));
            if self.fail == Some(*item) {
                return Err(CnrError::Pipeline(format!("item {item} failed")));
            }
            Ok((host, *item))
        }

        fn die(&self, _host: u16, _item: &u32) -> Result<()> {
            self.deaths.fetch_add(1, Ordering::Relaxed);
            Ok(())
        }
    }

    #[test]
    fn one_host_issues_in_assignment_order_on_many_threads() {
        for _ in 0..20 {
            let probe = Probe::new(None);
            let run = run(&probe, 8, vec![(0..64).collect()], None, |_, _| {}).unwrap();
            assert_eq!(*probe.issued.lock().unwrap(), (0..64).collect::<Vec<u32>>());
            assert_eq!(run.outputs, vec![(0, (0..64).map(|i| (0, i)).collect())]);
        }
    }

    #[test]
    fn a_failed_item_fails_the_pass_without_stalling_later_turns() {
        let probe = Probe::new(Some(3));
        let result = run(&probe, 4, vec![(0..16).collect()], None, |_, _| {});
        assert!(matches!(result, Err(CnrError::Pipeline(_))));
        assert_eq!(probe.issued.lock().unwrap().len(), 16, "every turn was passed on");
    }

    #[test]
    fn a_dead_hosts_leftovers_are_dealt_round_robin_onto_survivors() {
        let probe = Probe::new(None);
        let jobs = vec![vec![0, 1], vec![10, 11, 12, 13], vec![20]];
        let kill = HostKill {
            host: 1,
            after_chunks: 1,
        };
        let mut adopted = Vec::new();
        let run = run(&probe, 3, jobs, Some(kill), |host, item| {
            adopted.push((host, *item))
        })
        .unwrap();
        assert_eq!(probe.deaths.load(Ordering::Relaxed), 1);
        assert_eq!(run.killed, vec![1]);
        assert_eq!(run.rescheduled, 3);
        assert_eq!(adopted, vec![(0, 11), (2, 12), (0, 13)]);
        assert_eq!(
            run.outputs,
            vec![
                (0, vec![(0, 0), (0, 1)]),
                (1, vec![(1, 10)]),
                (2, vec![(2, 20)]),
                (0, vec![(0, 11), (0, 13)]),
                (2, vec![(2, 12)]),
            ]
        );
    }

    #[test]
    fn a_kill_past_the_hosts_last_item_never_fires() {
        let probe = Probe::new(None);
        let kill = HostKill {
            host: 0,
            after_chunks: 2,
        };
        let run = run(&probe, 1, vec![vec![0, 1]], Some(kill), |_, _| {}).unwrap();
        assert!(run.killed.is_empty());
        assert_eq!(probe.deaths.load(Ordering::Relaxed), 0);
    }
}

//! The out-of-order core model.
//!
//! One [`Core`] executes one thread's instruction stream with:
//!
//! - **in-order issue** along the *predicted* path into a bounded ROB
//!   (wrong-path instructions are genuinely fetched and squashed at
//!   branch resolution — this is what exercises FSS′);
//! - **dataflow execution**: an instruction dispatches once its source
//!   operands' producers have completed (Tomasulo-style wakeup;
//!   operands are captured as values or producer tags at issue);
//! - **in-order retirement** from the ROB head; stores move to a
//!   bounded store buffer at retire and drain out of order (RMO),
//!   writing shared memory at drain completion;
//! - **load values bound at completion time** from shared memory (or
//!   forwarded from the youngest older matching store), so cross-core
//!   interleavings are physically meaningful;
//! - **CAS** executing non-speculatively at the ROB head once no
//!   buffered store targets its address;
//! - **fences** that either block the issue stage until their
//!   condition holds (`T`/`S`) or issue speculatively and hold only
//!   retirement (`T+`/`S+`, in-window speculation), with the condition
//!   supplied by the S-Fence scope unit when scopes are honoured.
//!
//! The register file holds *committed* state only (updated at retire);
//! squash recovery therefore needs no register checkpoints — the
//! producer map is rebuilt by rescanning the surviving ROB entries.
//!
//! The ROB is a fixed ring of slots (`Rob`) that issue fills in
//! place. Events, ready lists and waiter lists name entries by sequence
//! number; a seq's low bits name its slot, and each completion or
//! dispatch looks its seq up once and hands the slot down.

use crate::bpred::BranchPredictor;
use crate::bus::MemBus;
use crate::config::{CoreConfig, BPRED_ENTRIES, MAX_OUTSTANDING_STORES};
use crate::stats::CoreStats;
use sfence_core::{
    ColumnCounters, FenceWait, PipeEvent, PipeKind, RetiredEvent, ScopeMask, ScopeUnit,
};
use sfence_isa::{FenceKind, Instr, Operand, NUM_REGS};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// A source operand captured at issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Src {
    Ready(i64),
    /// Waiting on the ROB entry with this sequence number.
    Wait(u64),
    /// Operand slot unused by this instruction.
    None,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EState {
    /// Waiting for source operands.
    Waiting,
    /// Operands ready; awaiting dispatch (or blocked on
    /// disambiguation / CAS head condition).
    Ready,
    /// In an execution unit or the memory system.
    Executing,
    /// Finished; may retire when it reaches the ROB head.
    Done,
}

#[derive(Debug, Clone, Copy)]
struct RobEntry {
    seq: u64,
    /// The instruction is `code[pc]`; it is not copied into the entry.
    pc: usize,
    ops: [Src; 3],
    state: EState,
    result: i64,
    addr: usize,
    mask: ScopeMask,
    /// Still counted in `mem_in_flight` / scope-unit counters.
    counted: bool,
    fence_wait: Option<FenceWait>,
    predicted_taken: bool,
    issued_at: u64,
    dispatched_at: u64,
    completed_at: u64,
}

/// The reorder buffer: a ring of `rob_size.next_power_of_two()` slots,
/// allocated once and filled on first use, so a short run writes only
/// the slots it reaches. Issue writes each entry into the tail slot in
/// place, and every slot keeps its waiter list's capacity, so a
/// steady-state issue allocates nothing.
///
/// A live entry's sequence number names its slot: `seq & mask == slot`.
/// Seqs are unique and increasing but *not* contiguous: a squash never
/// rolls `next_seq` back, so stale completion events can never alias
/// a new entry, and instead moves it up to the next seq whose low bits
/// name the new tail slot ([`tail_seq`](Self::tail_seq)). A lookup is
/// a mask, a liveness test and one seq comparison.
struct Rob {
    slots: Vec<RobEntry>,
    /// Consumers (seqs) to wake when the slot's entry completes.
    waiters: Vec<Vec<u64>>,
    /// The ring's slot count minus one. Until the first wrap `slots`
    /// is shorter than the ring, and the tail slot is at most its
    /// length.
    mask: usize,
    /// Slot of the oldest entry.
    head: usize,
    len: usize,
}

impl Rob {
    fn new(rob_size: usize) -> Self {
        let cap = rob_size.max(1).next_power_of_two();
        Self {
            slots: Vec::with_capacity(cap),
            waiters: Vec::with_capacity(cap),
            mask: cap - 1,
            head: 0,
            len: 0,
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Slot at logical position `i` (0 = oldest).
    #[inline]
    fn slot_at(&self, i: usize) -> usize {
        (self.head + i) & self.mask
    }

    fn front(&self) -> Option<&RobEntry> {
        (self.len > 0).then(|| &self.slots[self.head])
    }

    fn back(&self) -> Option<&RobEntry> {
        (self.len > 0).then(|| &self.slots[self.slot_at(self.len - 1)])
    }

    /// The live entries, oldest first.
    fn iter(&self) -> impl Iterator<Item = &RobEntry> {
        (0..self.len).map(move |i| &self.slots[self.slot_at(i)])
    }

    /// The live entries older than the one in `slot`, youngest first.
    fn older_than(&self, slot: usize) -> impl Iterator<Item = &RobEntry> {
        let pos = slot.wrapping_sub(self.head) & self.mask;
        (0..pos).rev().map(move |i| &self.slots[self.slot_at(i)])
    }

    /// The slot of the live entry with sequence number `seq`, or
    /// `None` if it has retired or been squashed. Each completion,
    /// dispatch and wakeup looks its seq up once and passes the slot
    /// down.
    #[inline]
    fn slot(&self, seq: u64) -> Option<usize> {
        let slot = seq as usize & self.mask;
        let live = slot.wrapping_sub(self.head) & self.mask < self.len;
        (live && self.slots[slot].seq == seq).then_some(slot)
    }

    /// The smallest seq at or above `min` whose low bits name the tail
    /// slot: the next seq to issue after a squash.
    fn tail_seq(&self, min: u64) -> u64 {
        let tail = self.slot_at(self.len) as u64;
        min + (tail.wrapping_sub(min) & self.mask as u64)
    }

    /// Claim the tail slot for `entry`, whose seq must name it. Its
    /// waiter list is already empty: `Core::mark_done` clears a
    /// completing entry's, and [`pop_back`](Self::pop_back) a squashed
    /// one's.
    fn push(&mut self, entry: RobEntry) -> usize {
        debug_assert!(self.len <= self.mask, "ROB ring overflow");
        let slot = self.slot_at(self.len);
        debug_assert_eq!(
            entry.seq as usize & self.mask,
            slot,
            "seq must name its slot"
        );
        self.len += 1;
        if slot == self.slots.len() {
            // The ring's first lap reaches this slot.
            self.slots.push(entry);
            self.waiters.push(Vec::new());
        } else {
            self.slots[slot] = entry;
            debug_assert!(self.waiters[slot].is_empty());
        }
        slot
    }

    /// Remove the oldest entry and return it.
    fn pop_front(&mut self) -> RobEntry {
        debug_assert!(self.len > 0);
        // Only a Done entry retires, and it has woken its consumers.
        debug_assert!(self.waiters[self.head].is_empty());
        let e = self.slots[self.head];
        self.head = (self.head + 1) & self.mask;
        self.len -= 1;
        e
    }

    /// Remove the youngest entry and return it.
    fn pop_back(&mut self) -> RobEntry {
        debug_assert!(self.len > 0);
        self.len -= 1;
        let slot = self.slot_at(self.len);
        self.waiters[slot].clear();
        self.slots[slot]
    }
}

impl std::ops::Index<usize> for Rob {
    type Output = RobEntry;
    fn index(&self, slot: usize) -> &RobEntry {
        &self.slots[slot]
    }
}

impl std::ops::IndexMut<usize> for Rob {
    fn index_mut(&mut self, slot: usize) -> &mut RobEntry {
        &mut self.slots[slot]
    }
}

#[derive(Debug, Clone)]
struct SbEntry {
    id: u64,
    addr: usize,
    val: i64,
    mask: ScopeMask,
    counted: bool,
    issued: bool,
    /// An older same-address entry is still in the buffer, so this
    /// one must not drain yet (RMO keeps same-address stores
    /// ordered). Maintained at push and at drain completion: the
    /// draining entry is always the oldest for its address, so
    /// exactly the next same-address entry unblocks.
    blocked: bool,
    /// Index into the trace buffer to patch with the drain cycle.
    trace_idx: Option<usize>,
}

/// Bucket count of the address-occupancy filters. A power of two so
/// the bucket index is a mask; collisions only cost a wasted scan,
/// never a wrong answer (the filters gate *scans*, not results).
const ADDR_BUCKETS: usize = 1024;

#[inline]
fn bucket(addr: usize) -> usize {
    addr & (ADDR_BUCKETS - 1)
}

/// Remove `seq` from an ascending sequence-number deque.
fn remove_seq(dq: &mut VecDeque<u64>, seq: u64) {
    let i = dq.partition_point(|&s| s < seq);
    debug_assert_eq!(dq.get(i), Some(&seq));
    dq.remove(i);
}

/// Timed completion events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    Rob(u64),
    Sb(u64),
}

/// One simulated core.
pub struct Core {
    pub cfg: CoreConfig,
    id: usize,
    code: Vec<Instr>,

    regs: [i64; NUM_REGS],
    /// The seq of the youngest in-flight writer of each register.
    reg_producer: [Option<u64>; NUM_REGS],

    rob: Rob,
    next_seq: u64,
    sb: VecDeque<SbEntry>,
    next_store_id: u64,
    sb_inflight: usize,
    sb_counts: ColumnCounters,

    fetch_pc: usize,
    fetch_resume: u64,
    fetch_done: bool,
    halted: bool,
    /// A fence blocking the issue stage (non-speculative mode).
    blocked_fence: Option<(FenceWait, usize)>,

    events: BinaryHeap<Reverse<(u64, Ev)>>,
    ready_q: Vec<u64>,
    /// Loads parked on memory disambiguation, ascending by seq.
    blocked_loads: Vec<u64>,
    /// Dispatch scratch buffer (capacity reused across cycles).
    work: Vec<u64>,

    // Incremental indices over the ROB/SB, so the per-cycle stages
    // need no full scans. All are derived state: issue/dispatch/
    // retire/squash keep them in sync with the structures above.
    /// Sequence numbers (ascending) of ROB stores whose address is
    /// still unresolved (state Waiting/Ready).
    unresolved_stores: VecDeque<u64>,
    /// Sequence numbers (ascending) of ROB CAS entries that have not
    /// completed (their memory effect lands only at completion).
    incomplete_cas: VecDeque<u64>,
    /// Fence entries currently in the ROB (coherence probes scan only
    /// when nonzero).
    fences_in_rob: usize,
    /// SB entries not yet issued to memory (drain early-out).
    sb_unissued: usize,
    /// Per-address-bucket count of ROB stores with a resolved address
    /// (state Executing/Done) — the store-to-load forwarding scan
    /// runs only when a load's bucket is occupied.
    rob_store_occ: Vec<u32>,
    /// Per-address-bucket count of store-buffer entries.
    sb_occ: Vec<u32>,

    scope: ScopeUnit,
    bpred: BranchPredictor,
    mem_in_flight: usize,

    pub stats: CoreStats,
    /// The [`CoreStats::stall_counters`] charged by the last cycle in
    /// which this core neither issued nor retired; see [`Core::skip`].
    quiet_charge: [u64; 4],
    /// Retired-event trace (when `cfg.trace`).
    pub trace: Vec<RetiredEvent>,
    /// Pipeline event trace (when `cfg.pipe_trace`).
    pub pipe: Vec<PipeEvent>,
}

impl Core {
    pub fn new(id: usize, code: Vec<Instr>, cfg: CoreConfig) -> Self {
        let scope = ScopeUnit::new(cfg.scope);
        let bpred = BranchPredictor::new(BPRED_ENTRIES);
        let halted = code.is_empty();
        Self {
            id,
            code,
            regs: [0; NUM_REGS],
            reg_producer: [None; NUM_REGS],
            rob: Rob::new(cfg.rob_size),
            next_seq: 0,
            sb: VecDeque::with_capacity(cfg.sb_size),
            next_store_id: 0,
            sb_inflight: 0,
            sb_counts: ColumnCounters::new(),
            fetch_pc: 0,
            fetch_resume: 0,
            fetch_done: halted,
            halted,
            blocked_fence: None,
            events: BinaryHeap::new(),
            ready_q: Vec::new(),
            blocked_loads: Vec::new(),
            work: Vec::new(),
            unresolved_stores: VecDeque::new(),
            incomplete_cas: VecDeque::new(),
            fences_in_rob: 0,
            sb_unissued: 0,
            rob_store_occ: vec![0; ADDR_BUCKETS],
            sb_occ: vec![0; ADDR_BUCKETS],
            scope,
            bpred,
            mem_in_flight: 0,
            stats: CoreStats::default(),
            quiet_charge: [0; 4],
            trace: Vec::new(),
            pipe: Vec::new(),
            cfg,
        }
    }

    /// Append a pipeline event. Callers gate on `cfg.pipe_trace`, so
    /// the disabled hot path never reaches the push.
    #[inline]
    fn pipe_event(&mut self, cycle: u64, kind: PipeKind) {
        self.pipe.push(PipeEvent {
            core: self.id as u32,
            cycle,
            kind,
        });
    }

    /// Has this core retired its `halt` and drained all buffers?
    pub fn finished(&self) -> bool {
        self.halted && self.sb.is_empty() && self.rob.is_empty()
    }

    /// Scope-unit statistics (diagnostics).
    pub fn scope_stats(&self) -> sfence_core::ScopeUnitStats {
        self.scope.stats
    }

    /// Scope-unit path coverage (the fuzzer's corpus key).
    pub fn scope_coverage(&self) -> sfence_core::CoverageSet {
        self.scope.coverage
    }

    /// Snapshot of the architectural register file. Meaningful once
    /// the core is [`finished`](Self::finished): retired state only —
    /// in-flight speculative writes are not visible here.
    pub fn arch_regs(&self) -> &[i64] {
        &self.regs
    }

    fn honor_scopes(&self) -> bool {
        self.cfg.fence.honor_scopes
    }

    // ------------------------------------------------------------------
    // The per-cycle pipeline

    /// Advance the core by one cycle; returns whether it issued or
    /// retired an instruction. When it did neither, the stall counters
    /// the cycle charged are recorded for [`skip`](Self::skip).
    ///
    /// Why a cycle in which this core neither issues nor retires is
    /// followed, for this core, only by identical cycles up to its
    /// [`next_wake`](Self::next_wake), whatever the other cores do,
    /// unless a coherence probe squashes it first:
    ///
    /// - The stages run in order: completions, store-buffer drain,
    ///   retire, execute, issue. Whatever a stage changes, other than
    ///   issuing or retiring, is either read by a later stage in the
    ///   same cycle (a completion wakes consumers that execute then
    ///   dispatches; a drain completion frees the slot that retire and
    ///   the fence checks see) or waits for an event or a fetch
    ///   redirect (a dispatch or drain schedules its own completion; a
    ///   squash sets `fetch_resume`).
    /// - The next cycle therefore reads the same state and charges the
    ///   same stalls: a fence still unsatisfied, the same ROB head
    ///   blocked on a full store buffer, the same loads still behind an
    ///   unresolved store or an incomplete CAS.
    /// - Other cores reach this one only through the bus and through
    ///   probes. A load or CAS binds memory only at its own completion
    ///   event, and the memory system fixes a latency when this core
    ///   dispatches or drains, so the quiet cycles read and access
    ///   nothing. A remote write reaches the ROB only as a
    ///   [`coherence_probe`](Self::coherence_probe), which is delivered
    ///   to a quiet core too; one that squashes resumes fetch and may
    ///   act on the very next cycle.
    pub fn cycle(&mut self, now: u64, bus: &mut impl MemBus) -> bool {
        if self.finished() {
            return false;
        }
        let (issued, retired) = (self.stats.instrs_issued, self.stats.instrs_retired);
        let charged = self.stats.stall_counters().map(|c| *c);
        let mut fence_stalled = false;
        self.process_completions(now, bus);
        self.drain_store_buffer(now, bus);
        self.retire(now, &mut fence_stalled);
        self.execute(now, bus);
        self.issue(now, &mut fence_stalled);
        if fence_stalled {
            self.stats.fence_stall_cycles += 1;
        }
        if self.finished() && self.stats.finished_at.is_none() {
            self.stats.finished_at = Some(now);
        }
        let acted = self.stats.instrs_issued != issued || self.stats.instrs_retired != retired;
        if !acted {
            let counters = self.stats.stall_counters().map(|c| *c);
            self.quiet_charge = std::array::from_fn(|i| counters[i] - charged[i]);
        }
        acted
    }

    /// The first cycle at or after `now` at which this core can act
    /// again after a quiet cycle at `now - 1`: the earlier of its
    /// event-heap head and a pending fetch redirect. Only this core's
    /// own cycles and a squashing probe move it. A finished core never
    /// acts again (`u64::MAX`).
    pub fn next_wake(&self, now: u64) -> u64 {
        if self.finished() {
            return u64::MAX;
        }
        let event = self.events.peek().map_or(u64::MAX, |&Reverse((t, _))| t);
        if !self.fetch_done && self.fetch_resume >= now {
            event.min(self.fetch_resume)
        } else {
            event
        }
    }

    /// Charge `cycles` skipped cycles exactly as that many calls of
    /// [`cycle`](Self::cycle) would: each repeats the charge of this
    /// core's last quiet cycle. Valid for cycles after a quiet cycle
    /// and before both this core's [`next_wake`](Self::next_wake) and
    /// the next probe that squashes it, whatever other cores did
    /// meanwhile. The coverage bits a stall sets are idempotent, and
    /// the quiet cycle has already set them.
    pub fn skip(&mut self, cycles: u64) {
        if self.finished() {
            return;
        }
        for (counter, charge) in self
            .stats
            .stall_counters()
            .into_iter()
            .zip(self.quiet_charge)
        {
            *counter += cycles * charge;
        }
    }

    // ------------------------------------------------------------------
    // Completion

    fn process_completions(&mut self, now: u64, bus: &mut impl MemBus) {
        while let Some(&Reverse((t, ev))) = self.events.peek() {
            if t > now {
                break;
            }
            self.events.pop();
            match ev {
                Ev::Rob(seq) => self.complete_rob(seq, now, bus),
                Ev::Sb(id) => self.complete_drain(id, now, bus),
            }
        }
    }

    fn complete_rob(&mut self, seq: u64, now: u64, bus: &mut impl MemBus) {
        let Some(slot) = self.rob.slot(seq) else {
            return; // squashed while its event was in flight
        };
        let e = &self.rob[slot];
        if e.state != EState::Executing {
            return; // stale event after a squash reused nothing (seq is unique)
        }
        match self.code[e.pc] {
            Instr::Load { .. } => {
                // A forwarded load bound its value at dispatch (addr
                // == usize::MAX marks forwarding); otherwise bind from
                // shared memory now, at completion time.
                let val = if e.addr == usize::MAX {
                    e.result
                } else {
                    bus.read(e.addr)
                };
                self.finish_mem(slot, val, now);
            }
            Instr::Cas { .. } => {
                let (addr, expected, new) = (e.addr, src_val(e.ops[1]), src_val(e.ops[2]));
                let old = bus.read(addr);
                let ok = old == expected;
                if ok {
                    bus.write(self.id, addr, new);
                }
                remove_seq(&mut self.incomplete_cas, seq);
                self.finish_mem(slot, ok as i64, now);
            }
            Instr::Branch { op, a, b, target } => {
                let taken = op.apply(operand_val(a, &e.ops, 0), operand_val(b, &e.ops, 1));
                let (predicted, pc) = (e.predicted_taken, e.pc);
                self.stats.branches_resolved += 1;
                self.mark_done(slot, 0, now);
                if taken != predicted {
                    self.stats.mispredictions += 1;
                    self.bpred.update(pc, taken, true);
                    let next = if taken { target } else { pc + 1 };
                    self.squash_after(seq, next, now);
                } else {
                    self.bpred.update(pc, taken, false);
                    if self.honor_scopes() {
                        self.scope.branch_resolved(seq, false);
                    }
                }
            }
            _ => {
                // ALU-class instruction: result was computed at dispatch.
                let r = e.result;
                self.mark_done(slot, r, now);
            }
        }
    }

    /// Mark a load/CAS complete: value, counters, wakeup.
    fn finish_mem(&mut self, slot: usize, val: i64, now: u64) {
        let e = &mut self.rob[slot];
        debug_assert!(e.counted);
        e.counted = false;
        let mask = e.mask;
        self.mem_in_flight -= 1;
        if self.honor_scopes() {
            self.scope.mem_completed(mask);
        }
        self.mark_done(slot, val, now);
    }

    /// Transition to Done, record result, wake consumers.
    fn mark_done(&mut self, slot: usize, result: i64, now: u64) {
        let e = &mut self.rob[slot];
        e.state = EState::Done;
        e.result = result;
        e.completed_at = now;
        let seq = e.seq;
        // Waking touches only the consumers, so this list is walked in
        // place and cleared, keeping its capacity.
        for i in 0..self.rob.waiters[slot].len() {
            let w = self.rob.waiters[slot][i];
            self.wake(w, seq, result);
        }
        self.rob.waiters[slot].clear();
    }

    fn wake(&mut self, waiter: u64, producer: u64, value: i64) {
        let Some(slot) = self.rob.slot(waiter) else {
            return; // squashed
        };
        let e = &mut self.rob[slot];
        for op in e.ops.iter_mut() {
            if *op == Src::Wait(producer) {
                *op = Src::Ready(value);
            }
        }
        if e.state == EState::Waiting && e.ops.iter().all(|o| !matches!(o, Src::Wait(_))) {
            e.state = EState::Ready;
            self.ready_q.push(waiter);
        }
    }

    fn complete_drain(&mut self, id: u64, now: u64, bus: &mut impl MemBus) {
        // Store ids are handed out monotonically and entries are never
        // reordered, so the buffer is sorted by id.
        let pos = self.sb.partition_point(|s| s.id < id);
        assert!(
            self.sb.get(pos).is_some_and(|s| s.id == id),
            "store-buffer drains are never squashed"
        );
        let entry = self.sb.remove(pos).unwrap();
        bus.write(self.id, entry.addr, entry.val);
        self.sb_inflight -= 1;
        self.sb_counts.remove(entry.mask);
        self.sb_occ[bucket(entry.addr)] -= 1;
        // The drained entry was the oldest for its address (it could
        // not have issued otherwise); unblock the next one, if any.
        if self.sb_occ[bucket(entry.addr)] > 0 {
            if let Some(next) = self.sb.iter_mut().find(|s| s.addr == entry.addr) {
                next.blocked = false;
            }
        }
        if entry.counted {
            self.mem_in_flight -= 1;
            if self.honor_scopes() {
                self.scope.mem_completed(entry.mask);
            }
        }
        if let Some(idx) = entry.trace_idx {
            if let RetiredEvent::Mem { complete, .. } = &mut self.trace[idx] {
                *complete = now;
            }
        }
    }

    // ------------------------------------------------------------------
    // Store buffer drain

    fn drain_store_buffer(&mut self, now: u64, bus: &mut impl MemBus) {
        if self.sb_unissued == 0 {
            return;
        }
        // RMO: drain any entry, but same-address stores stay ordered
        // (the `blocked` flag, maintained at push/drain).
        for i in 0..self.sb.len() {
            if self.sb_inflight >= MAX_OUTSTANDING_STORES {
                break;
            }
            if self.sb[i].issued || self.sb[i].blocked {
                continue;
            }
            self.sb[i].issued = true;
            self.sb_unissued -= 1;
            let (id, addr) = (self.sb[i].id, self.sb[i].addr);
            let lat = bus.access_latency(self.id, addr, true).max(1);
            self.events.push(Reverse((now + lat, Ev::Sb(id))));
            self.sb_inflight += 1;
            if self.sb_unissued == 0 {
                break;
            }
        }
    }

    // ------------------------------------------------------------------
    // Retire

    fn retire(&mut self, now: u64, fence_stalled: &mut bool) {
        for _ in 0..self.cfg.width {
            let Some(head) = self.rob.front() else {
                return;
            };
            if head.state != EState::Done {
                // CAS parks Ready at the head until no buffered store
                // targets its address; all other kinds are simply not
                // finished yet.
                return;
            }
            let instr = self.code[head.pc];
            let head_pc = head.pc;
            // Fences under in-window speculation hold retirement until
            // their (captured) condition is satisfied by the SB.
            if let Instr::Fence { .. } = instr {
                if self.cfg.fence.in_window_speculation {
                    let ready = match head.fence_wait {
                        Some(FenceWait::All) | None => self.sb.is_empty(),
                        Some(FenceWait::Mask(m)) => self.sb_counts.clear_in(m),
                    };
                    if !ready {
                        *fence_stalled = true;
                        self.scope
                            .coverage
                            .insert(sfence_core::coverage::STALL_AT_RETIRE);
                        return;
                    }
                    if self.cfg.pipe_trace {
                        self.pipe_event(now, PipeKind::FenceComplete { pc: head_pc as u64 });
                    }
                }
                self.stats.fences_retired += 1;
            }
            // Stores need a store-buffer slot.
            if let Instr::Store { .. } = instr {
                if self.sb.len() == self.cfg.sb_size {
                    self.stats.sb_full_stall_cycles += 1;
                    return;
                }
            }
            let e = self.rob.pop_front();
            self.stats.instrs_retired += 1;
            if self.cfg.pipe_trace {
                self.pipe_event(
                    now,
                    PipeKind::Retire {
                        seq: e.seq,
                        pc: e.pc as u64,
                    },
                );
            }
            // Commit the register value.
            if let Some(rd) = instr.dest() {
                self.regs[rd.0 as usize] = e.result;
                if self.reg_producer[rd.0 as usize] == Some(e.seq) {
                    self.reg_producer[rd.0 as usize] = None;
                }
            }
            match instr {
                Instr::Store { set_flagged, .. } => {
                    self.stats.stores += 1;
                    let trace_idx = if self.cfg.trace {
                        self.trace.push(RetiredEvent::Mem {
                            id: e.seq,
                            flagged: set_flagged,
                            issue: e.dispatched_at,
                            complete: u64::MAX, // patched at drain
                        });
                        Some(self.trace.len() - 1)
                    } else {
                        None
                    };
                    let id = self.next_store_id;
                    self.next_store_id += 1;
                    self.sb_counts.add(e.mask);
                    self.rob_store_occ[bucket(e.addr)] -= 1;
                    // Exact check, gated by the (conservative) bucket
                    // count: every existing entry is older.
                    let blocked =
                        self.sb_occ[bucket(e.addr)] > 0 && self.sb.iter().any(|s| s.addr == e.addr);
                    self.sb_occ[bucket(e.addr)] += 1;
                    self.sb_unissued += 1;
                    self.sb.push_back(SbEntry {
                        id,
                        addr: e.addr,
                        val: e.result,
                        mask: e.mask,
                        counted: e.counted,
                        issued: false,
                        blocked,
                        trace_idx,
                    });
                }
                Instr::Load { set_flagged, .. } => {
                    self.stats.loads += 1;
                    if self.cfg.trace {
                        self.trace.push(RetiredEvent::Mem {
                            id: e.seq,
                            flagged: set_flagged,
                            issue: e.dispatched_at,
                            complete: e.completed_at,
                        });
                    }
                }
                Instr::Cas { set_flagged, .. } => {
                    self.stats.cas_ops += 1;
                    if self.cfg.trace {
                        self.trace.push(RetiredEvent::Mem {
                            id: e.seq,
                            flagged: set_flagged,
                            issue: e.dispatched_at,
                            complete: e.completed_at,
                        });
                    }
                }
                Instr::Fence { kind } => {
                    self.fences_in_rob -= 1;
                    if self.cfg.trace {
                        let kind_eff = if self.honor_scopes() {
                            kind
                        } else {
                            FenceKind::Global
                        };
                        self.trace.push(RetiredEvent::Fence {
                            kind: kind_eff,
                            issue: e.issued_at,
                        });
                    }
                }
                Instr::FsStart { cid } => {
                    if self.honor_scopes() {
                        self.scope.fs_retired();
                    }
                    if self.cfg.trace {
                        self.trace.push(RetiredEvent::FsStart(cid));
                    }
                }
                Instr::FsEnd { .. } => {
                    if self.honor_scopes() {
                        self.scope.fs_retired();
                    }
                    if self.cfg.trace {
                        self.trace.push(RetiredEvent::FsEnd);
                    }
                }
                Instr::Halt => {
                    self.halted = true;
                    self.stats.halted_at = Some(now);
                    return;
                }
                _ => {}
            }
        }
    }

    // ------------------------------------------------------------------
    // Execute

    fn execute(&mut self, now: u64, bus: &mut impl MemBus) {
        // Re-examine loads blocked on disambiguation and a CAS parked
        // at the head, then dispatch the newly ready instructions.
        // Also: a Ready CAS at the head re-checks every cycle.
        let head_cas = self
            .rob
            .front()
            .filter(|h| matches!(self.code[h.pc], Instr::Cas { .. }) && h.state == EState::Ready)
            .map(|h| h.seq);
        if self.blocked_loads.is_empty() && self.ready_q.is_empty() && head_cas.is_none() {
            return;
        }
        // Reuse one scratch buffer's capacity across cycles.
        let mut work = std::mem::take(&mut self.work);
        debug_assert!(work.is_empty());
        work.append(&mut self.ready_q);
        if let Some(seq) = head_cas {
            if !work.contains(&seq) {
                work.push(seq);
            }
        }
        work.sort_unstable();
        work.dedup();
        // Disambiguation retries, without re-dispatching: a blocked
        // load would pass its (seq-ordered) turn iff no unresolved
        // older store/CAS remains by then. Every Ready store is in
        // `work` and dispatches unconditionally at its own turn —
        // before any younger load's — and `incomplete_cas` only
        // changes at completion (a different phase), so the oldest
        // blocker *surviving this cycle* is computable up front.
        // Loads older than it take their successful retry through the
        // dispatch order; the rest are charged their failed retry in
        // bulk, exactly as if each had re-dispatched and bounced.
        if !self.blocked_loads.is_empty() {
            let mut boundary = self.incomplete_cas.front().copied().unwrap_or(u64::MAX);
            for &s in &self.unresolved_stores {
                if s >= boundary {
                    break;
                }
                if work.binary_search(&s).is_err() {
                    boundary = s;
                    break;
                }
            }
            let unblocked = self.blocked_loads.partition_point(|&s| s < boundary);
            self.stats.load_disambiguation_blocks += (self.blocked_loads.len() - unblocked) as u64;
            if unblocked > 0 {
                work.extend(self.blocked_loads.drain(..unblocked));
                work.sort_unstable();
            }
        }
        for &seq in &work {
            self.dispatch(seq, now, bus);
        }
        work.clear();
        self.work = work;
    }

    fn dispatch(&mut self, seq: u64, now: u64, bus: &mut impl MemBus) {
        let Some(slot) = self.rob.slot(seq) else {
            return;
        };
        let e = &self.rob[slot];
        if e.state != EState::Ready {
            return;
        }
        let ops = e.ops;
        match self.code[e.pc] {
            Instr::Imm { value, .. } => self.start_exec(slot, value, 1, now),
            Instr::Mov { a, .. } => {
                let v = operand_val(a, &ops, 0);
                self.start_exec(slot, v, 1, now);
            }
            Instr::Alu { op, a, b, .. } => {
                let v = op.apply(operand_val(a, &ops, 0), operand_val(b, &ops, 1));
                self.start_exec(slot, v, 1, now);
            }
            Instr::Cmp { op, a, b, .. } => {
                let v = op.apply(operand_val(a, &ops, 0), operand_val(b, &ops, 1)) as i64;
                self.start_exec(slot, v, 1, now);
            }
            Instr::Branch { .. } => {
                // Resolution happens at the completion event.
                self.start_exec(slot, 0, 1, now);
            }
            Instr::Load { base, offset, .. } => {
                self.dispatch_load(slot, base, offset, now, bus);
            }
            Instr::Store {
                src, base, offset, ..
            } => {
                let addr = mem_addr(operand_val(base, &ops, 1), offset);
                let val = operand_val(src, &ops, 0);
                let e = &mut self.rob[slot];
                e.addr = addr;
                e.dispatched_at = now;
                // The address is now resolved: older loads stop
                // blocking on this store, and forwarding can see it.
                remove_seq(&mut self.unresolved_stores, seq);
                self.rob_store_occ[bucket(addr)] += 1;
                // Address generation: Done next cycle; the store's
                // memory effect happens after retire, from the SB.
                self.start_exec(slot, val, 1, now);
            }
            Instr::Cas { base, offset, .. } => {
                // Non-speculative: only at the ROB head. Prior loads
                // are thus complete; under RMO prior stores are not
                // ordered (explicit fences do that), except those to
                // the same address, preserving single-thread semantics.
                if slot != self.rob.head {
                    return; // stays Ready; retried next cycle
                }
                let addr = mem_addr(operand_val(base, &ops, 0), offset);
                if self.sb_occ[bucket(addr)] > 0 && self.sb.iter().any(|s| s.addr == addr) {
                    return; // wait for the store buffer to make progress
                }
                let lat = bus.access_latency(self.id, addr, true).max(1);
                let e = &mut self.rob[slot];
                e.addr = addr;
                e.dispatched_at = now;
                e.state = EState::Executing;
                let pc = e.pc;
                self.events.push(Reverse((now + lat, Ev::Rob(seq))));
                if self.cfg.pipe_trace {
                    self.pipe_event(now, PipeKind::Issue { seq, pc: pc as u64 });
                }
            }
            // Scope markers, fences, jumps, nops and halts are Done at
            // issue and never reach dispatch.
            other => unreachable!("dispatch of non-executing instruction {other:?}"),
        }
    }

    fn start_exec(&mut self, slot: usize, result: i64, latency: u64, now: u64) {
        let e = &mut self.rob[slot];
        e.state = EState::Executing;
        e.result = result;
        if e.dispatched_at == 0 {
            e.dispatched_at = now;
        }
        let (seq, pc) = (e.seq, e.pc);
        self.events.push(Reverse((now + latency, Ev::Rob(seq))));
        if self.cfg.pipe_trace {
            self.pipe_event(now, PipeKind::Issue { seq, pc: pc as u64 });
        }
    }

    fn dispatch_load(
        &mut self,
        slot: usize,
        base: Operand,
        offset: i64,
        now: u64,
        bus: &mut impl MemBus,
    ) {
        // Conservative disambiguation: every older store must have a
        // resolved address, and every older CAS must have completed
        // (its memory effect lands only at completion), before a load
        // may dispatch. Applied identically under all fence configs.
        // The deques are ascending, so "an older one exists" is just a
        // front check.
        let seq = self.rob[slot].seq;
        let unresolved_older_store = self.unresolved_stores.front().is_some_and(|&s| s < seq)
            || self.incomplete_cas.front().is_some_and(|&s| s < seq);
        if unresolved_older_store {
            self.stats.load_disambiguation_blocks += 1;
            // Kept ascending so execute() can split it at the blocker
            // boundary with a partition point.
            let at = self.blocked_loads.partition_point(|&s| s < seq);
            self.blocked_loads.insert(at, seq);
            return;
        }
        let addr = mem_addr(operand_val(base, &self.rob[slot].ops, 0), offset);

        // Store-to-load forwarding: youngest older matching store in
        // the ROB, then the youngest in the store buffer. The scans
        // run only when the address's occupancy bucket says a
        // resolved store to it may exist.
        let mut fwd: Option<i64> = None;
        if self.rob_store_occ[bucket(addr)] > 0 {
            for e in self.rob.older_than(slot) {
                if let Instr::Store { .. } = self.code[e.pc] {
                    if matches!(e.state, EState::Done | EState::Executing) && e.addr == addr {
                        // An Executing store has computed addr/result
                        // already (start_exec stored them).
                        fwd = Some(e.result);
                        break;
                    }
                }
            }
        }
        if fwd.is_none() && self.sb_occ[bucket(addr)] > 0 {
            fwd = self.sb.iter().rev().find(|s| s.addr == addr).map(|s| s.val);
        }

        let e = &mut self.rob[slot];
        e.dispatched_at = now;
        e.state = EState::Executing;
        let pc = e.pc;
        if self.cfg.pipe_trace {
            self.pipe_event(now, PipeKind::Issue { seq, pc: pc as u64 });
        }
        let latency = if let Some(v) = fwd {
            self.stats.forwarded_loads += 1;
            let e = &mut self.rob[slot];
            e.addr = usize::MAX; // marks "value already bound"
            e.result = v;
            1
        } else {
            let lat = bus.access_latency(self.id, addr, false).max(1);
            self.rob[slot].addr = addr;
            lat
        };
        self.events.push(Reverse((now + latency, Ev::Rob(seq))));
    }

    // ------------------------------------------------------------------
    // Squash (branch misprediction)

    fn squash_after(&mut self, branch_seq: u64, next_pc: usize, now: u64) {
        self.squash_tail(branch_seq, next_pc, now);
        if self.honor_scopes() {
            self.scope.branch_resolved(branch_seq, true);
            if self.cfg.pipe_trace {
                self.pipe_event(
                    now,
                    PipeKind::Recovery {
                        from_seq: branch_seq,
                    },
                );
            }
        }
    }

    /// Remove every entry younger than `keep_upto` (exclusive) and
    /// redirect fetch. Scope-unit recovery is the caller's business.
    fn squash_tail(&mut self, keep_upto: u64, next_pc: usize, now: u64) {
        while let Some(back) = self.rob.back() {
            if back.seq <= keep_upto {
                break;
            }
            let e = self.rob.pop_back();
            if e.counted {
                self.mem_in_flight -= 1;
                if self.honor_scopes() {
                    self.scope.mem_squashed(e.mask);
                }
            }
            match self.code[e.pc] {
                Instr::Store { .. } => {
                    if matches!(e.state, EState::Executing | EState::Done) {
                        self.rob_store_occ[bucket(e.addr)] -= 1;
                    }
                }
                Instr::Fence { .. } => self.fences_in_rob -= 1,
                _ => {}
            }
        }
        // The index deques are ascending: squashed tails pop off the
        // back.
        while self
            .unresolved_stores
            .back()
            .is_some_and(|&s| s > keep_upto)
        {
            self.unresolved_stores.pop_back();
        }
        while self.incomplete_cas.back().is_some_and(|&s| s > keep_upto) {
            self.incomplete_cas.pop_back();
        }
        // Seqs never repeat: issue resumes at the next seq that names
        // the new tail slot.
        self.next_seq = self.rob.tail_seq(self.next_seq);
        // Rebuild the producer map from the survivors (front-to-back,
        // so the youngest producer of each register wins).
        self.reg_producer = [None; NUM_REGS];
        for e in self.rob.iter() {
            if let Some(rd) = self.code[e.pc].dest() {
                self.reg_producer[rd.0 as usize] = Some(e.seq);
            }
        }
        self.ready_q.retain(|&s| s <= keep_upto);
        self.blocked_loads.retain(|&s| s <= keep_upto);
        self.blocked_fence = None;
        self.fetch_done = false;
        self.fetch_pc = next_pc;
        self.fetch_resume = now + self.cfg.mispredict_penalty;
    }

    /// In-window speculation violation replay (Gharachorloo): a remote
    /// write to `addr` just became visible. Any load of `addr` that
    /// completed but has not retired, and that sits behind a
    /// still-unretired speculatively-issued fence, may have bound a
    /// stale value; squash from the oldest such load and re-execute.
    /// Without in-window speculation fences block issue, so no load
    /// ever crosses a fence and plain load-load reordering is legal
    /// RMO behaviour. Returns whether it squashed.
    pub fn coherence_probe(&mut self, addr: usize, now: u64) -> bool {
        if !self.cfg.fence.in_window_speculation {
            return false;
        }
        // A victim load must sit behind a fence; with none in the ROB
        // the scan cannot find one.
        if self.fences_in_rob == 0 {
            return false;
        }
        let mut fence_seen = false;
        let mut victim: Option<(u64, usize)> = None;
        for e in self.rob.iter() {
            if matches!(self.code[e.pc], Instr::Fence { .. }) {
                fence_seen = true;
                continue;
            }
            if fence_seen
                && e.state == EState::Done
                && matches!(self.code[e.pc], Instr::Load { .. })
                && e.addr == addr
            {
                victim = Some((e.seq, e.pc));
                break;
            }
        }
        let Some((seq, pc)) = victim else {
            return false;
        };
        self.stats.speculation_replays += 1;
        self.squash_tail(seq.saturating_sub(1), pc, now);
        if self.honor_scopes() {
            self.scope.squash_from(seq);
            if self.cfg.pipe_trace {
                self.pipe_event(now, PipeKind::Recovery { from_seq: seq });
            }
        }
        true
    }

    // ------------------------------------------------------------------
    // Issue

    fn issue(&mut self, now: u64, fence_stalled: &mut bool) {
        for _ in 0..self.cfg.width {
            if self.fetch_done || now < self.fetch_resume {
                return;
            }
            if self.rob.len() >= self.cfg.rob_size {
                self.stats.rob_full_stall_cycles += 1;
                return;
            }
            // A fence blocking the issue stage (T/S mode).
            if let Some((wait, pc)) = self.blocked_fence {
                if !self.fence_satisfied(wait) {
                    *fence_stalled = true;
                    self.scope
                        .coverage
                        .insert(sfence_core::coverage::STALL_AT_ISSUE);
                    return;
                }
                self.blocked_fence = None;
                if self.cfg.pipe_trace {
                    self.pipe_event(now, PipeKind::FenceComplete { pc: pc as u64 });
                }
                self.push_entry(pc, now, |_| {});
                continue;
            }
            let pc = self.fetch_pc;
            let instr = self.code[pc];
            match instr {
                Instr::Fence { kind } => {
                    let kind_eff = if self.honor_scopes() {
                        kind
                    } else {
                        FenceKind::Global
                    };
                    let wait = if self.honor_scopes() {
                        // Delta-compare the scope-unit counter: a
                        // degrade inside fence_request is otherwise
                        // invisible at this call site.
                        let degraded = self.scope.stats.degraded_fences;
                        let wait = self.scope.fence_request(kind_eff);
                        if self.cfg.pipe_trace && self.scope.stats.degraded_fences > degraded {
                            self.pipe_event(now, PipeKind::Degrade { pc: pc as u64 });
                        }
                        wait
                    } else {
                        FenceWait::All
                    };
                    if self.cfg.pipe_trace {
                        self.pipe_event(
                            now,
                            PipeKind::FenceDispatch {
                                pc: pc as u64,
                                scoped: matches!(wait, FenceWait::Mask(_)),
                            },
                        );
                    }
                    if self.cfg.fence.in_window_speculation {
                        self.fetch_pc += 1;
                        self.push_entry(pc, now, |e| {
                            e.fence_wait = Some(wait);
                        });
                    } else if self.fence_satisfied(wait) {
                        self.fetch_pc += 1;
                        if self.cfg.pipe_trace {
                            self.pipe_event(now, PipeKind::FenceComplete { pc: pc as u64 });
                        }
                        self.push_entry(pc, now, |_| {});
                    } else {
                        self.fetch_pc += 1;
                        self.blocked_fence = Some((wait, pc));
                        *fence_stalled = true;
                        self.scope
                            .coverage
                            .insert(sfence_core::coverage::STALL_AT_ISSUE);
                        return;
                    }
                }
                Instr::FsStart { cid } => {
                    let seq = self.next_seq;
                    if self.honor_scopes() {
                        let overflows = self.scope.stats.fss_overflows;
                        self.scope.fs_start(cid, seq);
                        if self.cfg.pipe_trace && self.scope.stats.fss_overflows > overflows {
                            self.pipe_event(now, PipeKind::Overflow { seq });
                        }
                    }
                    self.fetch_pc += 1;
                    self.push_entry(pc, now, |_| {});
                }
                Instr::FsEnd { .. } => {
                    let seq = self.next_seq;
                    if self.honor_scopes() {
                        self.scope.fs_end(seq);
                    }
                    self.fetch_pc += 1;
                    self.push_entry(pc, now, |_| {});
                }
                Instr::Jump { target } => {
                    self.fetch_pc = target;
                    self.push_entry(pc, now, |_| {});
                }
                Instr::Halt => {
                    self.fetch_done = true;
                    self.push_entry(pc, now, |_| {});
                }
                Instr::Branch { target, .. } => {
                    let predicted = self.bpred.predict(pc);
                    let seq = self.next_seq;
                    if self.honor_scopes() {
                        self.scope.branch_issued(seq);
                    }
                    self.fetch_pc = if predicted { target } else { pc + 1 };
                    self.push_entry(pc, now, |e| {
                        e.predicted_taken = predicted;
                    });
                }
                Instr::Load { set_flagged, .. }
                | Instr::Store { set_flagged, .. }
                | Instr::Cas { set_flagged, .. } => {
                    let mask = if self.honor_scopes() {
                        self.scope.mem_issued(set_flagged)
                    } else {
                        ScopeMask::EMPTY
                    };
                    self.mem_in_flight += 1;
                    self.fetch_pc += 1;
                    self.push_entry(pc, now, |e| {
                        e.mask = mask;
                        e.counted = true;
                    });
                }
                _ => {
                    self.fetch_pc += 1;
                    self.push_entry(pc, now, |_| {});
                }
            }
        }
    }

    fn fence_satisfied(&self, wait: FenceWait) -> bool {
        match wait {
            FenceWait::All => self.mem_in_flight == 0,
            FenceWait::Mask(m) => self.scope.mask_clear(m),
        }
    }

    /// Allocate a ROB entry for the instruction at `pc`, resolving its
    /// source operands.
    fn push_entry(&mut self, pc: usize, now: u64, fixup: impl FnOnce(&mut RobEntry)) {
        let instr = self.code[pc];
        let seq = self.next_seq;
        self.next_seq += 1;
        self.stats.instrs_issued += 1;

        match instr {
            // A store's address is unresolved until dispatch; a CAS
            // is incomplete until its completion event.
            Instr::Store { .. } => self.unresolved_stores.push_back(seq),
            Instr::Cas { .. } => self.incomplete_cas.push_back(seq),
            Instr::Fence { .. } => self.fences_in_rob += 1,
            _ => {}
        }

        let mut ops = [Src::None; 3];
        let slots: [(usize, Option<Operand>); 3] = match instr {
            Instr::Mov { a, .. } => [(0, Some(a)), (1, None), (2, None)],
            Instr::Alu { a, b, .. } | Instr::Cmp { a, b, .. } | Instr::Branch { a, b, .. } => {
                [(0, Some(a)), (1, Some(b)), (2, None)]
            }
            Instr::Load { base, .. } => [(0, Some(base)), (1, None), (2, None)],
            Instr::Store { src, base, .. } => [(0, Some(src)), (1, Some(base)), (2, None)],
            Instr::Cas {
                base,
                expected,
                new,
                ..
            } => [(0, Some(base)), (1, Some(expected)), (2, Some(new))],
            _ => [(0, None), (1, None), (2, None)],
        };
        for (slot, op) in slots {
            if let Some(op) = op {
                ops[slot] = self.resolve_src(op, seq);
            }
        }
        let executes = matches!(
            instr,
            Instr::Imm { .. }
                | Instr::Mov { .. }
                | Instr::Alu { .. }
                | Instr::Cmp { .. }
                | Instr::Load { .. }
                | Instr::Store { .. }
                | Instr::Cas { .. }
                | Instr::Branch { .. }
        );
        let waiting = ops.iter().any(|o| matches!(o, Src::Wait(_)));
        let state = if !executes {
            EState::Done
        } else if waiting {
            EState::Waiting
        } else {
            EState::Ready
        };
        let slot = self.rob.push(RobEntry {
            seq,
            pc,
            ops,
            state,
            result: 0,
            addr: 0,
            mask: ScopeMask::EMPTY,
            counted: false,
            fence_wait: None,
            predicted_taken: false,
            issued_at: now,
            dispatched_at: 0,
            completed_at: now,
        });
        fixup(&mut self.rob[slot]);
        if let Some(rd) = instr.dest() {
            self.reg_producer[rd.0 as usize] = Some(seq);
        }
        if state == EState::Ready {
            self.ready_q.push(seq);
        }
        if self.cfg.pipe_trace {
            self.pipe_event(now, PipeKind::Fetch { seq, pc: pc as u64 });
        }
    }

    fn resolve_src(&mut self, op: Operand, consumer: u64) -> Src {
        match op {
            Operand::Imm(v) => Src::Ready(v),
            Operand::Reg(r) => match self.reg_producer[r.0 as usize] {
                None => Src::Ready(self.regs[r.0 as usize]),
                Some(p) => {
                    let slot = self.rob.slot(p).expect("producer must be in ROB");
                    let e = &self.rob[slot];
                    if e.state == EState::Done {
                        Src::Ready(e.result)
                    } else {
                        self.rob.waiters[slot].push(consumer);
                        Src::Wait(p)
                    }
                }
            },
        }
    }
}

#[inline]
fn src_val(s: Src) -> i64 {
    match s {
        Src::Ready(v) => v,
        other => panic!("operand not ready at use: {other:?}"),
    }
}

/// Value of an instruction operand, taking immediates directly and
/// register operands from the captured slot.
#[inline]
fn operand_val(op: Operand, ops: &[Src; 3], slot: usize) -> i64 {
    match op {
        Operand::Imm(v) => v,
        Operand::Reg(_) => src_val(ops[slot]),
    }
}

#[inline]
fn mem_addr(base: i64, offset: i64) -> usize {
    let a = base.wrapping_add(offset);
    debug_assert!(a >= 0, "negative address {a}");
    a as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::FlatBus;
    use crate::config::FenceConfig;
    use sfence_isa::interp::{InterpStats, ThreadState};
    use sfence_isa::ir::*;

    /// A filler entry; each test sets the fields it reads.
    const EMPTY_ENTRY: RobEntry = RobEntry {
        seq: u64::MAX,
        pc: 0,
        ops: [Src::None; 3],
        state: EState::Done,
        result: 0,
        addr: 0,
        mask: ScopeMask::EMPTY,
        counted: false,
        fence_wait: None,
        predicted_taken: false,
        issued_at: 0,
        dispatched_at: 0,
        completed_at: 0,
    };

    const CONFIGS: [FenceConfig; 4] = [
        FenceConfig::TRADITIONAL,
        FenceConfig::SFENCE,
        FenceConfig::TRADITIONAL_SPEC,
        FenceConfig::SFENCE_SPEC,
    ];

    /// Random pushes, retires and squashes, each squash resuming at
    /// the seq `tail_seq` picks: every lookup agrees with a linear scan
    /// of the live entries, including squashes that empty the ring and
    /// squashes on its first lap.
    #[test]
    fn ring_lookup_matches_search_through_squashes() {
        let mut rob = Rob::new(6); // 8 slots, 6 usable as in a core
        let mut next_seq = 0u64;
        let mut rng = 0x2545_f491_4f6c_dd1du64;
        let (mut emptied, mut first_lap) = (0, 0);
        for _ in 0..20_000 {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            match rng % 8 {
                0..=3 if rob.len() < 6 => {
                    rob.push(RobEntry {
                        seq: next_seq,
                        ..EMPTY_ENTRY
                    });
                    next_seq += 1;
                }
                4..=5 if !rob.is_empty() => {
                    rob.pop_front();
                }
                6 if !rob.is_empty() => {
                    // Squash a random-length tail; the seqs it held are
                    // never reissued.
                    let keep = (rng >> 8) as usize % rob.len();
                    while rob.len() > keep {
                        rob.pop_back();
                    }
                    emptied += usize::from(keep == 0);
                    first_lap += usize::from(rob.slots.len() <= rob.mask);
                    let min = next_seq + (rng >> 16) % 3;
                    next_seq = rob.tail_seq(min);
                    assert!(next_seq - min <= rob.mask as u64);
                    assert_eq!(next_seq as usize & rob.mask, rob.slot_at(rob.len()));
                }
                _ => {}
            }
            let oldest = rob.front().map_or(next_seq, |e| e.seq);
            for seq in oldest.saturating_sub(8)..=next_seq {
                let scan = (0..rob.len())
                    .map(|i| rob.slot_at(i))
                    .find(|&slot| rob[slot].seq == seq);
                assert_eq!(rob.slot(seq), scan, "lookup of seq {seq}");
            }
            let live: Vec<u64> = rob.iter().map(|e| e.seq).collect();
            assert!(live.windows(2).all(|w| w[0] < w[1]));
        }
        assert!(emptied > 0 && first_lap > 0, "{emptied} {first_lap}");
    }

    /// The live entries' runs of consecutive seqs: one per stretch
    /// issued between squashes.
    fn live_runs(rob: &Rob) -> usize {
        let seqs: Vec<u64> = rob.iter().map(|e| e.seq).collect();
        let gaps = seqs.windows(2).filter(|w| w[1] != w[0] + 1).count();
        gaps + usize::from(!seqs.is_empty())
    }

    /// Final registers and memory of `prog`'s thread 0 under the SC
    /// reference interpreter.
    fn reference(prog: &sfence_isa::Program) -> ([i64; NUM_REGS], Vec<i64>) {
        let mut mem = prog.initial_memory();
        let mut st = ThreadState::default();
        let mut stats = InterpStats::default();
        while st
            .step(0, &prog.threads[0], &mut mem, &mut stats)
            .expect("reference run")
        {}
        (st.regs, mem)
    }

    /// The ROB head is a 300-cycle load while two mispredicted branches
    /// resolve one after the other, the second among the entries issued
    /// after the first squash: three runs are live behind one head.
    #[test]
    fn squash_inside_a_squashed_window_matches_reference() {
        let mut p = IrProgram::new();
        let slow = p.global("slow");
        let a = p.global("a");
        let out = p.global("out");
        let sum = p.global("sum");
        p.init(slow, 40);
        p.thread(move |b| {
            b.store(a.cell(), c(1));
            b.fence();
            b.let_("v", ld(slow.cell()));
            b.let_("x", c(5));
            b.let_("y", c(0));
            // Fresh predictor counters are weakly taken, so each
            // skip-the-then-block branch mispredicts.
            b.if_(l("x").eq(c(5)), |t| t.assign("y", c(1)));
            b.if_(l("x").add(l("y")).eq(c(6)), |t| {
                t.assign("y", l("y").add(c(2)))
            });
            b.store(out.cell(), l("v").add(l("y")));
            b.store(sum.cell(), ld(a.cell()).add(l("x")));
            b.halt();
        });
        let prog = p.compile().expect("compile");
        let (ref_regs, ref_mem) = reference(&prog);
        let slow_addr = prog.addr_of("slow");
        for fence in CONFIGS {
            for rob_size in [64, 128, 256] {
                let label = format!("{} rob={rob_size}", fence.label());
                let mut bus = FlatBus::new(prog.data_size, 3);
                bus.mem.copy_from_slice(&prog.initial_memory());
                bus.slow_addrs.push((slow_addr, 300));
                let cfg = CoreConfig {
                    rob_size,
                    fence,
                    ..CoreConfig::default()
                };
                let mut core = Core::new(0, prog.threads[0].clone(), cfg);
                let mut max_runs = 0;
                let mut now = 0;
                while !core.finished() {
                    core.cycle(now, &mut bus);
                    let head_is_slow_load = core.rob.front().is_some_and(|h| {
                        matches!(core.code[h.pc], Instr::Load { .. })
                            && h.state == EState::Executing
                    });
                    if head_is_slow_load {
                        max_runs = max_runs.max(live_runs(&core.rob));
                    }
                    now += 1;
                    assert!(now < 100_000, "{label}: did not finish");
                }
                assert_eq!(core.stats.mispredictions, 2, "{label}");
                assert_eq!(max_runs, 3, "{label}: both squashes behind the load");
                assert_eq!(core.arch_regs(), &ref_regs[..], "{label}: registers");
                assert_eq!(bus.mem, ref_mem, "{label}: memory");
            }
        }
    }

    /// A flat bus that records each write for delivery as a coherence
    /// probe to the other cores, as the machine does after a cycle.
    struct ProbeBus {
        flat: FlatBus,
        writes: Vec<(usize, usize)>,
    }

    impl MemBus for ProbeBus {
        fn access_latency(&mut self, core: usize, addr: usize, write: bool) -> u64 {
            self.flat.access_latency(core, addr, write)
        }
        fn read(&mut self, addr: usize) -> i64 {
            self.flat.read(addr)
        }
        fn write(&mut self, core: usize, addr: usize, val: i64) {
            self.flat.write(core, addr, val);
            self.writes.push((core, addr));
        }
    }

    /// Under S+ a load issued past an unretired fence binds `flag`
    /// before the other core's write lands; the write's probe replays
    /// it (`squash_tail(seq - 1)`), and the entries issued after the
    /// replay form a new run behind the same ROB head.
    #[test]
    fn remote_write_replays_a_load_behind_a_fence() {
        let mut p = IrProgram::new();
        let flag = p.shared("flag");
        let slow = p.global("slow");
        let out = p.global("out");
        p.thread(move |b| {
            b.store(flag.cell(), c(1));
            b.halt();
        });
        p.thread(move |b| {
            b.let_("v", ld(slow.cell()));
            b.fence();
            b.let_("r", ld(flag.cell()));
            b.let_("s", l("r").add(c(10)));
            b.store(out.cell(), l("s").add(l("v")));
            b.halt();
        });
        let prog = p.compile().expect("compile");
        let mut bus = ProbeBus {
            flat: FlatBus::new(prog.data_size, 3),
            writes: Vec::new(),
        };
        bus.flat.mem.copy_from_slice(&prog.initial_memory());
        bus.flat.slow_addrs.push((prog.addr_of("slow"), 300));
        bus.flat.slow_addrs.push((prog.addr_of("flag"), 40));
        let cfg = CoreConfig {
            fence: FenceConfig::SFENCE_SPEC,
            ..CoreConfig::default()
        };
        let mut cores: Vec<Core> = (0..2)
            .map(|i| Core::new(i, prog.threads[i].clone(), cfg.clone()))
            .collect();
        let mut max_runs = 0;
        let mut now = 0;
        while !cores.iter().all(Core::finished) {
            for core in &mut cores {
                core.cycle(now, &mut bus);
            }
            for (writer, addr) in std::mem::take(&mut bus.writes) {
                for (i, core) in cores.iter_mut().enumerate() {
                    if i != writer {
                        core.coherence_probe(addr, now);
                    }
                }
            }
            max_runs = max_runs.max(live_runs(&cores[1].rob));
            now += 1;
            assert!(now < 100_000, "did not finish");
        }
        assert_eq!(cores[1].stats.speculation_replays, 1);
        assert_eq!(max_runs, 2, "the replayed tail is a second run");
        assert_eq!(bus.flat.mem[prog.addr_of("out")], 11);
    }
}

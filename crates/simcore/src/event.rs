//! The discrete-event engine: a time-ordered event queue with cancellation.
//!
//! [`Engine`] owns the simulation clock, the pending-event queue and the
//! root RNG. Components schedule payloads of a user-chosen event type `E`;
//! the driver loop pops them in `(time, insertion order)` order:
//!
//! ```
//! use ignem_simcore::{event::Engine, time::SimDuration};
//!
//! #[derive(Debug)]
//! enum Ev { Ping(u32) }
//!
//! let mut engine: Engine<Ev> = Engine::new(42);
//! engine.schedule_in(SimDuration::from_secs(1), Ev::Ping(7));
//! let mut seen = vec![];
//! while let Some(ev) = engine.pop() {
//!     match ev { Ev::Ping(n) => seen.push(n) }
//! }
//! assert_eq!(seen, vec![7]);
//! assert_eq!(engine.now().as_secs_f64(), 1.0);
//! ```
//!
//! ## The hierarchical timing wheel
//!
//! The queue is a hierarchical timing wheel (a calendar queue), not a
//! binary heap: 11 levels of 64 slots each, 6 bits of the microsecond
//! tick per level, covering the whole `u64` tick space. An event at
//! absolute tick `t` lives at the level of the most significant bit in
//! which `t` differs from the wheel's floor `elapsed` (the granularity at
//! which its deadline is still "far"), in the slot indexed by `t`'s 6-bit
//! digit at that level. Scheduling is O(1): one XOR, one leading-zeros,
//! one `Vec::push`. Popping promotes the earliest occupied slot — found
//! by scanning 11 per-level occupancy bitmaps — jumps the floor straight
//! to that slot's earliest tick (which is the global minimum, so one
//! promotion always yields ready work), and *cascades*: entries due at
//! the new floor become ready (sorted by insertion `seq`, so equal-time
//! events still fire in FIFO order), the rest re-insert at a strictly
//! lower level. Each entry cascades through at most `LEVELS` slots over
//! its lifetime, so schedule/pop are O(1) amortized — the `O(log n)`
//! heap sifts are gone, which is what lets a 12k-node world carry
//! millions of pending timers without the queue dominating the run.
//! Promotion recycles two scratch buffers (the swapped-out slot vector
//! and the due batch), so the steady-state hot path allocates nothing.
//!
//! Determinism is unchanged from the heap engine: the pop order is
//! *exactly* `(time, insertion seq)` — the wheel only ever reorders
//! storage, never the fire sequence — and `Clone` copies the wheel
//! (levels, bitmaps, floor, ready queue) structurally, so a cloned
//! engine pops the identical future sequence. World snapshots capture
//! the wheel cursors for free.
//!
//! ## Cancellation bookkeeping
//!
//! Cancellation is lazy: the wheel entry stays where it is and is dropped
//! when it surfaces. The bookkeeping lives in a generation-stamped slot
//! slab rather than a set of cancelled sequence numbers: every scheduled
//! event borrows a slot (its [`EventId`] packs slot index + generation)
//! that parks the payload — wheel entries carry only the `(time, seq)`
//! key and the slot index, so cascade copies stay small however large `E`
//! is — and popping — fired or cancelled — returns the slot to a free
//! list and bumps its generation. That makes every operation O(1)
//! amortized, bounds the slab by the maximum number of *concurrently
//! pending* events (it self-compacts via slot reuse), and makes
//! cancelling an already-fired or never-scheduled id a structural no-op:
//! its generation no longer matches. Live (`pending()`) and stored
//! counts are tracked explicitly, so idle checks are O(1) and peeking is
//! a pure read — unlike the old heap engine, `peek_time`/`peek` no
//! longer compact cancelled prefixes as a side effect.

use std::collections::VecDeque;

use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// A handle to a scheduled event, usable for cancellation.
///
/// Packs the event's slab slot and the slot's generation at scheduling
/// time; a stale handle (the event already fired or was cancelled) simply
/// no longer matches and cancels nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(u64);

impl EventId {
    fn new(slot: u32, gen: u32) -> Self {
        EventId((u64::from(gen) << 32) | u64::from(slot))
    }

    fn slot(self) -> u32 {
        self.0 as u32
    }

    fn gen(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// A wheel entry is the ordering key plus the slab slot holding the
/// payload: a small fixed-size value, so cascades move ~24 bytes instead
/// of the (potentially large) event payload itself.
#[derive(Debug, Clone)]
struct Entry {
    at: SimTime,
    seq: u64,
    slot: u32,
}

/// One slab slot: which incarnation lives here, whether it has been
/// cancelled while still in the wheel, and the parked payload (taken on
/// fire, dropped eagerly on cancel).
#[derive(Clone)]
struct Slot<E> {
    gen: u32,
    pending: bool,
    cancelled: bool,
    payload: Option<E>,
}

/// Bits of the tick consumed per wheel level.
const LEVEL_BITS: u32 = 6;
/// Slots per level (`2^LEVEL_BITS`).
const LEVEL_SLOTS: usize = 1 << LEVEL_BITS;
/// Levels needed to cover a full `u64` of microsecond ticks
/// (`11 × 6 = 66 ≥ 64`).
const LEVELS: usize = 11;

/// The calendar-queue structure: per-level slot vectors, occupancy
/// bitmaps, the wheel floor, and the ready queue of entries at the floor.
///
/// Invariants (between public engine operations):
/// - every stored entry has `at > elapsed` (levels) or `at == elapsed`
///   (ready queue);
/// - all level-`l` entries share `elapsed`'s tick digits above level `l`,
///   so within a level, slot index order is time order and every occupied
///   slot index is strictly greater than `elapsed`'s digit at that level;
/// - all level-`l` entries fire strictly before any level-`l+1` entry;
/// - `ready` is sorted by `seq` (cascades sort the batch they promote;
///   later schedules at the floor append with strictly larger seqs);
/// - `elapsed <= now` whenever the engine is quiescent.
#[derive(Clone)]
struct Wheel {
    /// `LEVELS × LEVEL_SLOTS` slot vectors, row-major by level.
    levels: Vec<Vec<Entry>>,
    /// Per-level occupancy bitmap: bit `s` set ⇔ `levels[l*64+s]` nonempty.
    occupied: [u64; LEVELS],
    /// Entries at tick `elapsed`, in seq order; `pop` drains from the front.
    ready: VecDeque<Entry>,
    /// The wheel floor in ticks: every level entry is strictly later.
    elapsed: u64,
    /// Recycled cascade buffer: swapped with the promoted slot's vector so
    /// steady-state promotion allocates nothing (a `mem::take` would throw
    /// the slot's capacity away on every cascade).
    cascade: Vec<Entry>,
    /// Recycled batch buffer for the entries due at the new floor.
    due: Vec<Entry>,
}

impl Wheel {
    fn new() -> Self {
        Wheel {
            levels: vec![Vec::new(); LEVELS * LEVEL_SLOTS],
            occupied: [0; LEVELS],
            ready: VecDeque::new(),
            elapsed: 0,
            cascade: Vec::new(),
            due: Vec::new(),
        }
    }

    /// The level and slot index for an entry at tick `at`, relative to
    /// the current floor. Caller guarantees `at > self.elapsed`.
    fn level_slot(&self, at: u64) -> (usize, usize) {
        let diff = at ^ self.elapsed;
        debug_assert!(diff != 0, "floor ticks belong in the ready queue");
        let msb = 63 - diff.leading_zeros();
        let level = (msb / LEVEL_BITS) as usize;
        let slot = ((at >> (LEVEL_BITS * level as u32)) & (LEVEL_SLOTS as u64 - 1)) as usize;
        (level, slot)
    }

    /// Files an entry: ready queue if it is due at the floor, otherwise
    /// the level/slot its tick digits select.
    fn insert(&mut self, entry: Entry) {
        let at = entry.at.as_micros();
        if at == self.elapsed {
            // Fresh schedules carry a seq larger than everything already
            // queued, so appending keeps `ready` seq-sorted; cascades only
            // reach here via `promote_earliest`, which sorts its batch.
            self.ready.push_back(entry);
        } else {
            let (level, slot) = self.level_slot(at);
            self.levels[level * LEVEL_SLOTS + slot].push(entry);
            self.occupied[level] |= 1 << slot;
        }
    }

    /// The earliest occupied `(level, slot)`, if any level holds entries.
    fn earliest_slot(&self) -> Option<(usize, usize)> {
        self.occupied
            .iter()
            .position(|&occ| occ != 0)
            .map(|level| (level, self.occupied[level].trailing_zeros() as usize))
    }

    /// Jumps the floor to the earliest stored tick and promotes every
    /// entry due there into `ready` (seq-sorted); later entries from the
    /// same slot re-file at a strictly lower level. Returns `false` when
    /// every level is empty — otherwise `ready` is guaranteed nonempty,
    /// so the caller never loops.
    ///
    /// Correctness of the timestamp jump: `earliest_slot` picks the
    /// lowest occupied level (all lower levels empty) and its lowest
    /// occupied slot, and slot order within a level is time order, so the
    /// minimum tick in that slot is the global minimum. Jumping `elapsed`
    /// to it only changes digits at or below the promoted level, which
    /// preserves the digit-sharing invariant for every other stored
    /// entry. Re-filed entries share the promoted slot's digit with the
    /// new floor, so `level_slot` sends them strictly lower; each entry
    /// still cascades at most `LEVELS` times over its lifetime.
    fn promote_earliest(&mut self) -> bool {
        let Some((level, slot)) = self.earliest_slot() else {
            return false;
        };
        // Swap the slot's vector with the recycled cascade buffer instead
        // of `mem::take`-ing it, so slot capacity survives the promotion.
        let idx = level * LEVEL_SLOTS + slot;
        // Sparse timers dominate: most promotions move a lone entry, which
        // needs no min-scan, no partition and no sort.
        if self.levels[idx].len() == 1 {
            #[expect(
                clippy::expect_used,
                reason = "the slot holds exactly one entry, checked just above"
            )]
            let entry = self.levels[idx].pop().expect("len checked above");
            self.occupied[level] &= !(1 << slot);
            debug_assert!(entry.at.as_micros() > self.elapsed);
            self.elapsed = entry.at.as_micros();
            debug_assert!(self.ready.is_empty(), "cascade only runs when drained");
            self.ready.push_back(entry);
            return true;
        }
        let mut batch = std::mem::take(&mut self.cascade);
        std::mem::swap(&mut batch, &mut self.levels[idx]);
        self.occupied[level] &= !(1 << slot);
        #[expect(
            clippy::expect_used,
            reason = "the occupied bitmap marks only nonempty slots"
        )]
        let min_at = batch
            .iter()
            .map(|e| e.at.as_micros())
            .min()
            .expect("occupied bitmap pointed at an empty slot");
        debug_assert!(min_at > self.elapsed, "slots always lie beyond the floor");
        self.elapsed = min_at;
        let mut due = std::mem::take(&mut self.due);
        for entry in batch.drain(..) {
            if entry.at.as_micros() == min_at {
                due.push(entry);
            } else {
                self.insert(entry);
            }
        }
        // Cascaded batches arrive in storage order; equal-time events must
        // still fire in insertion order. Seqs are unique so an unstable
        // (allocation-free) sort is exact.
        due.sort_unstable_by_key(|e| e.seq);
        debug_assert!(self.ready.is_empty(), "cascade only runs when drained");
        self.ready.extend(due.drain(..));
        self.cascade = batch;
        self.due = due;
        true
    }
}

/// The discrete-event simulation engine.
///
/// Generic over the event payload type `E` so each simulation defines its own
/// closed event vocabulary (an enum), keeping dispatch exhaustive and
/// allocation-free.
///
/// When `E: Clone` the whole engine is `Clone`: the wheel (levels,
/// occupancy bitmaps, floor cursor, ready queue), the slot slab (with
/// generation stamps), the free list and the root RNG all copy
/// structurally, so a clone pops the exact same future event sequence —
/// including insertion-order tie-breaks — as the original. This is what
/// makes world snapshots a memcpy-style fork rather than a replay.
#[derive(Clone)]
pub struct Engine<E> {
    now: SimTime,
    seq: u64,
    wheel: Wheel,
    slots: Vec<Slot<E>>,
    free: Vec<u32>,
    /// Entries still in the wheel, cancelled ones included.
    stored: usize,
    /// Live (uncancelled) entries in the wheel; `pending()` in O(1).
    live: usize,
    rng: SimRng,
    processed: u64,
}

impl<E> std::fmt::Debug for Engine<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("now", &self.now)
            .field("pending", &self.live)
            .field("processed", &self.processed)
            .finish()
    }
}

impl<E> Engine<E> {
    /// Creates an engine at time zero with a seeded root RNG.
    pub fn new(seed: u64) -> Self {
        Engine {
            now: SimTime::ZERO,
            seq: 0,
            wheel: Wheel::new(),
            slots: Vec::new(),
            free: Vec::new(),
            stored: 0,
            live: 0,
            rng: SimRng::new(seed),
            processed: 0,
        }
    }

    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events popped so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Whether any live (uncancelled) events remain. O(1).
    pub fn is_idle(&self) -> bool {
        self.live == 0
    }

    /// Number of live (uncancelled) events still queued. O(1): the count
    /// is tracked explicitly, not derived from queue length, so it is
    /// exact regardless of how many cancelled entries still sit in the
    /// wheel awaiting lazy removal.
    pub fn pending(&self) -> usize {
        self.live
    }

    /// The engine's root RNG.
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// Parks `payload` in a slot for a new event, reusing freed slots.
    fn alloc_slot(&mut self, payload: E) -> u32 {
        match self.free.pop() {
            Some(s) => {
                let slot = &mut self.slots[s as usize];
                slot.pending = true;
                slot.cancelled = false;
                slot.payload = Some(payload);
                s
            }
            None => {
                #[expect(
                    clippy::expect_used,
                    reason = "capacity guard: 2^32 pending events means a runaway schedule loop"
                )]
                let s = u32::try_from(self.slots.len()).expect("more than u32::MAX pending events");
                self.slots.push(Slot {
                    gen: 0,
                    pending: true,
                    cancelled: false,
                    payload: Some(payload),
                });
                s
            }
        }
    }

    /// Retires a slot as its wheel entry surfaces: bump the generation (so
    /// stale [`EventId`]s miss) and recycle the index.
    fn free_slot(&mut self, s: u32) {
        let slot = &mut self.slots[s as usize];
        slot.gen = slot.gen.wrapping_add(1);
        slot.pending = false;
        slot.cancelled = false;
        slot.payload = None;
        self.free.push(s);
    }

    /// Schedules `payload` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn schedule_at(&mut self, at: SimTime, payload: E) -> EventId {
        assert!(
            at >= self.now,
            "scheduling into the past: {at} < {}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        let s = self.alloc_slot(payload);
        self.wheel.insert(Entry { at, seq, slot: s });
        self.stored += 1;
        self.live += 1;
        EventId::new(s, self.slots[s as usize].gen)
    }

    /// Schedules `payload` after `delay`.
    pub fn schedule_in(&mut self, delay: SimDuration, payload: E) -> EventId {
        self.schedule_at(self.now + delay, payload)
    }

    /// Schedules `payload` to fire immediately (at the current time, after
    /// any already-queued events for this instant).
    pub fn schedule_now(&mut self, payload: E) -> EventId {
        self.schedule_at(self.now, payload)
    }

    /// Cancels a scheduled event. Cancelling an already-fired,
    /// already-cancelled or never-scheduled event is a true no-op: the
    /// handle's generation no longer matches any pending slot, so nothing
    /// is recorded and no state leaks.
    pub fn cancel(&mut self, id: EventId) {
        let s = id.slot() as usize;
        match self.slots.get_mut(s) {
            Some(slot) if slot.gen == id.gen() && slot.pending && !slot.cancelled => {
                slot.cancelled = true;
                // Drop the payload now rather than when the dead wheel
                // entry eventually surfaces.
                slot.payload = None;
                self.live -= 1;
            }
            _ => {}
        }
    }

    /// Pops the next event, advancing the clock to its timestamp.
    ///
    /// Returns `None` when no (uncancelled) events remain.
    pub fn pop(&mut self) -> Option<E> {
        loop {
            while let Some(entry) = self.wheel.ready.pop_front() {
                self.stored -= 1;
                if self.slots[entry.slot as usize].cancelled {
                    self.free_slot(entry.slot);
                    continue;
                }
                #[expect(
                    clippy::expect_used,
                    reason = "a pending slot holds its payload until it fires"
                )]
                let payload = self.slots[entry.slot as usize]
                    .payload
                    .take()
                    .expect("pending slot without payload");
                self.free_slot(entry.slot);
                debug_assert!(entry.at >= self.now, "time went backwards");
                self.now = entry.at;
                self.live -= 1;
                self.processed += 1;
                return Some(payload);
            }
            if self.stored == 0 {
                // Re-anchor the floor at the clock so an engine that went
                // idle mid-span files future schedules at full precision.
                self.wheel.elapsed = self.now.as_micros();
                return None;
            }
            let advanced = self.wheel.promote_earliest();
            debug_assert!(advanced, "stored entries but no occupied slot");
        }
    }

    /// The `(time, seq, slot)` key of the next event `pop` would fire,
    /// skipping cancelled entries, without mutating anything.
    ///
    /// Cancelled entries stay put (lazy removal happens in `pop`); the
    /// scan walks the ready queue, then the earliest occupied slots in
    /// level order — levels are strictly layered in time, and within a
    /// level slot index order is time order, so the first slot containing
    /// a live entry holds the minimum.
    fn peek_key(&self) -> Option<(SimTime, u32)> {
        for entry in &self.wheel.ready {
            if !self.slots[entry.slot as usize].cancelled {
                return Some((entry.at, entry.slot));
            }
        }
        for level in 0..LEVELS {
            let mut occ = self.wheel.occupied[level];
            while occ != 0 {
                let slot = occ.trailing_zeros() as usize;
                occ &= occ - 1;
                let mut best: Option<&Entry> = None;
                for entry in &self.wheel.levels[level * LEVEL_SLOTS + slot] {
                    if self.slots[entry.slot as usize].cancelled {
                        continue;
                    }
                    if best
                        .map(|b| (entry.at, entry.seq) < (b.at, b.seq))
                        .unwrap_or(true)
                    {
                        best = Some(entry);
                    }
                }
                if let Some(entry) = best {
                    return Some((entry.at, entry.slot));
                }
            }
        }
        None
    }

    /// Peeks at the timestamp of the next event without firing it.
    ///
    /// A pure read: unlike the old heap engine, the peek does not compact
    /// cancelled entries — those are removed lazily by [`Engine::pop`] —
    /// and the live/pending accounting is maintained by explicit counters,
    /// so nothing observable (or hidden) changes. The `&mut` receiver is
    /// kept for API stability with existing call sites.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.peek_key().map(|(at, _)| at)
    }

    /// Peeks at the next event — timestamp and a borrow of its payload —
    /// without firing it.
    ///
    /// Same contract as [`Engine::peek_time`]: a pure read. The driver
    /// loop uses this to decide whether the *next* event is a branch
    /// point (e.g. a fault injection) worth snapshotting before.
    pub fn peek(&mut self) -> Option<(SimTime, &E)> {
        let (at, slot) = self.peek_key()?;
        #[expect(
            clippy::expect_used,
            reason = "a pending slot holds its payload until it fires"
        )]
        let payload = self.slots[slot as usize]
            .payload
            .as_ref()
            .expect("pending slot without payload");
        Some((at, payload))
    }

    /// Runs the simulation to completion, dispatching each event to
    /// `handler`. The handler may schedule further events.
    ///
    /// ```
    /// use ignem_simcore::{event::Engine, time::SimDuration};
    ///
    /// let mut engine: Engine<u32> = Engine::new(0);
    /// engine.schedule_in(SimDuration::from_secs(1), 3);
    /// let mut total = 0;
    /// engine.run(|eng, n| {
    ///     total += n;
    ///     if n > 1 {
    ///         eng.schedule_in(SimDuration::from_secs(1), n - 1);
    ///     }
    /// });
    /// assert_eq!(total, 3 + 2 + 1);
    /// ```
    pub fn run(&mut self, mut handler: impl FnMut(&mut Engine<E>, E)) {
        while let Some(ev) = self.pop() {
            handler(self, ev);
        }
    }

    /// Runs until the clock would pass `deadline`; events at exactly
    /// `deadline` are processed. Returns the number of events handled.
    pub fn run_until(
        &mut self,
        deadline: SimTime,
        mut handler: impl FnMut(&mut Engine<E>, E),
    ) -> u64 {
        let mut handled = 0;
        while let Some(t) = self.peek_time() {
            if t > deadline {
                break;
            }
            let Some(ev) = self.pop() else {
                break;
            };
            handler(self, ev);
            handled += 1;
        }
        if self.now < deadline {
            self.now = deadline;
        }
        handled
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fire_in_time_order() {
        let mut e: Engine<u32> = Engine::new(0);
        e.schedule_at(SimTime::from_micros(30), 3);
        e.schedule_at(SimTime::from_micros(10), 1);
        e.schedule_at(SimTime::from_micros(20), 2);
        let mut got = vec![];
        e.run(|_, v| got.push(v));
        assert_eq!(got, vec![1, 2, 3]);
    }

    #[test]
    fn ties_fire_in_insertion_order() {
        let mut e: Engine<u32> = Engine::new(0);
        let t = SimTime::from_micros(5);
        for i in 0..10 {
            e.schedule_at(t, i);
        }
        let mut got = vec![];
        e.run(|_, v| got.push(v));
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    /// Ties must survive a cascade: events scheduled at the same distant
    /// tick start out in a coarse slot together with differently-timed
    /// neighbours and are only separated (and seq-ordered) as the wheel
    /// promotes them level by level.
    #[test]
    fn ties_fire_in_insertion_order_across_cascades() {
        let mut e: Engine<u32> = Engine::new(0);
        let far = SimTime::from_micros(1_000_003);
        // Interleave two tied groups plus scattered neighbours.
        e.schedule_at(far, 0);
        e.schedule_at(SimTime::from_micros(1_000_001), 100);
        e.schedule_at(far, 1);
        e.schedule_at(SimTime::from_micros(999_999), 99);
        e.schedule_at(far, 2);
        let mut got = vec![];
        e.run(|_, v| got.push(v));
        assert_eq!(got, vec![99, 100, 0, 1, 2]);
    }

    /// Long-horizon schedules exercise every wheel level; order must hold
    /// across widely spread timestamps, including the top levels.
    #[test]
    fn long_horizon_events_fire_in_order() {
        let mut e: Engine<u64> = Engine::new(0);
        let mut ticks: Vec<u64> = (0..40).map(|i| 7u64 << i).collect();
        ticks.push(1);
        ticks.push(u64::MAX / 2);
        for &t in ticks.iter().rev() {
            e.schedule_at(SimTime::from_micros(t), t);
        }
        let mut got = vec![];
        e.run(|_, v| got.push(v));
        ticks.sort_unstable();
        assert_eq!(got, ticks);
    }

    #[test]
    fn cancellation_suppresses_events() {
        let mut e: Engine<u32> = Engine::new(0);
        let a = e.schedule_at(SimTime::from_micros(1), 1);
        e.schedule_at(SimTime::from_micros(2), 2);
        e.cancel(a);
        let mut got = vec![];
        e.run(|_, v| got.push(v));
        assert_eq!(got, vec![2]);
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut e: Engine<u32> = Engine::new(0);
        let a = e.schedule_at(SimTime::from_micros(1), 1);
        assert_eq!(e.pop(), Some(1));
        e.cancel(a); // must not panic or corrupt
        assert_eq!(e.pop(), None);
    }

    /// Regression: cancelling a fired (or repeatedly cancelling the same)
    /// event used to park its seq in the cancelled set forever, skewing
    /// `is_idle` and leaking memory. Now it is a structural no-op.
    #[test]
    fn cancel_after_fire_does_not_skew_idle_accounting() {
        let mut e: Engine<u32> = Engine::new(0);
        let a = e.schedule_at(SimTime::from_micros(1), 1);
        assert_eq!(e.pop(), Some(1));
        e.cancel(a);
        assert!(e.is_idle(), "stale cancel must not count as pending work");
        assert_eq!(e.stored - e.live, 0);

        // Double-cancel of a live event counts once; firing clears it.
        let b = e.schedule_at(SimTime::from_micros(2), 2);
        e.cancel(b);
        e.cancel(b);
        assert_eq!(e.stored - e.live, 1);
        assert!(e.is_idle());
        assert_eq!(e.pop(), None);
        assert_eq!(e.stored - e.live, 0);

        // A stale handle whose slot was re-used must not cancel the new
        // tenant: generations differ.
        let c = e.schedule_at(SimTime::from_micros(3), 3);
        assert_eq!(e.pop(), Some(3));
        let d = e.schedule_at(SimTime::from_micros(4), 4); // reuses c's slot
        e.cancel(c);
        assert!(!e.is_idle(), "stale cancel must not kill the new event");
        assert_eq!(e.pop(), Some(4));
        let _ = d;
    }

    /// The slab must stay bounded by peak concurrency, not total events:
    /// that is the self-compaction the lazy-cancellation rework promises.
    #[test]
    fn slot_slab_stays_bounded_under_churn() {
        let mut e: Engine<u64> = Engine::new(0);
        for i in 0..10_000u64 {
            let id = e.schedule_at(SimTime::from_micros(i + 1), i);
            if i % 2 == 0 {
                e.cancel(id);
            }
            e.pop();
        }
        assert!(
            e.slots.len() <= 4,
            "slab grew to {} slots under serial churn",
            e.slots.len()
        );
    }

    #[test]
    fn clock_advances_to_event_time() {
        let mut e: Engine<()> = Engine::new(0);
        e.schedule_at(SimTime::from_secs_f64(2.5), ());
        e.pop();
        assert_eq!(e.now(), SimTime::from_secs_f64(2.5));
    }

    #[test]
    fn schedule_during_run_works() {
        let mut e: Engine<u32> = Engine::new(0);
        e.schedule_in(SimDuration::from_secs(1), 5);
        let mut count = 0;
        e.run(|eng, n| {
            count += 1;
            if n > 0 {
                eng.schedule_in(SimDuration::from_secs(1), n - 1);
            }
        });
        assert_eq!(count, 6);
        assert_eq!(e.now().as_secs_f64(), 6.0);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut e: Engine<u32> = Engine::new(0);
        e.schedule_at(SimTime::from_secs_f64(1.0), 1);
        e.schedule_at(SimTime::from_secs_f64(5.0), 2);
        let mut got = vec![];
        let n = e.run_until(SimTime::from_secs_f64(2.0), |_, v| got.push(v));
        assert_eq!(n, 1);
        assert_eq!(got, vec![1]);
        assert_eq!(e.now(), SimTime::from_secs_f64(2.0));
        // Remaining event still fires later.
        e.run(|_, v| got.push(v));
        assert_eq!(got, vec![1, 2]);
    }

    /// Scheduling after `run_until` advanced the clock past the wheel
    /// floor must file correctly relative to the stale floor.
    #[test]
    fn schedule_after_run_until_keeps_order() {
        let mut e: Engine<u32> = Engine::new(0);
        e.schedule_at(SimTime::from_micros(10_000_000), 3);
        e.run_until(SimTime::from_micros(1_234_567), |_, _| {});
        e.schedule_at(SimTime::from_micros(1_234_568), 1);
        e.schedule_at(SimTime::from_micros(2_000_000), 2);
        let mut got = vec![];
        e.run(|_, v| got.push(v));
        assert_eq!(got, vec![1, 2, 3]);
    }

    #[test]
    fn peek_skips_cancelled() {
        let mut e: Engine<u32> = Engine::new(0);
        let a = e.schedule_at(SimTime::from_micros(1), 1);
        e.schedule_at(SimTime::from_micros(2), 2);
        e.cancel(a);
        assert_eq!(e.peek_time(), Some(SimTime::from_micros(2)));
    }

    /// Peeking is now a pure read: cancelled entries stay in the wheel
    /// until `pop` surfaces them, and the O(1) `pending()`/`is_idle`
    /// counters are exact throughout — no hidden compaction required.
    /// (The heap engine drained cancelled prefixes inside `peek_time`;
    /// this pins the replacement contract.)
    #[test]
    fn peek_is_pure_and_pending_counters_are_exact() {
        let mut e: Engine<u32> = Engine::new(0);
        let a = e.schedule_at(SimTime::from_micros(1), 1);
        let b = e.schedule_at(SimTime::from_micros(2), 2);
        e.schedule_at(SimTime::from_micros(3), 3);
        e.cancel(a);
        e.cancel(b);
        assert_eq!(e.stored, 3);
        assert_eq!(e.pending(), 1);

        assert_eq!(e.peek_time(), Some(SimTime::from_micros(3)));
        // The peek changed nothing — the cancelled entries are still
        // stored, the counters still exact, the clock untouched.
        assert_eq!(e.stored, 3);
        assert_eq!(e.pending(), 1);
        assert_eq!(e.now(), SimTime::ZERO);
        assert_eq!(e.processed(), 0);
        assert!(!e.is_idle());
        assert_eq!(e.pop(), Some(3));
        assert_eq!(e.pop(), None);
        assert_eq!(e.stored, 0);
        assert_eq!(e.pending(), 0);
    }

    /// `peek` must return the payload of the event `pop` would fire next,
    /// skipping cancelled entries exactly like `peek_time`.
    #[test]
    fn peek_returns_next_payload_without_firing() {
        let mut e: Engine<u32> = Engine::new(0);
        let a = e.schedule_at(SimTime::from_micros(1), 1);
        e.schedule_at(SimTime::from_micros(2), 2);
        e.cancel(a);
        assert_eq!(e.peek(), Some((SimTime::from_micros(2), &2)));
        // Nothing observable changed: the clock holds and pop still fires.
        assert_eq!(e.now(), SimTime::ZERO);
        assert_eq!(e.processed(), 0);
        assert_eq!(e.pop(), Some(2));
        assert_eq!(e.peek(), None);
    }

    /// A cloned engine must pop the exact same future sequence — times,
    /// payloads and insertion-order tie-breaks — as the original, and the
    /// two must diverge independently afterwards.
    #[test]
    fn cloned_engine_pops_identical_sequence() {
        let mut e: Engine<u32> = Engine::new(7);
        let t = SimTime::from_micros(5);
        for i in 0..8 {
            e.schedule_at(t, i); // all tied: insertion order must survive
        }
        let c = e.schedule_at(SimTime::from_micros(9), 100);
        e.schedule_at(SimTime::from_micros(8), 99);
        e.cancel(c);
        assert_eq!(e.pop(), Some(0));

        let mut fork = e.clone();
        let drain = |eng: &mut Engine<u32>| {
            let mut got = vec![];
            while let Some(v) = eng.pop() {
                got.push((eng.now(), v));
            }
            got
        };
        let a = drain(&mut e);
        let b = drain(&mut fork);
        assert_eq!(a, b);
        assert_eq!(a.last(), Some(&(SimTime::from_micros(8), 99)));
        // Post-fork schedules are independent.
        fork.schedule_at(SimTime::from_micros(20), 42);
        assert_eq!(fork.pop(), Some(42));
        assert_eq!(e.pop(), None);
    }

    #[test]
    fn is_idle_accounts_for_cancellations() {
        let mut e: Engine<u32> = Engine::new(0);
        assert!(e.is_idle());
        let a = e.schedule_at(SimTime::from_micros(1), 1);
        assert!(!e.is_idle());
        e.cancel(a);
        assert!(e.is_idle());
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn rejects_past_scheduling() {
        let mut e: Engine<u32> = Engine::new(0);
        e.schedule_at(SimTime::from_secs(5), 1);
        e.pop();
        e.schedule_at(SimTime::from_secs(1), 2);
    }

    /// Property test: the wheel against a reference model with the binary
    /// heap's ordering semantics — a sorted `(time, seq)` list. Random
    /// interleavings of schedule / cancel / pop / peek / clone-restore
    /// must produce the identical pop sequence, tie-breaks included, and
    /// identical O(1) pending counts throughout.
    #[test]
    fn wheel_matches_reference_heap_model() {
        for seed in 0..32u64 {
            let mut rng = SimRng::new(0xF1EE_D00D ^ seed);
            let mut e: Engine<u64> = Engine::new(1);
            // Model entry: (at, seq, payload, cancelled), sorted on demand.
            type Model = Vec<(SimTime, u64, u64, bool)>;
            let mut model: Model = Vec::new();
            let mut ids: Vec<(EventId, u64)> = Vec::new(); // (handle, seq)
            let mut next_seq = 0u64;
            let mut snapshot: Option<(Engine<u64>, Model)> = None;

            for step in 0..4_000 {
                match rng.index(100) {
                    // Schedule at a horizon spanning several wheel levels;
                    // small ranges force frequent exact-time ties.
                    0..=49 => {
                        let horizon = match rng.index(4) {
                            0 => 8,
                            1 => 1_000,
                            2 => 1_000_000,
                            _ => 40_000_000_000,
                        };
                        let at = e.now() + SimDuration::from_micros(rng.index(horizon) as u64);
                        let id = e.schedule_at(at, next_seq);
                        model.push((at, next_seq, next_seq, false));
                        ids.push((id, next_seq));
                        next_seq += 1;
                    }
                    50..=59 => {
                        if !ids.is_empty() {
                            let (id, seq) = ids[rng.index(ids.len())];
                            e.cancel(id);
                            if let Some(m) = model.iter_mut().find(|m| m.1 == seq) {
                                m.3 = true;
                            }
                        }
                    }
                    60..=64 => {
                        // Clone both sides; later restore swaps them in.
                        snapshot = Some((e.clone(), model.clone()));
                    }
                    65..=67 => {
                        if let Some((se, sm)) = snapshot.take() {
                            e = se;
                            model = sm;
                            // Handles from the other timeline are stale;
                            // dropping them only loses cancel coverage.
                            ids.clear();
                        }
                    }
                    _ => {
                        model.sort_by_key(|&(at, seq, _, _)| (at, seq));
                        let expect = model.iter().position(|m| !m.3);
                        let peeked = e.peek_time();
                        assert_eq!(
                            peeked,
                            expect.map(|i| model[i].0),
                            "peek mismatch at step {step} (seed {seed})"
                        );
                        let popped = e.pop();
                        match expect {
                            Some(i) => {
                                let (at, _, payload, _) = model[i];
                                assert_eq!(popped, Some(payload), "pop payload (seed {seed})");
                                assert_eq!(e.now(), at, "pop clock (seed {seed})");
                                model.drain(..=i);
                            }
                            None => {
                                assert_eq!(popped, None, "pop on empty (seed {seed})");
                                model.clear();
                            }
                        }
                    }
                }
                let live = model.iter().filter(|m| !m.3).count();
                assert_eq!(
                    e.pending(),
                    live,
                    "pending count at step {step} (seed {seed})"
                );
                assert_eq!(e.is_idle(), live == 0);
            }

            // Drain: the full remaining sequence must match the model's.
            model.sort_by_key(|&(at, seq, _, _)| (at, seq));
            let expected: Vec<u64> = model
                .iter()
                .filter(|m| !m.3)
                .map(|&(_, _, p, _)| p)
                .collect();
            let mut got = Vec::new();
            while let Some(v) = e.pop() {
                got.push(v);
            }
            assert_eq!(got, expected, "drain order (seed {seed})");
        }
    }
}

//! Per-thread, generation-stamped kernel workspaces.
//!
//! The hot kernels (the sparse accumulator `spgemm` and `vxm` share,
//! `spmv`'s input densification table) all need O(n) scratch that used to
//! be `vec![...; n]`-allocated on every call — a 19-iteration PageRank
//! paid 19×k accumulator allocations. This module lets kernels
//! *check out* scratch from a per-thread cache and return it on drop, so an
//! iterative algorithm allocates its scratch once per worker thread.
//!
//! Correctness rests on every checkout starting a new pass: [`Spa`] raises
//! a watermark past every cell the last pass wrote (as does every
//! [`Spa::begin_pass`]), [`BitSet`] — and [`MarkTable`], which keeps its
//! presence bits in one — zeroes the words the last pass touched. Stale
//! data from a previous kernel can therefore never leak into a later one,
//! and clearing stays O(touched), not O(n).
//!
//! Checkout *removes* the workspace from the thread's cache, so two
//! kernels interleaved on one thread get distinct workspaces — the second
//! checkout simply allocates fresh. Reuse statistics report into
//! `graphblas-obs` (`workspace.checkouts` / `hits` / `bytes_reused`) when
//! telemetry is enabled.
//!
//! The same cache keeps a *result shelf*: at most one `Vec<T>` per element
//! type, fed with the arrays of a result store nobody else holds when it
//! is dropped or replaced ([`shelve_vec`]) and drawn by the kernels that
//! know their output size before they allocate ([`take_vec`],
//! [`take_filled`]). A large result freed and allocated again every rep is
//! otherwise a fresh `mmap` faulted in one page at a time. A taken buffer
//! is always cleared, so stale contents can never be read. Shelved bytes
//! count in the obs workspace gauge like cached scratch, and [`trim`]
//! releases both.

use std::any::{Any, TypeId};
use std::cell::RefCell;
use std::collections::HashMap;
use std::ops::{Deref, DerefMut};

/// A scratch structure that can live in the per-thread cache.
pub trait Reusable: Sized + 'static {
    /// A zero-capacity instance (grown on first [`Reusable::prepare`]).
    fn fresh() -> Self;
    /// Sizes the workspace for a problem of size `n` and starts a new
    /// generation, invalidating all previously visible entries.
    fn prepare(&mut self, n: usize);
    /// Currently allocated buffer bytes (reuse accounting).
    fn reusable_bytes(&self) -> u64;
}

/// The per-thread cache. Each entry remembers the buffer bytes it
/// reported to the obs workspace memory gauge at insert time (0 when
/// telemetry was off), so removals subtract exactly what was added —
/// the gauge cannot drift across telemetry toggles.
#[derive(Default)]
struct ThreadCache {
    map: HashMap<TypeId, (Box<dyn Any>, u64)>,
    /// Monotonic checkout ordinal for this thread: decision events carry
    /// it so an explain log shows each checkout's position in the
    /// thread's reuse history.
    generation: u64,
}

impl ThreadCache {
    fn release_all(&mut self) {
        let recorded: u64 = self.map.values().map(|(_, b)| b).sum();
        graphblas_obs::mem::workspace().sub(recorded);
        if !self.map.is_empty() && graphblas_obs::events::on() {
            graphblas_obs::events::decision_workspace_trim(self.map.len() as u64, recorded);
        }
        self.map.clear();
    }
}

impl Drop for ThreadCache {
    fn drop(&mut self) {
        self.release_all();
    }
}

thread_local! {
    static CACHE: RefCell<ThreadCache> = RefCell::new(ThreadCache::default());
}

/// RAII handle to a checked-out workspace; returns it to the thread's
/// cache on drop.
pub struct Checkout<T: Reusable> {
    inner: Option<T>,
}

impl<T: Reusable> Deref for Checkout<T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("live checkout holds a workspace")
    }
}

impl<T: Reusable> DerefMut for Checkout<T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("live checkout holds a workspace")
    }
}

impl<T: Reusable> Drop for Checkout<T> {
    fn drop(&mut self) {
        if let Some(ws) = self.inner.take() {
            let recorded = if graphblas_obs::enabled() {
                let b = ws.reusable_bytes();
                graphblas_obs::mem::workspace().add(b);
                b
            } else {
                0
            };
            CACHE.with(|c| {
                let replaced = c
                    .borrow_mut()
                    .map
                    .insert(TypeId::of::<T>(), (Box::new(ws), recorded));
                if let Some((_, old)) = replaced {
                    graphblas_obs::mem::workspace().sub(old);
                }
            });
        }
    }
}

/// Checks a workspace of type `T` out of the current thread's cache (or
/// allocates a fresh one), prepared for a problem of size `n`.
pub fn checkout<T: Reusable>(n: usize) -> Checkout<T> {
    let cached: Option<T> = CACHE
        .with(|c| c.borrow_mut().map.remove(&TypeId::of::<T>()))
        .and_then(|(b, recorded)| {
            graphblas_obs::mem::workspace().sub(recorded);
            b.downcast::<T>().ok()
        })
        .map(|b| *b);
    let hit = cached.is_some();
    let mut ws = cached.unwrap_or_else(T::fresh);
    if graphblas_obs::enabled() {
        let reused = if hit { ws.reusable_bytes() } else { 0 };
        graphblas_obs::counters::record_workspace_checkout(hit, reused);
        if graphblas_obs::events::on() {
            let generation = CACHE.with(|c| {
                let mut c = c.borrow_mut();
                c.generation += 1;
                c.generation
            });
            graphblas_obs::events::decision_workspace(
                std::any::type_name::<T>(),
                hit,
                n as u64,
                reused,
                generation,
            );
        }
    }
    ws.prepare(n);
    Checkout { inner: Some(ws) }
}

/// Releases every workspace and shelved buffer the current thread's cache
/// holds. The cache refills on the next checkout or shelving.
pub fn trim() {
    let _ = CACHE.try_with(|c| c.borrow_mut().release_all());
}

/// Smallest buffer the result shelf keeps, in bytes: small results are
/// left to the allocator's free lists. On the `spgemm` benchmark (14.7 MB
/// product arrays, 1.1–1.8 MB triangle-count arrays) a 1 MiB floor took
/// the rep's faults from 7 072 to 0, where a 4 MiB one left 1 907: the
/// allocator then maps and unmaps the 1–2 MB arrays every rep.
const SHELF_FLOOR_BYTES: usize = 1 << 20;

/// Largest ratio of a shelved buffer's capacity to the request it is
/// handed out for. `spgemm`'s 229 k-entry `select` result must not take
/// the 1.8 M-entry product's buffer (a ratio of 7.9), while a product that
/// varies a little from rep to rep should still find its own.
const SHELF_FIT: usize = 2;

/// Requests in a row a shelved buffer may be passed over for before it is
/// freed: takes of its type it does not fit, and shelvings of a smaller
/// buffer it outranks. So one huge result dropped early in a program does
/// not pin its arrays for the life of the thread once later results are
/// smaller. A `spgemm` benchmark rep passes the product's `usize` buffer
/// over 3 times, and up to 8 (5 takes and 3 smaller shelvings in the
/// triangle count), before the product takes it back; a patience of 8
/// evicted it and the rep faulted its 14.7 MB index array in again. 32
/// leaves room for a rep 4× as busy.
const SHELF_PATIENCE: u32 = 32;

/// A buffer on the shelf and how many requests in a row it has been
/// passed over for.
struct Shelved<T> {
    buf: Vec<T>,
    misses: u32,
}

impl<T> Shelved<T> {
    /// Counts one more request the buffer did not serve; true once it has
    /// missed [`SHELF_PATIENCE`] in a row and should be freed.
    fn miss(&mut self) -> bool {
        self.misses += 1;
        self.misses >= SHELF_PATIENCE
    }
}

/// Offers `v` to the current thread's result shelf. The shelf keeps one
/// buffer per element type, the larger of the held one and `v` (or `v`,
/// when the held one has been passed over [`SHELF_PATIENCE`] times in a
/// row); the other is freed. `v`'s elements are dropped first, outside the
/// cache borrow (an element's own drop may shelve), so the shelf only ever
/// holds capacity.
pub fn shelve_vec<T: 'static>(mut v: Vec<T>) {
    let bytes = v.capacity() * std::mem::size_of::<T>();
    if bytes < SHELF_FLOOR_BYTES {
        return;
    }
    v.clear();
    let recorded = if graphblas_obs::enabled() { bytes as u64 } else { 0 };
    let _ = CACHE.try_with(|c| {
        let Ok(mut c) = c.try_borrow_mut() else {
            return;
        };
        let key = TypeId::of::<Shelved<T>>();
        let held = c.map.get_mut(&key).and_then(|(b, _)| b.downcast_mut::<Shelved<T>>());
        if held.is_some_and(|h| h.buf.capacity() >= v.capacity() && !h.miss()) {
            return;
        }
        graphblas_obs::mem::workspace().add(recorded);
        let shelved = Box::new(Shelved { buf: v, misses: 0 });
        if let Some((_, old)) = c.map.insert(key, (shelved, recorded)) {
            graphblas_obs::mem::workspace().sub(old);
        }
    });
}

/// An empty `Vec<T>` with capacity for exactly `n` elements: the current
/// thread's shelved buffer when its capacity is at least `n` and at most
/// [`SHELF_FIT`] times `n` (given back down to `n`), a fresh allocation
/// otherwise.
pub fn take_vec<T: 'static>(n: usize) -> Vec<T> {
    match take_shelved::<T>(n) {
        Some(mut v) => {
            v.shrink_to(n);
            v
        }
        None => Vec::with_capacity(n),
    }
}

/// `vec![value; n]`, built in the current thread's shelved buffer when one
/// fits (see [`take_vec`]).
pub fn take_filled<T: Clone + 'static>(n: usize, value: T) -> Vec<T> {
    match take_shelved::<T>(n) {
        Some(mut v) => {
            v.shrink_to(n);
            v.resize(n, value);
            v
        }
        None => vec![value; n],
    }
}

/// Removes the shelved `Vec<T>` if it fits a request for `n` elements. A
/// buffer that does not fit counts a miss, and is freed (outside the
/// cache borrow) on its [`SHELF_PATIENCE`]th in a row.
fn take_shelved<T: 'static>(n: usize) -> Option<Vec<T>> {
    let key = TypeId::of::<Shelved<T>>();
    let (b, recorded, fits) = CACHE
        .try_with(|c| {
            let mut c = c.try_borrow_mut().ok()?;
            let held = c.map.get_mut(&key)?.0.downcast_mut::<Shelved<T>>()?;
            let cap = held.buf.capacity();
            let fits = n <= cap && cap <= n.saturating_mul(SHELF_FIT);
            let (b, recorded) = (fits || held.miss()).then(|| c.map.remove(&key)).flatten()?;
            Some((b, recorded, fits))
        })
        .ok()
        .flatten()?;
    graphblas_obs::mem::workspace().sub(recorded);
    let v = b.downcast::<Shelved<T>>().ok()?.buf;
    debug_assert!(v.is_empty(), "a shelved buffer holds elements");
    fits.then_some(v)
}

/// What a pass's [`Spa::mark`]ed positions mean to [`Spa::upsert`] and
/// [`Spa::visit`]: the output-mask policy of a product kernel. Callers
/// pass a constant, so the test folds away in the flop loop.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Marks {
    /// Nothing is marked; every position accepts (an unmasked product).
    Ignore,
    /// Only marked positions accept (a plain mask: the mask row is
    /// scattered in as "allowed").
    Admit,
    /// Marked positions refuse (a complemented mask: "forbidden").
    Reject,
}

/// Stamped sparse accumulator: the SPA of Gustavson-style kernels, with
/// the output mask fused into the same table. `cell[j]` is compared with
/// the pass's watermark `base`: below it the position is untouched (stale
/// from an earlier pass), equal to it the position is *marked*, above it
/// the position holds a value and `cell[j] - base - 1` is its slot in the
/// compact, first-touch-ordered `cols`/`vals` arrays. A flop is therefore
/// one table load that skips, initialises or combines in place, and
/// [`Spa::begin_pass`] clears everything by raising the watermark past
/// every cell the last pass wrote — O(1), no per-slot `Option`.
pub struct Spa<Z: 'static> {
    cell: Vec<usize>,
    base: usize,
    cols: Vec<usize>,
    vals: Vec<Z>,
}

impl<Z: 'static> Spa<Z> {
    /// Starts a new accumulation pass: every entry and mark becomes
    /// invisible, in O(1) (O(n) only if the watermark would overflow).
    pub fn begin_pass(&mut self) {
        // The last pass wrote cells in `base ..= base + max(len, 1)`
        // (`visit` writes `base + 1` without growing `cols`); the coming
        // one writes up to `next + cell.len()`.
        let next = self.base.checked_add(self.cols.len().max(1) + 1);
        match next.filter(|next| next.checked_add(self.cell.len()).is_some()) {
            Some(next) => self.base = next,
            None => {
                self.cell.iter_mut().for_each(|c| *c = 0);
                self.base = 1;
            }
        }
        self.cols.clear();
        self.vals.clear();
    }

    /// Marks position `j` for this pass (see [`Marks`]). Marks go in
    /// before the pass's first `upsert`/`visit`.
    #[inline]
    pub fn mark(&mut self, j: usize) {
        self.cell[j] = self.base;
    }

    /// Combines `make()` into the value at `j` with `add`, or stores it as
    /// the first value there, or — where `marks` refuses `j` — does
    /// nothing, without calling `make`.
    #[inline]
    pub fn upsert(
        &mut self,
        j: usize,
        marks: Marks,
        make: impl FnOnce() -> Z,
        add: impl FnOnce(&mut Z, Z),
    ) {
        let c = self.cell[j];
        if c > self.base {
            add(&mut self.vals[c - self.base - 1], make());
        } else if accepts(marks, c == self.base) {
            self.cols.push(j);
            self.vals.push(make());
            self.cell[j] = self.base + self.cols.len();
        }
    }

    /// The symbolic half of [`Spa::upsert`]: records that `j` would hold a
    /// value, storing none. `true` the first time an accepted `j` is seen
    /// this pass. A pass either visits or upserts, never both.
    #[inline]
    pub fn visit(&mut self, j: usize, marks: Marks) -> bool {
        let c = self.cell[j];
        let first = c <= self.base && accepts(marks, c == self.base);
        if first {
            self.cell[j] = self.base + 1;
        }
        first
    }

    /// The value held at `j` this pass, if any.
    #[inline]
    pub fn get(&self, j: usize) -> Option<&Z> {
        let c = self.cell[j];
        (c > self.base).then(|| &self.vals[c - self.base - 1])
    }

    /// Number of values held this pass.
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// Whether the pass holds no value.
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }

    /// Moves the pass's entries onto the end of `idx`/`vals`, in
    /// first-touch order, and returns how many there were.
    pub fn append_to(&mut self, idx: &mut Vec<usize>, vals: &mut Vec<Z>) -> usize {
        let n = self.cols.len();
        idx.extend_from_slice(&self.cols);
        vals.append(&mut self.vals);
        n
    }
}

impl<Z: Clone + 'static> Spa<Z> {
    /// Copies the entries held at the positions `order` yields onto the
    /// end of `idx`/`vals`, in that order (positions holding nothing are
    /// skipped), and returns how many there were. Walking a sorted mask
    /// row emits a sorted output row without sorting anything.
    pub fn append_in_order(
        &self,
        order: impl IntoIterator<Item = usize>,
        idx: &mut Vec<usize>,
        vals: &mut Vec<Z>,
    ) -> usize {
        let before = idx.len();
        for j in order {
            if let Some(v) = self.get(j) {
                idx.push(j);
                vals.push(v.clone());
            }
        }
        idx.len() - before
    }

    /// [`Spa::append_in_order`] over the pass's own positions, ascending.
    pub fn append_sorted(&mut self, idx: &mut Vec<usize>, vals: &mut Vec<Z>) -> usize {
        // Slots are found through `cell`, not by position in `cols`, so
        // sorting it loses nothing — but only `begin_pass` may follow.
        self.cols.sort_unstable();
        self.append_in_order(self.cols.iter().copied(), idx, vals)
    }
}

/// Whether a position that holds no value yet accepts one under `marks`.
#[inline(always)]
fn accepts(marks: Marks, marked: bool) -> bool {
    match marks {
        Marks::Ignore => true,
        Marks::Admit => marked,
        Marks::Reject => !marked,
    }
}

impl<Z: 'static> Reusable for Spa<Z> {
    fn fresh() -> Self {
        Spa {
            cell: Vec::new(),
            base: 0,
            cols: Vec::new(),
            vals: Vec::new(),
        }
    }

    fn prepare(&mut self, n: usize) {
        if self.cell.len() < n {
            self.cell.resize(n, 0);
        }
        self.begin_pass();
    }

    fn reusable_bytes(&self) -> u64 {
        ((self.cell.capacity() + self.cols.capacity()) * std::mem::size_of::<usize>()
            + self.vals.capacity() * std::mem::size_of::<Z>()) as u64
    }
}

/// Index table behind a presence bit: maps a column index to a position
/// in some external array (the `spmv` input-densification table, without
/// the borrowed references that would pin a lifetime). Whether `j` was set
/// this pass is one bit of a [`BitSet`] — eight kilobytes at n = 65 536,
/// so a miss in the pull row loop is a cache-resident bit test and only a
/// hit loads `pos[j]`.
pub struct MarkTable {
    present: BitSet,
    pos: Vec<usize>,
}

impl MarkTable {
    /// Records position `p` for index `j` in the current pass.
    pub fn set(&mut self, j: usize, p: usize) {
        self.present.insert(j);
        self.pos[j] = p;
    }

    /// The position recorded for `j` this pass, if any.
    #[inline]
    pub fn get(&self, j: usize) -> Option<usize> {
        if self.present.contains(j) {
            Some(self.pos[j])
        } else {
            None
        }
    }
}

impl Reusable for MarkTable {
    fn fresh() -> Self {
        MarkTable {
            present: BitSet::fresh(),
            pos: Vec::new(),
        }
    }

    fn prepare(&mut self, n: usize) {
        if self.pos.len() < n {
            self.pos.resize(n, 0);
        }
        self.present.prepare(n);
    }

    fn reusable_bytes(&self) -> u64 {
        self.present.reusable_bytes() + (self.pos.capacity() * std::mem::size_of::<usize>()) as u64
    }
}

/// Word-packed bit set with a touched-word list: membership is one load
/// plus a mask, and clearing between passes costs O(words touched)
/// rather than O(n). Eight entries per byte, so the allowed-position set
/// of a masked `mxv`/`vxm` stays cache-resident across the product loop.
pub struct BitSet {
    words: Vec<u64>,
    touched: Vec<usize>,
}

impl BitSet {
    /// Starts a new pass: clears only the words the last pass touched.
    pub fn begin_pass(&mut self) {
        for &w in &self.touched {
            self.words[w] = 0;
        }
        self.touched.clear();
    }

    /// Adds `j` to the set for the current pass.
    #[inline]
    pub fn insert(&mut self, j: usize) {
        let w = j / 64;
        // `words[w] != 0` implies `w` is already on the touched list, so
        // `begin_pass` never misses a set bit.
        if self.words[w] == 0 {
            self.touched.push(w);
        }
        self.words[w] |= 1u64 << (j % 64);
    }

    /// Adds the positions `64 * w + b` for every set bit `b` of `bits`:
    /// sixty-four inserts as one store.
    #[inline]
    pub fn insert_word(&mut self, w: usize, bits: u64) {
        if self.words[w] == 0 && bits != 0 {
            self.touched.push(w);
        }
        self.words[w] |= bits;
    }

    /// Whether `j` is in the set this pass.
    #[inline]
    pub fn contains(&self, j: usize) -> bool {
        self.words[j / 64] & (1u64 << (j % 64)) != 0
    }

    /// The set as words: bit `j % 64` of word `j / 64` is position `j`.
    /// At least as many words as the pass was prepared for; the rest are
    /// zero.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The members, ascending. An empty word costs one load.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    w * 64 + b
                })
            })
        })
    }
}

impl Reusable for BitSet {
    fn fresh() -> Self {
        BitSet {
            words: Vec::new(),
            touched: Vec::new(),
        }
    }

    fn prepare(&mut self, n: usize) {
        let nw = n.div_ceil(64);
        if self.words.len() < nw {
            self.words.resize(nw, 0);
        }
        self.begin_pass();
    }

    fn reusable_bytes(&self) -> u64 {
        (self.words.capacity() * std::mem::size_of::<u64>()
            + self.touched.capacity() * std::mem::size_of::<usize>()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the tests: the obs workspace gauge and counters their
    /// checkouts feed are process-global.
    fn serialize() -> std::sync::MutexGuard<'static, ()> {
        static M: std::sync::Mutex<()> = std::sync::Mutex::new(());
        M.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn plus<T: std::ops::AddAssign>(acc: &mut T, z: T) {
        *acc += z;
    }

    /// The pass's entries in first-touch order.
    fn drained<Z: 'static>(acc: &mut Spa<Z>) -> Vec<(usize, Z)> {
        let (mut idx, mut vals) = (Vec::new(), Vec::new());
        acc.append_to(&mut idx, &mut vals);
        idx.into_iter().zip(vals).collect()
    }

    #[test]
    fn checkout_reuses_and_restamps() {
        let _g = serialize();
        trim();
        {
            let mut acc = checkout::<Spa<u64>>(8);
            acc.upsert(2, Marks::Ignore, || 10, plus);
            acc.upsert(2, Marks::Ignore, || 5, plus);
            assert_eq!(acc.get(2), Some(&15));
            assert_eq!(acc.len(), 1);
        }
        // Second checkout gets the cached workspace back, but the new
        // generation hides every entry from the previous kernel.
        {
            let acc = checkout::<Spa<u64>>(8);
            assert_eq!(acc.get(2), None);
            assert!(acc.is_empty());
        }
    }

    #[test]
    fn interleaved_checkouts_are_distinct() {
        let _g = serialize();
        trim();
        // Two kernels interleaved on one thread: the second checkout
        // must not alias (or see the stamps of) the first.
        let mut a = checkout::<Spa<u32>>(4);
        a.upsert(1, Marks::Ignore, || 100, plus);
        let mut b = checkout::<Spa<u32>>(4);
        assert_eq!(b.get(1), None, "second kernel saw the first's stamps");
        b.upsert(3, Marks::Ignore, || 9, plus);
        b.upsert(1, Marks::Ignore, || 7, plus);
        assert_eq!(a.get(1), Some(&100), "first kernel's entry was clobbered");
        assert_eq!(a.get(3), None);
        assert_eq!(drained(&mut a), vec![(1, 100)]);
        let (mut idx, mut vals) = (Vec::new(), Vec::new());
        assert_eq!(b.append_sorted(&mut idx, &mut vals), 2);
        assert_eq!((idx, vals), (vec![1, 3], vec![7, 9]));
    }

    #[test]
    fn begin_pass_isolates_rows() {
        let _g = serialize();
        let mut acc = Spa::<i64>::fresh();
        acc.prepare(6);
        acc.upsert(5, Marks::Ignore, || 2, plus);
        acc.upsert(0, Marks::Ignore, || 1, plus);
        assert_eq!(drained(&mut acc), vec![(5, 2), (0, 1)], "first-touch order");
        acc.begin_pass();
        assert_eq!(acc.get(0), None);
        assert_eq!(acc.get(5), None);
        acc.upsert(5, Marks::Ignore, || 9, plus);
        assert_eq!(acc.get(5), Some(&9));
        assert_eq!(acc.len(), 1);
    }

    #[test]
    fn marks_admit_or_reject_positions_without_making_the_value() {
        let _g = serialize();
        let mut acc = Spa::<i64>::fresh();
        acc.prepare(6);
        let never = || -> i64 { panic!("a refused position must not compute its product") };
        // Plain mask: only the marked positions accept.
        acc.mark(4);
        acc.mark(1);
        acc.upsert(2, Marks::Admit, never, plus);
        acc.upsert(4, Marks::Admit, || 10, plus);
        acc.upsert(4, Marks::Admit, || 5, plus);
        assert_eq!(
            (acc.get(1), acc.get(2), acc.get(4)),
            (None, None, Some(&15))
        );
        // Walking the mask row emits in mask order and skips the holes.
        let (mut idx, mut vals) = (Vec::new(), Vec::new());
        assert_eq!(acc.append_in_order([1, 4], &mut idx, &mut vals), 1);
        assert_eq!((idx, vals), (vec![4], vec![15]));
        // Complemented mask: the marked positions refuse. Last pass's
        // marks and values are gone.
        acc.begin_pass();
        acc.mark(2);
        acc.upsert(2, Marks::Reject, never, plus);
        acc.upsert(4, Marks::Reject, || 1, plus);
        acc.upsert(1, Marks::Reject, || 2, plus);
        acc.upsert(4, Marks::Reject, || 3, plus);
        assert_eq!(drained(&mut acc), vec![(4, 4), (1, 2)]);
    }

    #[test]
    fn visit_counts_what_upsert_would_hold() {
        let _g = serialize();
        let mut acc = Spa::<u8>::fresh();
        acc.prepare(5);
        // An empty visiting pass, then a one-position one: the watermark
        // must clear both (`visit` writes a cell without growing `cols`).
        acc.begin_pass();
        assert!(acc.visit(3, Marks::Ignore));
        assert!(!acc.visit(3, Marks::Ignore));
        acc.begin_pass();
        acc.mark(0);
        let seen = [0, 3, 3, 1, 0].map(|j| acc.visit(j, Marks::Reject));
        assert_eq!(seen, [false, true, false, true, false]);
        acc.begin_pass();
        acc.mark(3);
        let seen = [0, 3, 3, 1].map(|j| acc.visit(j, Marks::Admit));
        assert_eq!(seen, [false, true, false, false]);
        assert!(acc.is_empty(), "a visiting pass stores nothing");
        acc.begin_pass();
        assert_eq!(acc.get(3), None);
        acc.upsert(3, Marks::Admit, || 1, |a, b| *a += b);
        assert_eq!(acc.get(3), None, "stale mark admitted a value");
    }

    #[test]
    fn watermark_overflow_resets_the_table() {
        let _g = serialize();
        let mut acc = Spa::<i64>::fresh();
        acc.prepare(4);
        acc.upsert(2, Marks::Ignore, || 7, plus);
        acc.base = usize::MAX - 3;
        acc.begin_pass();
        assert_eq!(acc.base, 1);
        assert_eq!(acc.get(2), None);
        acc.mark(1);
        acc.upsert(1, Marks::Admit, || 5, plus);
        acc.upsert(2, Marks::Admit, || 6, plus);
        assert_eq!(drained(&mut acc), vec![(1, 5)]);
    }

    #[test]
    fn mark_table_roundtrip_and_restamp() {
        let _g = serialize();
        let mut t = MarkTable::fresh();
        t.prepare(5);
        t.set(3, 42);
        assert_eq!(t.get(3), Some(42));
        assert_eq!(t.get(0), None);
        t.prepare(5);
        assert_eq!(t.get(3), None, "stale entry survived a new pass");
    }

    #[test]
    fn mark_table_reused_after_a_longer_pass_never_hits_stale_bits() {
        let _g = serialize();
        let mut t = MarkTable::fresh();
        // A long pass touches words all over the table ...
        t.prepare(300);
        for j in (0..300).step_by(7) {
            t.set(j, j + 1000);
        }
        assert_eq!(t.get(294), Some(1294));
        // ... a shorter one after it sees none of them, inside or beyond
        // its own length (the table keeps its capacity) ...
        t.prepare(70);
        assert!((0..300).all(|j| t.get(j).is_none()), "stale presence bit");
        t.set(63, 1);
        t.set(64, 2);
        assert_eq!((t.get(63), t.get(64), t.get(65)), (Some(1), Some(2), None));
        // ... and a position set in both passes reads the newer value.
        t.prepare(300);
        assert_eq!(t.get(63), None);
        t.set(294, 5);
        assert_eq!(t.get(294), Some(5));
        assert_eq!(t.get(287), None, "position table leaked without its bit");
    }

    #[test]
    fn bit_set_words_and_iteration_agree_with_membership() {
        let _g = serialize();
        let mut s = BitSet::fresh();
        s.prepare(130);
        s.insert(3);
        s.insert_word(1, 1 | 1 << 63);
        s.insert_word(2, 0b10);
        s.insert_word(0, 0);
        assert_eq!(s.iter().collect::<Vec<_>>(), [3, 64, 127, 129]);
        assert_eq!(s.words()[..3], [1 << 3, 1 | 1 << 63, 0b10]);
        assert!(s.contains(127) && !s.contains(128));
        // Whole-word inserts are on the touched list like single ones.
        s.begin_pass();
        assert_eq!(s.iter().count(), 0);
        assert!(s.words().iter().all(|&w| w == 0));
    }

    #[test]
    fn bit_set_membership_and_touched_clear() {
        let _g = serialize();
        let mut s = BitSet::fresh();
        s.prepare(200);
        for &j in &[0usize, 63, 64, 65, 199] {
            s.insert(j);
            assert!(s.contains(j));
        }
        assert!(!s.contains(1));
        assert!(!s.contains(128));
        // Double insert must not duplicate the touched-word entry.
        s.insert(63);
        s.begin_pass();
        for &j in &[0usize, 63, 64, 65, 199] {
            assert!(!s.contains(j), "bit {j} survived a new pass");
        }
        // A fresh pass after growth still starts empty.
        s.insert(7);
        s.prepare(512);
        assert!(!s.contains(7));
        s.insert(511);
        assert!(s.contains(511));
    }

    #[test]
    fn prepare_grows_for_larger_problems() {
        let _g = serialize();
        trim();
        {
            let mut acc = checkout::<Spa<u8>>(4);
            acc.upsert(3, Marks::Ignore, || 1, |a, b| *a += b);
        }
        {
            let mut acc = checkout::<Spa<u8>>(16);
            acc.upsert(15, Marks::Ignore, || 2, |a, b| *a += b);
            assert_eq!(acc.get(15), Some(&2));
            assert_eq!(acc.get(3), None);
        }
    }

    #[test]
    fn cached_bytes_report_to_mem_gauge() {
        let _g = serialize();
        let _obs = crate::obs_test_guard();
        trim();
        graphblas_obs::set_enabled(true);
        let before = graphblas_obs::mem::workspace().live();
        {
            let _a = checkout::<Spa<u64>>(64);
        }
        let parked = graphblas_obs::mem::workspace().live();
        assert!(parked > before, "returned workspace reported no bytes");
        // Checking it back out removes it from the cache — and its bytes
        // from the gauge.
        {
            let _a = checkout::<Spa<u64>>(64);
            assert_eq!(graphblas_obs::mem::workspace().live(), before);
        }
        trim();
        assert_eq!(graphblas_obs::mem::workspace().live(), before);
        // Bytes recorded while enabled are released even if telemetry is
        // toggled off in between (per-entry recorded figure, not a guess).
        {
            let _a = checkout::<Spa<u64>>(64);
        }
        graphblas_obs::set_enabled(false);
        trim();
        assert_eq!(graphblas_obs::mem::workspace().live(), before);
    }

    /// Elements in a buffer of `SHELF_FLOOR_BYTES` × `k`.
    fn floor_elems<T>(k: usize) -> usize {
        k * SHELF_FLOOR_BYTES / std::mem::size_of::<T>()
    }

    /// Capacity of the `Vec<T>` on this thread's shelf, if any.
    fn shelved<T: 'static>() -> Option<usize> {
        CACHE.with(|c| {
            let c = c.borrow();
            let held = c.map.get(&TypeId::of::<Shelved<T>>());
            held.and_then(|(b, _)| b.downcast_ref::<Shelved<T>>().map(|h| h.buf.capacity()))
        })
    }

    #[test]
    fn shelf_hands_back_a_cleared_buffer_that_fits() {
        let _g = serialize();
        trim();
        let n = floor_elems::<u64>(1);
        let mut v: Vec<u64> = vec![7; n];
        let at = v.as_ptr();
        v.truncate(3);
        shelve_vec(v);
        // Too large for the buffer, then more than `SHELF_FIT` times too
        // small: both allocate fresh and leave it shelved.
        drop(take_vec::<u64>(n + 1));
        drop(take_vec::<u64>(n / SHELF_FIT - 1));
        // Another element type has a slot of its own.
        drop(take_vec::<i64>(n));
        assert_eq!(shelved::<u64>(), Some(n));
        let got = take_vec::<u64>(n);
        assert_eq!((got.as_ptr(), got.len(), got.capacity()), (at, 0, n));
        // Taken means removed.
        assert_eq!(shelved::<u64>(), None);
        shelve_vec(got);
        assert_eq!(take_filled(n, 3u64), vec![3u64; n]);
        trim();
    }

    #[test]
    fn shelf_keeps_the_larger_buffer_and_skips_small_ones() {
        let _g = serialize();
        trim();
        let n = floor_elems::<u32>(2);
        shelve_vec(Vec::<u32>::with_capacity(SHELF_FLOOR_BYTES / 4 - 1));
        assert_eq!(shelved::<u32>(), None, "a buffer under the floor was shelved");
        shelve_vec(Vec::<u32>::with_capacity(n));
        shelve_vec(Vec::<u32>::with_capacity(n - 1));
        assert_eq!(shelved::<u32>(), Some(n), "the smaller buffer displaced the larger");
        shelve_vec(Vec::<u32>::with_capacity(n + 1));
        assert_eq!(shelved::<u32>(), Some(n + 1));
        // Given back down to the request.
        assert_eq!(take_vec::<u32>(n * 3 / 4).capacity(), n * 3 / 4);
        assert_eq!(shelved::<u32>(), None);
        trim();
    }

    #[test]
    fn a_buffer_passed_over_too_often_is_freed() {
        let _g = serialize();
        trim();
        let (big, small) = (floor_elems::<u16>(8), floor_elems::<u16>(1));
        // A take it serves resets the count: missing one request fewer than
        // the patience, then serving, any number of times keeps it.
        for _ in 0..3 {
            shelve_vec(Vec::<u16>::with_capacity(big));
            for _ in 1..SHELF_PATIENCE {
                drop(take_vec::<u16>(small));
            }
            assert_eq!(take_vec::<u16>(big).capacity(), big);
        }
        // Takes it does not fit, then shelvings of a smaller buffer, both
        // count; the miss that reaches the patience frees it, and a smaller
        // buffer offered then takes the slot.
        shelve_vec(Vec::<u16>::with_capacity(big));
        for _ in 1..SHELF_PATIENCE {
            drop(take_vec::<u16>(small));
        }
        assert_eq!(shelved::<u16>(), Some(big));
        drop(take_vec::<u16>(small));
        assert_eq!(shelved::<u16>(), None, "the passed-over buffer was kept");
        shelve_vec(Vec::<u16>::with_capacity(big));
        for _ in 0..SHELF_PATIENCE {
            assert_eq!(shelved::<u16>(), Some(big));
            shelve_vec(Vec::<u16>::with_capacity(small));
        }
        assert_eq!(shelved::<u16>(), Some(small));
        trim();
    }

    #[test]
    fn shelved_bytes_report_to_mem_gauge_until_trimmed() {
        let _g = serialize();
        let _obs = crate::obs_test_guard();
        trim();
        graphblas_obs::set_enabled(true);
        let before = graphblas_obs::mem::workspace().live();
        let n = floor_elems::<f64>(1);
        shelve_vec(Vec::<f64>::with_capacity(n));
        let shelved = graphblas_obs::mem::workspace().live() - before;
        assert_eq!(shelved, (n * 8) as u64);
        drop(take_vec::<f64>(n));
        assert_eq!(graphblas_obs::mem::workspace().live(), before);
        shelve_vec(Vec::<f64>::with_capacity(n));
        graphblas_obs::set_enabled(false);
        trim();
        assert_eq!(graphblas_obs::mem::workspace().live(), before);
    }

    #[test]
    fn checkout_counters_report_hits() {
        let _g = serialize();
        let _obs = crate::obs_test_guard();
        trim();
        graphblas_obs::set_enabled(true);
        let before = graphblas_obs::snapshot().workspace;
        {
            let _a = checkout::<Spa<f64>>(32);
        }
        {
            let _b = checkout::<Spa<f64>>(32);
        }
        let after = graphblas_obs::snapshot().workspace;
        graphblas_obs::set_enabled(false);
        assert_eq!(after.checkouts - before.checkouts, 2);
        assert_eq!(after.misses - before.misses, 1);
        assert_eq!(after.hits - before.hits, 1);
        assert!(after.bytes_reused > before.bytes_reused);
    }
}

//! Shared regions, the MSI directory, and the per-PE access handle.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use machine::{cost, Machine, PagePolicy, TimeCat};
use parallel::{Ctx, Element, EventKind, IntElement, Regions};

use crate::cache::{line_tag, CacheSim, Probe};
use crate::race::{AccessClass, RaceDetector, RaceReport};

/// Unassigned page-home sentinel.
const NO_HOME: u32 = u32::MAX;

/// The line-state word's layout: `(version, owner, dirty)` in 47 / 16 /
/// 1 bits.
#[inline]
fn pack_meta(version: u64, owner: u32, dirty: bool) -> u64 {
    (version << 17) | (u64::from(owner & 0xFFFF) << 1) | u64::from(dirty)
}

/// Versions at or past this do not fit [`pack_meta`]'s 47-bit field.
const VERSION_LIMIT: u64 = 1 << 47;

/// One shared region: a single instance of `len` elements, with per-page
/// homes and one MSI directory record per line.
///
/// # One record per line
///
/// A line's directory record is its `meta` word — the only copy of its
/// `(version, owner, dirty)`, packed by [`pack_meta`]; `version` moves on
/// at every invalidating write and a cached copy is stale once it has —
/// and its row of `sharer_words` words in `sharers`, one bit per PE
/// holding the current version. `Relaxed` loads and stores suffice for
/// both, and for `storage` and `page_home`: **only the floor holder
/// touches a line.** Every team is cooperative, so exactly one PE runs
/// between two sched points. On the event backend every PE is a
/// coroutine of one thread; on the thread backend the floor moves from
/// PE to PE through the scheduler's mutex, whose release by one holder
/// and acquire by the next order the first's stores before the second's
/// loads — the Release/Acquire pair these accesses rely on. A coherence
/// access is one scheduling window — it starts with a sched point and
/// ends before the next — so its read-modify-writes of a record see no
/// other PE's.
///
/// Lines and pages are powers of two, so a word's line and page are
/// shifts, not divisions: `line_shift` and `page_shift` are the log₂ of
/// their sizes in words.
pub(crate) struct RegionData {
    id: u32,
    len: usize,
    line_shift: u32,
    page_shift: u32,
    /// `ceil(pes / 64)`: one row of the sharer matrix.
    sharer_words: usize,
    storage: Box<[AtomicU64]>,
    page_home: Box<[AtomicU32]>,
    meta: Box<[AtomicU64]>,
    sharers: Box<[AtomicU64]>,
    /// Race detector shared across the world's regions, when enabled.
    races: Option<Arc<RaceDetector>>,
}

impl RegionData {
    #[inline]
    fn line_of(&self, word: usize) -> usize {
        word >> self.line_shift
    }

    #[inline]
    fn page_of(&self, word: usize) -> usize {
        word >> self.page_shift
    }
}

/// log₂ of the 8-byte words in a `bytes`-byte line or page (at least one
/// word).
///
/// # Panics
/// Panics naming `field` unless `bytes` is a power of two.
fn word_shift(field: &str, bytes: usize) -> u32 {
    assert!(
        bytes.is_power_of_two(),
        "{field} {bytes} is not a power of two: CC-SAS finds a word's line and page by shifting"
    );
    (bytes / 8).max(1).trailing_zeros()
}

/// The CC-SAS "world": registry of shared regions on one machine, whose
/// `page_policy` homes their pages.
pub struct SasWorld {
    machine: Arc<Machine>,
    regions: Regions<RegionData>,
    races: Option<Arc<RaceDetector>>,
}

impl SasWorld {
    /// A world on `machine`, paged by its `config.page_policy`.
    ///
    /// # Panics
    /// Panics past 2¹⁶ PEs: a line's owner is a 16-bit field.
    pub fn new(machine: Arc<Machine>) -> Self {
        assert!(
            machine.pes() <= 1 << 16,
            "CC-SAS line owners are 16 bits: {} PEs is past 65536",
            machine.pes()
        );
        SasWorld {
            regions: Regions::new(machine.pes()),
            machine,
            races: None,
        }
    }

    /// Enable the happens-before race detector (see [`crate::race`]). Call
    /// before any allocation; regions allocated earlier are not monitored.
    pub fn detect_races(mut self) -> Self {
        self.races = Some(Arc::new(RaceDetector::new(self.machine.pes())));
        self
    }

    /// Conflicts flagged so far (empty unless built with
    /// [`SasWorld::detect_races`]).
    pub fn race_reports(&self) -> Vec<RaceReport> {
        self.races.as_ref().map_or_else(Vec::new, |r| r.reports())
    }

    /// Number of PEs.
    pub fn size(&self) -> usize {
        self.machine.pes()
    }

    /// The machine model.
    pub fn machine(&self) -> &Arc<Machine> {
        &self.machine
    }

    /// Collective allocation of a shared region of `len` elements of `T`.
    /// Every PE must call with the same arguments, in the same sequence.
    pub fn alloc<T: Element>(&self, ctx: &mut Ctx, len: usize) -> SasSlice<T> {
        let region = self
            .regions
            .alloc::<T>(ctx, len, |idx| self.build_region(idx as u32, len));
        SasSlice {
            region,
            _t: PhantomData,
        }
    }

    fn build_region(&self, id: u32, len: usize) -> RegionData {
        let cfg = &self.machine.config;
        let line_shift = word_shift("line_bytes", cfg.line_bytes);
        let page_shift = word_shift("page_bytes", cfg.page_bytes);
        let n_lines = len.div_ceil(1 << line_shift).max(1);
        let n_pages = len.div_ceil(1 << page_shift).max(1);
        let nodes = self.machine.topology.nodes() as u32;
        let page_home: Box<[AtomicU32]> = (0..n_pages)
            .map(|p| match cfg.page_policy {
                PagePolicy::FirstTouch => AtomicU32::new(NO_HOME),
                PagePolicy::RoundRobin => AtomicU32::new(p as u32 % nodes),
            })
            .collect();
        let sharer_words = self.size().div_ceil(64).max(1);
        RegionData {
            id,
            len,
            line_shift,
            page_shift,
            sharer_words,
            storage: (0..len).map(|_| AtomicU64::new(0)).collect(),
            page_home,
            meta: (0..n_lines).map(|_| AtomicU64::new(0)).collect(),
            sharers: (0..n_lines * sharer_words)
                .map(|_| AtomicU64::new(0))
                .collect(),
            races: self.races.clone(),
        }
    }

    /// Per-PE access handle with a fresh cache. Create one per PE inside the
    /// team closure.
    pub fn pe(&self) -> SasPe {
        let cfg = &self.machine.config;
        SasPe {
            machine: Arc::clone(&self.machine),
            cache: CacheSim::new(cfg.cache_bytes, cfg.line_bytes, cfg.cache_assoc),
            net_items: Vec::new(),
        }
    }

    /// Team barrier (with `fadd`, the SAS synchronisation story).
    pub fn barrier(&self, ctx: &mut Ctx) {
        ctx.barrier();
    }

    /// Serialise every shared region — storage bits, page homes, and the
    /// full per-line MSI directory — for a checkpoint. Race-detector
    /// access history is deliberately not captured: a restored run
    /// re-detects from the restore point onward. A line's sharer field is
    /// `ceil(pes / 64)` words; the layout is versioned by the snapshot
    /// container's `o2k_snap::FORMAT_VERSION`.
    pub fn export_state_bytes(&self) -> Vec<u8> {
        let mut w = o2k_snap::wire::WireWriter::new();
        w.u64(self.size() as u64);
        w.u64(match self.machine.config.page_policy {
            PagePolicy::FirstTouch => 0,
            PagePolicy::RoundRobin => 1,
        });
        let regions = self.regions.all();
        w.u64(regions.len() as u64);
        for r in &regions {
            w.u64(r.len as u64);
            // Words per line and per page.
            w.u64(1 << r.line_shift);
            w.u64(1 << r.page_shift);
            for cell in r.storage.iter() {
                w.u64(cell.load(Ordering::Relaxed));
            }
            w.u64(r.page_home.len() as u64);
            for h in r.page_home.iter() {
                w.u64(u64::from(h.load(Ordering::Relaxed)));
            }
            w.u64(r.meta.len() as u64);
            let row = r.sharers.chunks(r.sharer_words);
            for (meta, sharers) in r.meta.iter().zip(row) {
                let m = meta.load(Ordering::Relaxed);
                w.u64(m >> 17);
                for sw in sharers {
                    w.u64(sw.load(Ordering::Relaxed));
                }
                // Owner and dirty bit, in the meta word's own low 17 bits.
                w.u64(m & 0x1_FFFF);
            }
        }
        w.into_bytes()
    }

    /// Rebuild regions from [`SasWorld::export_state_bytes`] output.
    /// Host-side, before the team runs; PEs then re-acquire handles with
    /// [`SasWorld::alloc`] in the original allocation order, free of charge.
    ///
    /// # Errors
    /// Errors on PE-count/paging/line-geometry mismatch,
    /// truncation, a page home that is not one of this machine's nodes, a
    /// line whose version, owner or sharer bits do not fit this world, or
    /// a non-fresh world; the world is left untouched.
    pub fn import_state_bytes(&self, bytes: &[u8]) -> Result<(), String> {
        let mut rd = o2k_snap::wire::WireReader::new(bytes);
        let pes = rd.u64()? as usize;
        if pes != self.size() {
            return Err(format!(
                "sas snapshot has {pes} PEs, world has {}",
                self.size()
            ));
        }
        let policy = rd.u64()?;
        let my_policy = match self.machine.config.page_policy {
            PagePolicy::FirstTouch => 0,
            PagePolicy::RoundRobin => 1,
        };
        if policy != my_policy {
            return Err(format!(
                "sas snapshot paging policy {policy} != world's {my_policy}"
            ));
        }
        // A region is at least its five header/count words, and `len`
        // storage words follow `len`'s own header.
        let n_regions = rd.count(40)?;
        let mut imported = Vec::with_capacity(n_regions);
        for idx in 0..n_regions {
            let len = rd.count(8)?;
            let wpl = rd.u64()?;
            let wpp = rd.u64()?;
            let region = self.build_region(idx as u32, len);
            let (my_wpl, my_wpp) = (1u64 << region.line_shift, 1u64 << region.page_shift);
            if (wpl, wpp) != (my_wpl, my_wpp) {
                return Err(format!(
                    "sas snapshot line/page geometry {wpl}/{wpp} words, machine gives {my_wpl}/{my_wpp}"
                ));
            }
            for cell in region.storage.iter() {
                cell.store(rd.u64()?, Ordering::Relaxed);
            }
            let n_pages = rd.u64()? as usize;
            if n_pages != region.page_home.len() {
                return Err(format!(
                    "sas snapshot region {idx}: {n_pages} pages, expected {}",
                    region.page_home.len()
                ));
            }
            let nodes = self.machine.topology.nodes();
            for (page, h) in region.page_home.iter().enumerate() {
                let home = rd.u64()?;
                if home != u64::from(NO_HOME) && home >= nodes as u64 {
                    return Err(format!(
                        "sas snapshot region {idx} page {page}: home {home} is not one of the {nodes} nodes"
                    ));
                }
                h.store(home as u32, Ordering::Relaxed);
            }
            let n_lines = rd.u64()? as usize;
            if n_lines != region.meta.len() {
                return Err(format!(
                    "sas snapshot region {idx}: {n_lines} lines, expected {}",
                    region.meta.len()
                ));
            }
            // Bits of a row's last word that name no PE.
            let stray_mask = match pes % 64 {
                0 => 0,
                used => !0u64 << used,
            };
            let row = region.sharers.chunks(region.sharer_words);
            for (line, (meta, sharers)) in region.meta.iter().zip(row).enumerate() {
                let version = rd.u64()?;
                if version >= VERSION_LIMIT {
                    return Err(format!(
                        "sas snapshot region {idx} line {line}: version {version} does not fit 47 bits"
                    ));
                }
                for (wi, sw) in sharers.iter().enumerate() {
                    let bits = rd.u64()?;
                    if wi + 1 == sharers.len() && bits & stray_mask != 0 {
                        let pe = wi * 64 + (bits & stray_mask).trailing_zeros() as usize;
                        return Err(format!(
                            "sas snapshot region {idx} line {line}: sharer bit {pe}, world has {pes} PEs"
                        ));
                    }
                    sw.store(bits, Ordering::Relaxed);
                }
                let od = rd.u64()?;
                let owner = od >> 1;
                if owner >= pes as u64 {
                    return Err(format!(
                        "sas snapshot region {idx} line {line}: owner {owner}, world has {pes} PEs"
                    ));
                }
                meta.store(
                    pack_meta(version, owner as u32, od & 1 != 0),
                    Ordering::Relaxed,
                );
            }
            imported.push((len, region));
        }
        rd.finish()?;
        self.regions.import(imported)
    }
}

/// Handle to a shared region of `T`. Clones alias the same region.
pub struct SasSlice<T: Element> {
    region: Arc<RegionData>,
    _t: PhantomData<T>,
}

impl<T: Element> Clone for SasSlice<T> {
    fn clone(&self) -> Self {
        SasSlice {
            region: Arc::clone(&self.region),
            _t: PhantomData,
        }
    }
}

impl<T: Element> SasSlice<T> {
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.region.len
    }

    /// True if the region is empty.
    pub fn is_empty(&self) -> bool {
        self.region.len == 0
    }

    /// Uncosted read, for initialisation outside timed phases and for test
    /// verification. Does not touch caches, directory, or page homes.
    pub fn read_raw(&self, idx: usize) -> T {
        T::from_bits(self.region.storage[idx].load(Ordering::Relaxed))
    }

    /// Uncosted write (see [`SasSlice::read_raw`]).
    pub fn write_raw(&self, idx: usize, v: T) {
        self.region.storage[idx].store(v.to_bits(), Ordering::Relaxed);
    }

    /// Explicitly home the pages covering `[start, end)` on `ctx`'s node if
    /// still unassigned — models the parallel-initialisation idiom the
    /// paper's SAS codes used to get first-touch placement right.
    pub fn home_pages(&self, ctx: &Ctx, start: usize, end: usize) {
        let node = ctx.machine().topology.node_of(ctx.pe()) as u32;
        let r = &self.region;
        if r.len == 0 {
            return;
        }
        let first = r.page_of(start.min(r.len - 1));
        let last = r.page_of(end.saturating_sub(1).min(r.len - 1));
        for home in &r.page_home[first..=last] {
            if home.load(Ordering::Relaxed) == NO_HOME {
                home.store(node, Ordering::Relaxed);
            }
        }
    }

    /// The node currently homing the page of element `idx`, if assigned.
    pub fn home_of(&self, idx: usize) -> Option<usize> {
        let h = self.region.page_home[self.region.page_of(idx)].load(Ordering::Relaxed);
        (h != NO_HOME).then_some(h as usize)
    }
}

/// A PE's window onto shared memory: owns the PE's simulated cache.
///
/// Every costed access is one [`Ctx::sched_point`] plus one cache-simulator
/// probe per covered line; a hit stops there (one load of the line's
/// record, no allocation), tested inline at the access, and everything a
/// miss does is one out-of-line call.
/// [`SasPe::read_into`] is the bulk read primitive — it fills the
/// caller's buffer through one slice of the region's storage, and
/// [`SasPe::read_range`] wraps it for callers that want an owned `Vec` —
/// with [`SasPe::write_range`] its store-side twin.
pub struct SasPe {
    machine: Arc<Machine>,
    cache: CacheSim,
    /// Scratch for the `(dst_node, bytes)` transfers of the access in
    /// flight (see `access_line`); empty between accesses, so never part
    /// of a snapshot.
    net_items: Vec<(usize, usize)>,
}

impl SasPe {
    /// Invalidate the PE's entire cache (between experiment phases).
    pub fn flush_cache(&mut self) {
        self.cache.clear();
    }

    /// Dump this PE's cache state for a checkpoint (see
    /// [`CacheSim::export_words`]).
    pub fn export_cache_words(&self) -> Vec<u64> {
        self.cache.export_words()
    }

    /// Restore this PE's cache from [`SasPe::export_cache_words`] output.
    ///
    /// # Errors
    /// Errors if the snapshot's geometry disagrees with this machine's
    /// cache configuration.
    pub fn import_cache_words(&mut self, words: &[u64]) -> Result<(), String> {
        self.cache.import_words(words)
    }

    /// Costed read of one element.
    pub fn read<T: Element>(&mut self, ctx: &mut Ctx, s: &SasSlice<T>, idx: usize) -> T {
        self.touch(ctx, &s.region, idx, AccessClass::Read);
        T::from_bits(s.region.storage[idx].load(Ordering::Relaxed))
    }

    /// Costed write of one element.
    pub fn write<T: Element>(&mut self, ctx: &mut Ctx, s: &SasSlice<T>, idx: usize, v: T) {
        self.touch(ctx, &s.region, idx, AccessClass::Write);
        s.region.storage[idx].store(v.to_bits(), Ordering::Relaxed);
    }

    /// Costed bulk read of `out.len()` elements starting at `start` into
    /// the caller's buffer: one coherence access per cache line covered,
    /// and no allocation — the primitive every costed read of more than
    /// one element goes through.
    pub fn read_into<T: Element>(
        &mut self,
        ctx: &mut Ctx,
        s: &SasSlice<T>,
        start: usize,
        out: &mut [T],
    ) {
        if out.is_empty() {
            return; // no line is touched, wherever `start` is
        }
        let end = start + out.len();
        self.touch_range(ctx, &s.region, start, end, AccessClass::Read);
        for (v, cell) in out.iter_mut().zip(&s.region.storage[start..end]) {
            *v = T::from_bits(cell.load(Ordering::Relaxed));
        }
    }

    /// [`SasPe::read_into`] returning a fresh `Vec` of `[start, end)`, for
    /// callers that keep the result.
    pub fn read_range<T: Element>(
        &mut self,
        ctx: &mut Ctx,
        s: &SasSlice<T>,
        start: usize,
        end: usize,
    ) -> Vec<T> {
        let mut out = vec![T::from_bits(0); end.saturating_sub(start)];
        self.read_into(ctx, s, start, &mut out);
        out
    }

    /// Costed bulk write: one coherence access per cache line covered.
    pub fn write_range<T: Element>(
        &mut self,
        ctx: &mut Ctx,
        s: &SasSlice<T>,
        start: usize,
        data: &[T],
    ) {
        if data.is_empty() {
            return;
        }
        let end = start + data.len();
        self.touch_range(ctx, &s.region, start, end, AccessClass::Write);
        for (cell, v) in s.region.storage[start..end].iter().zip(data) {
            cell.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Atomic fetch-add on a shared integer element (LL/SC-style: costs an
    /// exclusive write access). Atomic because the floor holder alone runs
    /// until its next sched point (see `RegionData`).
    pub fn fadd<T: IntElement>(
        &mut self,
        ctx: &mut Ctx,
        s: &SasSlice<T>,
        idx: usize,
        delta: T,
    ) -> T {
        self.touch(ctx, &s.region, idx, AccessClass::Atomic);
        let cell = &s.region.storage[idx];
        let prev = cell.load(Ordering::Relaxed);
        cell.store(T::add_bits(prev, delta.to_bits()), Ordering::Relaxed);
        T::from_bits(prev)
    }

    fn touch_range(
        &mut self,
        ctx: &mut Ctx,
        r: &RegionData,
        start: usize,
        end: usize,
        class: AccessClass,
    ) {
        // Each line's representative word is the first word of the span
        // in it: `start`, then the first word of every later line.
        let (mut line, mut word) = (r.line_of(start), start);
        while word < end {
            self.access_line(ctx, r, line, word, class);
            line += 1;
            word = line << r.line_shift;
        }
    }

    #[inline]
    fn touch(&mut self, ctx: &mut Ctx, r: &RegionData, word: usize, class: AccessClass) {
        self.access_line(ctx, r, r.line_of(word), word, class);
    }

    /// The heart of the model: one line access. A hit — a current copy
    /// for a read, an exclusive current one for a write — is decided and
    /// counted here, inline at the access; everything else is
    /// [`Self::miss_line`].
    #[inline]
    fn access_line(
        &mut self,
        ctx: &mut Ctx,
        r: &RegionData,
        line: usize,
        word: usize,
        class: AccessClass,
    ) {
        // Coherence events are scheduler yield points: the virtual-time
        // schedule (not the host scheduler) decides every directory race,
        // including first-touch page claims.
        ctx.sched_point();
        if let Some(rd) = &r.races {
            rd.record(r.id, line, word, class, ctx.pe(), ctx.epoch());
        }
        let tag = line_tag(r.id, line as u64);
        // Single cache probe, then one load of the line's record.
        let probe = self.cache.probe(tag);
        let m = r.meta[line].load(Ordering::Relaxed);
        if let Probe::Hit { version, dirty } = probe {
            let hit = match class {
                AccessClass::Read => m >> 17 == version,
                _ => dirty && m == pack_meta(version, ctx.pe() as u32, true),
            };
            if hit {
                ctx.counters_mut().cache_hits += 1;
                return;
            }
        }
        self.miss_line(ctx, r, line, probe, m, class);
    }

    /// The rest of [`Self::access_line`], for an access that did not hit:
    /// classify it as upgrade / local miss / remote miss, charge it, and
    /// update coherence state. `probe` and `m` are the access's cache
    /// probe and line record.
    #[inline(never)]
    fn miss_line(
        &mut self,
        ctx: &mut Ctx,
        r: &RegionData,
        line: usize,
        probe: Probe,
        m: u64,
        class: AccessClass,
    ) {
        let write = class != AccessClass::Read;
        let tag = line_tag(r.id, line as u64);
        let pe = ctx.pe();
        let meta = &r.meta[line];
        let (mut version, owner, mut dirty) = (m >> 17, (m >> 1) & 0xFFFF, m & 1 != 0);
        let cached = match probe {
            Probe::Hit { version: v, .. } if v == version => true,
            Probe::Hit { .. } => {
                // Stale copy: invalidated since load. Counts as a miss.
                self.cache.purge(tag);
                false
            }
            Probe::Miss => false,
        };
        // A current copy is a hit above unless this is a write.
        debug_assert!(write || !cached);

        let cfg = &self.machine.config;
        let topo = &self.machine.topology;
        let my_node = topo.node_of(pe);

        let mut charge_local = 0u64;
        let mut charge_remote = 0u64;
        let mut fill_home: Option<u32> = None;
        // Everything from `access_line`'s sched_point to the advances
        // below is one scheduling window: the fill, the owner forward and
        // the whole invalidation sweep collect in `net_items` and hit the
        // fabric in one `net_delay_many` call (in queue order, so the
        // arithmetic is bitwise the per-transfer calls').
        debug_assert!(self.net_items.is_empty());

        if !cached {
            // Fill from home (or forward from a dirty owner).
            let home = self.home_node(r, line, my_node);
            fill_home = Some(home as u32);
            let hops = topo.hops(my_node, home);
            let fill = cost::line_fill(cfg, hops);
            if hops == 0 {
                // A local fill never touches the interconnect, but under
                // ContentionMode::Fabric it does cross (and queue on) the
                // node's shared memory bus — the resource every CPU of a
                // fat SMP node funnels through.
                charge_local += fill + ctx.net_delay_local(cfg.line_bytes);
                ctx.counters_mut().misses_local += 1;
            } else {
                // Under ContentionMode::Queued the line payload also queues
                // on the fabric links between home and requester.
                charge_remote += fill;
                self.net_items.push((home, cfg.line_bytes));
                ctx.counters_mut().misses_remote += 1;
            }
            if dirty && owner != pe as u64 {
                // Cache-to-cache forward from the current owner.
                let owner_node = topo.node_of(owner as usize);
                charge_remote += cost::forward(cfg, topo.hops(my_node, owner_node));
                self.net_items.push((owner_node, cfg.line_bytes));
                dirty = false; // home copy now clean
            }
        }

        let row = &r.sharers[line * r.sharer_words..(line + 1) * r.sharer_words];
        let (my_word, my_bit) = (pe / 64, 1u64 << (pe % 64));
        if write {
            // Invalidations are distance-priced: evicting a copy from a
            // sharer on this node is an SMP-bus operation; reaching a
            // sharer across the machine pays network hops. Every other
            // sharer, ascending; the writer is left the only one.
            let mut invalidated = 0u32;
            for (wi, sw) in row.iter().enumerate() {
                let mut bits = sw.load(Ordering::Relaxed);
                if wi == my_word {
                    bits &= !my_bit;
                }
                while bits != 0 {
                    let qn = topo.node_of(wi * 64 + bits.trailing_zeros() as usize);
                    // An invalidation is a small coherence packet; cross-node
                    // ones traverse (and queue on) the same fabric links.
                    charge_remote += cost::invalidation(cfg, topo.hops(my_node, qn));
                    self.net_items.push((qn, 8));
                    invalidated += 1;
                    bits &= bits - 1;
                }
                sw.store(if wi == my_word { my_bit } else { 0 }, Ordering::Relaxed);
            }
            ctx.counters_mut().invalidations += u64::from(invalidated);
            if cached {
                ctx.counters_mut().upgrades += 1;
                charge_remote += cost::upgrade(cfg);
            }
            version += 1;
            meta.store(pack_meta(version, pe as u32, true), Ordering::Relaxed);
        } else {
            let sw = &row[my_word];
            sw.store(sw.load(Ordering::Relaxed) | my_bit, Ordering::Relaxed);
            meta.store(pack_meta(version, owner as u32, dirty), Ordering::Relaxed);
        }
        charge_remote += ctx.net_delay_many(&self.net_items);
        self.net_items.clear();

        let line_bytes = cfg.line_bytes.min(u32::MAX as usize) as u32;
        if charge_local > 0 {
            ctx.advance_traced(
                charge_local,
                TimeCat::Local,
                EventKind::MissLocal,
                line_bytes,
                fill_home,
            );
        }
        if charge_remote > 0 {
            ctx.advance_traced(
                charge_remote,
                TimeCat::Remote,
                EventKind::MissRemote,
                line_bytes,
                fill_home,
            );
        }

        if let Some(evicted) = self.cache.insert(tag, version, write) {
            if evicted.dirty {
                // Write the victim back to its home memory.
                ctx.advance_traced(
                    cost::writeback(cfg),
                    TimeCat::Local,
                    EventKind::Writeback,
                    line_bytes,
                    None,
                );
            }
        }
    }

    fn home_node(&self, r: &RegionData, line: usize, my_node: usize) -> usize {
        let word = line << r.line_shift;
        let page = r.page_of(word.min(r.len.saturating_sub(1)));
        let cell = &r.page_home[page];
        let h = cell.load(Ordering::Relaxed);
        if h != NO_HOME {
            return h as usize;
        }
        // First touch: claim for my node.
        cell.store(my_node as u32, Ordering::Relaxed);
        my_node
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use machine::MachineConfig;
    use parallel::Team;

    /// A `test_tiny` machine whose pages are homed by `page_policy`.
    pub(super) fn paged(pes: usize, page_policy: PagePolicy) -> Arc<Machine> {
        Arc::new(Machine::new(
            pes,
            MachineConfig {
                page_policy,
                ..MachineConfig::test_tiny()
            },
        ))
    }

    fn setup(pes: usize) -> (Arc<SasWorld>, Team) {
        let machine = Arc::new(Machine::new(pes, MachineConfig::test_tiny()));
        (
            Arc::new(SasWorld::new(Arc::clone(&machine))),
            Team::new(machine),
        )
    }

    /// Line fills so far, local and remote.
    fn line_misses(c: &machine::stats::Counters) -> u64 {
        c.misses_local + c.misses_remote
    }

    #[test]
    fn read_write_roundtrip() {
        let (w, t) = setup(2);
        let run = t.run(|ctx| {
            let s = w.alloc::<f64>(ctx, 32);
            let mut pe = w.pe();
            if ctx.pe() == 0 {
                pe.write(ctx, &s, 5, 2.5);
            }
            w.barrier(ctx);
            pe.read(ctx, &s, 5)
        });
        assert_eq!(run.results, vec![2.5, 2.5]);
    }

    /// A world on `test_tiny` hardware with `cfg` edited by `edit`.
    fn world_with(edit: impl FnOnce(&mut MachineConfig)) -> SasWorld {
        let mut cfg = MachineConfig::test_tiny();
        edit(&mut cfg);
        SasWorld::new(Arc::new(Machine::new(2, cfg)))
    }

    #[test]
    #[should_panic(expected = "line_bytes 96 is not a power of two")]
    fn a_line_that_is_not_a_power_of_two_is_refused() {
        world_with(|c| c.line_bytes = 96).build_region(0, 16);
    }

    #[test]
    #[should_panic(expected = "page_bytes 768 is not a power of two")]
    fn a_page_that_is_not_a_power_of_two_is_refused() {
        world_with(|c| c.page_bytes = 768).build_region(0, 16);
    }

    #[test]
    fn second_read_is_a_hit() {
        let (w, t) = setup(1);
        let run = t.run(|ctx| {
            let s = w.alloc::<u64>(ctx, 64);
            let mut pe = w.pe();
            let _ = pe.read(ctx, &s, 0);
            let t0 = ctx.now();
            let _ = pe.read(ctx, &s, 1); // same line (8 words a line)
            (ctx.now() - t0, ctx.counters().clone())
        });
        let (dt, c) = &run.results[0];
        assert_eq!(*dt, 0, "line hit must be free");
        assert!(c.cache_hits >= 1);
        assert_eq!(line_misses(c), 1);
    }

    #[test]
    fn write_invalidates_reader() {
        let (w, t) = setup(4); // PEs 0, 1 on node 0; PEs 2, 3 on node 1
        let run = t.run(|ctx| {
            let s = w.alloc::<u64>(ctx, 8);
            let mut pe = w.pe();
            // Everyone reads the line.
            let _ = pe.read(ctx, &s, 0);
            w.barrier(ctx);
            let t0 = ctx.now();
            if ctx.pe() == 0 {
                pe.write(ctx, &s, 0, 7); // invalidates PEs 1, 2 and 3
            }
            let dt = ctx.now() - t0;
            w.barrier(ctx);
            let v = pe.read(ctx, &s, 0); // PEs 1..3 must miss and see 7
            (v, dt, line_misses(ctx.counters()))
        });
        for (v, _, _) in &run.results {
            assert_eq!(*v, 7);
        }
        // PEs 1..3: initial miss + post-invalidation miss.
        for (_, _, misses) in &run.results[1..] {
            assert_eq!(*misses, 2, "invalidation must force a re-fetch");
        }
        // PE 0 upgraded its shared copy (one directory transaction) and
        // invalidated three copies: PE 1's on its own node, and PE 2's and
        // PE 3's one hop away on node 1.
        let c = MachineConfig::test_tiny();
        assert_eq!(
            run.results[0].1,
            c.lat_directory + 3 * c.lat_invalidate + 2 * c.lat_hop
        );
        assert_eq!(run.reports[0].counters.invalidations, 3);
        assert_eq!(run.reports[0].counters.upgrades, 1);
    }

    #[test]
    fn write_after_own_write_is_hit() {
        let (w, t) = setup(1);
        let run = t.run(|ctx| {
            let s = w.alloc::<u64>(ctx, 8);
            let mut pe = w.pe();
            pe.write(ctx, &s, 0, 1);
            let t0 = ctx.now();
            pe.write(ctx, &s, 1, 2); // same line, still exclusive
            ctx.now() - t0
        });
        assert_eq!(run.results[0], 0);
    }

    #[test]
    fn first_touch_homes_page_on_toucher() {
        let (w, t) = setup(4); // nodes 0..2 (2 PEs per node)
        let run = t.run(|ctx| {
            let s = w.alloc::<u64>(ctx, 256);
            let mut pe = w.pe();
            if ctx.pe() == 3 {
                pe.write(ctx, &s, 0, 1);
            }
            w.barrier(ctx);
            s.home_of(0)
        });
        // PE 3 lives on node 1; the page must be homed there.
        assert_eq!(run.results[0], Some(1));
    }

    #[test]
    fn round_robin_policy_prehomes_pages() {
        let machine = paged(4, PagePolicy::RoundRobin);
        let w = Arc::new(SasWorld::new(Arc::clone(&machine)));
        let t = Team::new(machine);
        let run = t.run(|ctx| {
            // 256 B pages are 32 words → pages every 32 elements.
            let s = w.alloc::<u64>(ctx, 128);
            (s.home_of(0), s.home_of(32), s.home_of(64))
        });
        assert_eq!(run.results[0], (Some(0), Some(1), Some(0)));
    }

    #[test]
    fn remote_miss_costs_more_than_local() {
        let (w, t) = setup(4);
        let run = t.run(|ctx| {
            let s = w.alloc::<u64>(ctx, 1024);
            let mut pe = w.pe();
            // PE 0 homes the whole region on node 0.
            if ctx.pe() == 0 {
                s.home_pages(ctx, 0, 1024);
            }
            w.barrier(ctx);
            let t0 = ctx.now();
            let _ = pe.read(ctx, &s, 512);
            ctx.now() - t0
        });
        // PEs 0 and 1 (node 0, the home) fill from local memory; PEs 2 and
        // 3 (node 1, one hop away) also pay the home's directory and the
        // hop.
        let c = MachineConfig::test_tiny();
        let local = c.lat_local_mem;
        let remote = c.lat_local_mem + c.lat_directory + c.lat_hop;
        assert!(remote > local);
        assert_eq!(run.results, vec![local, local, remote, remote]);
        assert_eq!(run.reports[3].counters.misses_remote, 1);
        assert_eq!(run.reports[1].counters.misses_local, 1);
    }

    #[test]
    fn fadd_is_atomic_across_pes() {
        let (w, t) = setup(4);
        let run = t.run(|ctx| {
            let s = w.alloc::<u64>(ctx, 1);
            let mut pe = w.pe();
            for _ in 0..50 {
                pe.fadd(ctx, &s, 0, 1u64);
            }
            w.barrier(ctx);
            pe.read(ctx, &s, 0)
        });
        for r in run.results {
            assert_eq!(r, 200);
        }
    }

    #[test]
    fn range_ops_charge_per_line_not_per_element() {
        let (w, t) = setup(1);
        let run = t.run(|ctx| {
            let s = w.alloc::<u64>(ctx, 64);
            let mut pe = w.pe();
            let data: Vec<u64> = (0..64).collect();
            pe.write_range(ctx, &s, 0, &data);
            let misses = line_misses(ctx.counters());
            let vals = pe.read_range(ctx, &s, 0, 64);
            (misses, vals)
        });
        let (misses, vals) = &run.results[0];
        // 64 words / 8 words-per-line = 8 lines → 8 misses, not 64.
        assert_eq!(*misses, 8);
        assert_eq!(*vals, (0..64).collect::<Vec<u64>>());
    }

    #[test]
    fn capacity_eviction_causes_refetches() {
        let (w, t) = setup(1);
        let run = t.run(|ctx| {
            // Cache is 1024 B = 16 lines of 64 B; stream 64 lines.
            let s = w.alloc::<u64>(ctx, 64 * 8);
            let mut pe = w.pe();
            for i in 0..(64 * 8) {
                let _ = pe.read(ctx, &s, i);
            }
            // Second sweep: still misses (working set exceeds capacity).
            let m1 = line_misses(ctx.counters());
            for i in 0..(64 * 8) {
                let _ = pe.read(ctx, &s, i);
            }
            let m2 = line_misses(ctx.counters());
            (m1, m2 - m1)
        });
        let (first_sweep, second_sweep) = run.results[0];
        assert_eq!(first_sweep, 64);
        assert!(second_sweep > 32, "LRU streaming should keep missing");
        let c = MachineConfig::test_tiny();
        // One PE homes every page: each miss is a local fill, and clean
        // victims leave without a charge.
        assert_eq!(
            run.reports[0].finish,
            (first_sweep + second_sweep) * c.lat_local_mem
        );

        // Writing one word per line dirties all 64 lines; the 48 that the
        // 16-line cache cannot keep are written back as they are evicted.
        let (w, t) = setup(1);
        let run = t.run(|ctx| {
            let s = w.alloc::<u64>(ctx, 64 * 8);
            let mut pe = w.pe();
            for line in 0..64 {
                pe.write(ctx, &s, line * 8, 1);
            }
            line_misses(ctx.counters())
        });
        assert_eq!(run.results[0], 64);
        let resident = (c.cache_bytes / c.line_bytes) as u64;
        assert_eq!(
            run.reports[0].finish,
            64 * c.lat_local_mem + (64 - resident) * c.lat_local_mem
        );
    }

    #[test]
    fn dirty_read_pays_forwarding() {
        let (w, t) = setup(4);
        let run = t.run(|ctx| {
            let s = w.alloc::<u64>(ctx, 8);
            let mut pe = w.pe();
            if ctx.pe() == 0 {
                pe.write(ctx, &s, 0, 42); // line dirty at PE 0
            }
            w.barrier(ctx);
            if ctx.pe() == 3 {
                let t0 = ctx.now();
                let v = pe.read(ctx, &s, 0);
                Some((v, ctx.now() - t0))
            } else {
                None
            }
        });
        let (v, dt) = run.results[3].expect("PE 3 measured");
        assert_eq!(v, 42);
        // PE 3 (node 1) fills from the home on node 0, one hop away, and
        // the line is forwarded from its dirty owner, PE 0, on that node.
        let c = MachineConfig::test_tiny();
        let fill = c.lat_local_mem + c.lat_directory + c.lat_hop;
        let forward = c.lat_hop + c.lat_directory;
        assert_eq!(dt, fill + forward);
    }

    #[test]
    fn export_import_alloc_preserves_storage_directory_and_cache() {
        let (w, t) = setup(2);
        let run = t.run(|ctx| {
            let s = w.alloc::<u64>(ctx, 64);
            let mut pe = w.pe();
            if ctx.pe() == 0 {
                pe.write(ctx, &s, 5, 42);
            }
            w.barrier(ctx);
            let _ = pe.read(ctx, &s, 5); // both PEs now cache the line
            w.barrier(ctx);
            (pe.export_cache_words(), s.home_of(5))
        });
        let world_bytes = w.export_state_bytes();
        let caches: Arc<Vec<Vec<u64>>> =
            Arc::new(run.results.iter().map(|(c, _)| c.clone()).collect());
        let homes: Vec<_> = run.results.iter().map(|(_, h)| *h).collect();

        let machine = Arc::new(Machine::new(2, MachineConfig::test_tiny()));
        let w2 = Arc::new(SasWorld::new(Arc::clone(&machine)));
        w2.import_state_bytes(&world_bytes).unwrap();
        let run2 = Team::new(machine).run(|ctx| {
            let t0 = ctx.now();
            let s = w2.alloc::<u64>(ctx, 64); // a restored region is free
            let mut pe = w2.pe();
            pe.import_cache_words(&caches[ctx.pe()]).unwrap();
            let home = s.home_of(5);
            let v = pe.read(ctx, &s, 5); // restored copy must still be a hit
            let hit_free = ctx.now() == t0;
            w2.barrier(ctx);
            // Coherence must still work across the restore: a write by PE 0
            // invalidates PE 1's restored copy.
            if ctx.pe() == 0 {
                pe.write(ctx, &s, 5, 99);
            }
            w2.barrier(ctx);
            (v, hit_free, home, pe.read(ctx, &s, 5))
        });
        for (pe, (v, hit_free, home, after)) in run2.results.iter().enumerate() {
            assert_eq!(*v, 42);
            assert!(
                hit_free,
                "PE {pe}: the restored region and cache copy must be free"
            );
            assert_eq!(*home, homes[pe], "page homes must survive the restore");
            assert_eq!(*after, 99);
        }
        assert!(run2.reports[0].counters.invalidations >= 1);
    }

    #[test]
    fn import_rejects_wrong_shape() {
        let (w, t) = setup(2);
        t.run(|ctx| {
            let _ = w.alloc::<u64>(ctx, 16);
        });
        let bytes = w.export_state_bytes();
        let m3 = Arc::new(Machine::new(3, MachineConfig::test_tiny()));
        assert!(SasWorld::new(m3).import_state_bytes(&bytes).is_err());
        let m2 = Arc::new(Machine::new(2, MachineConfig::test_tiny()));
        assert!(SasWorld::new(paged(2, PagePolicy::RoundRobin))
            .import_state_bytes(&bytes)
            .is_err());
        let fresh = SasWorld::new(Arc::clone(&m2));
        assert!(fresh.import_state_bytes(&bytes[..bytes.len() - 1]).is_err());
        assert!(w.import_state_bytes(&bytes).is_err());
        assert!(fresh.import_state_bytes(&bytes).is_ok());
    }

    /// The old single-word sharer bitmask capped CC-SAS teams at 64 PEs;
    /// with a row of two sharer words a 128-PE team shares one line and a
    /// write still invalidates every other sharer.
    #[test]
    fn p128_sharers_past_one_word_invalidate() {
        let (w, t) = setup(128);
        let run = t.run(|ctx| {
            let s = w.alloc::<u64>(ctx, 8);
            let mut pe = w.pe();
            let _ = pe.read(ctx, &s, 0); // all 128 PEs share the line
            w.barrier(ctx);
            if ctx.pe() == 0 {
                pe.write(ctx, &s, 0, 9);
            }
            w.barrier(ctx);
            pe.read(ctx, &s, 0)
        });
        assert!(run.results.iter().all(|&v| v == 9));
        assert_eq!(
            run.reports[0].counters.invalidations, 127,
            "the write must invalidate every PE past the old 64-PE word"
        );
    }

    /// One scripted run's SAS snapshot section: every PE reads every line
    /// (past P = 64 the sharer bits fill both words), the last PE writes
    /// line 0 (an invalidation sweep across both words), PE 1 upgrades its
    /// clean copy of line 1, PE 0 reads it back from its dirty owner, every
    /// PE fetch-adds one word, and the last PE leaves line 3 dirty.
    fn scripted_section(pes: usize, policy: PagePolicy) -> Vec<u8> {
        let machine = paged(pes, policy);
        let w = Arc::new(SasWorld::new(Arc::clone(&machine)));
        Team::new(machine).run(|ctx| {
            let s = w.alloc::<u64>(ctx, 96);
            let mut pe = w.pe();
            let (me, last) = (ctx.pe(), ctx.npes() - 1);
            let mut buf = [0u64; 96];
            pe.read_into(ctx, &s, 0, &mut buf);
            w.barrier(ctx);
            if me == last {
                pe.write(ctx, &s, 0, 7);
            }
            w.barrier(ctx);
            if me == 1 {
                pe.write(ctx, &s, 8, 9);
            }
            w.barrier(ctx);
            if me == 0 {
                let _ = pe.read(ctx, &s, 8);
            }
            w.barrier(ctx);
            pe.fadd(ctx, &s, 16, me as u64 + 1);
            w.barrier(ctx);
            if me == last {
                pe.write(ctx, &s, 24, 11);
            }
            if me % 3 == 0 {
                let _ = pe.read(ctx, &s, 40);
            }
        });
        w.export_state_bytes()
    }

    /// The SAS section layout is fixed: these digests were produced by
    /// the locked per-line directory the flat per-line record replaced,
    /// less the version word `o2k_snap::FORMAT_VERSION` took over (v5). A
    /// layout change bumps that version and re-pins.
    #[test]
    fn the_sas_section_bytes_are_pinned() {
        let digest = |pes, policy| o2k_snap::fnv1a(&scripted_section(pes, policy));
        assert_eq!(digest(2, PagePolicy::FirstTouch), 0xc8db_c80e_eccb_9d64);
        assert_eq!(digest(128, PagePolicy::FirstTouch), 0x7eb1_759c_1459_1c79);
        // Header, one region of 96 words on 3 pages, then 12 lines of
        // version + two sharer words + owner/dirty.
        let p65 = scripted_section(65, PagePolicy::RoundRobin);
        assert_eq!(p65.len(), 8 * (3 + 3 + 96 + 1 + 3 + 1 + 12 * 4));
        assert_eq!(o2k_snap::fnv1a(&p65), 0xebcc_e37e_7d22_aa8d);
    }

    /// Word index of line 0's record in P = 65's scripted section: the
    /// header, then the region's geometry, 96 storage words and 3 pages.
    const LINE0: usize = 3 + 3 + 96 + 1 + 3 + 1;

    /// P = 65's scripted section with one word edited, and the error a
    /// fresh world gives importing it. The same world then imports the
    /// intact section: a refused import left it untouched.
    fn import_edited(at: usize, edit: impl FnOnce(&mut u64)) -> String {
        let bytes = scripted_section(65, PagePolicy::RoundRobin);
        let mut rd = o2k_snap::wire::WireReader::new(&bytes);
        let mut words: Vec<u64> = (0..bytes.len() / 8).map(|_| rd.u64().unwrap()).collect();
        edit(&mut words[at]);
        let mut wr = o2k_snap::wire::WireWriter::new();
        for v in words {
            wr.u64(v);
        }
        let w = SasWorld::new(paged(65, PagePolicy::RoundRobin));
        let err = w.import_state_bytes(&wr.into_bytes()).unwrap_err();
        w.import_state_bytes(&bytes).unwrap();
        err
    }

    /// Word index of page 0's home in P = 65's scripted section.
    const PAGE0: usize = 3 + 3 + 96 + 1;

    #[test]
    fn import_rejects_a_page_home_past_the_last_node() {
        let nodes = Machine::new(65, MachineConfig::test_tiny())
            .topology
            .nodes();
        let err = import_edited(PAGE0, |w| *w = 9_999);
        assert_eq!(
            err,
            format!("sas snapshot region 0 page 0: home 9999 is not one of the {nodes} nodes")
        );
        // Past 32 bits: refused whole, not truncated to node 1.
        let err = import_edited(PAGE0, |w| *w = (1 << 32) + 1);
        assert_eq!(
            err,
            format!(
                "sas snapshot region 0 page 0: home 4294967297 is not one of the {nodes} nodes"
            )
        );
    }

    #[test]
    fn import_rejects_a_sharer_bit_past_the_last_pe() {
        // Line 0's second sharer word holds PE 64 alone at P = 65.
        let err = import_edited(LINE0 + 2, |w| *w |= 1 << 1);
        assert_eq!(
            err,
            "sas snapshot region 0 line 0: sharer bit 65, world has 65 PEs"
        );
    }

    #[test]
    fn import_rejects_an_owner_past_the_last_pe() {
        let err = import_edited(LINE0 + 3, |w| *w = (65 << 1) | 1);
        assert_eq!(
            err,
            "sas snapshot region 0 line 0: owner 65, world has 65 PEs"
        );
    }

    #[test]
    fn import_rejects_a_version_past_47_bits() {
        let err = import_edited(LINE0, |w| *w = 1 << 47);
        assert_eq!(
            err,
            "sas snapshot region 0 line 0: version 140737488355328 does not fit 47 bits"
        );
    }

    /// A line's owner is a 16-bit field, so a world is refused past 2¹⁶
    /// PEs (building one touches no per-PE state before the check).
    #[test]
    #[should_panic(expected = "65537 PEs is past 65536")]
    fn a_world_holds_at_most_65536_pes() {
        let world = |pes| SasWorld::new(Arc::new(Machine::new(pes, MachineConfig::test_tiny())));
        assert_eq!(world(1 << 16).size(), 1 << 16);
        world((1 << 16) + 1);
    }

    /// Regression for the schedule-dependent first-touch race: when several
    /// PEs touch a fresh page "simultaneously", the page home used to be
    /// whichever thread the host OS ran first. Under the deterministic
    /// scheduler the claim is decided by virtual-time order, so repeated
    /// runs agree on homes — and therefore on the local/remote miss split.
    #[test]
    fn first_touch_is_deterministic_under_det_sched() {
        use parallel::SchedPolicy;
        let observe = || {
            let machine = Arc::new(Machine::new(4, MachineConfig::test_tiny()));
            let w = Arc::new(SasWorld::new(Arc::clone(&machine)));
            let run = Team::new(machine).sched(SchedPolicy::Det).run(|ctx| {
                let s = w.alloc::<u64>(ctx, 256);
                let mut pe = w.pe();
                // Every PE races to touch every page with zero staggering.
                for page in 0..8 {
                    let _ = pe.read(ctx, &s, page * 32);
                }
                w.barrier(ctx);
                let homes: Vec<_> = (0..8).map(|p| s.home_of(p * 32)).collect();
                (
                    homes,
                    ctx.counters().misses_local,
                    ctx.counters().misses_remote,
                )
            });
            run.results
        };
        let a = observe();
        let b = observe();
        assert_eq!(
            a, b,
            "page homes / miss splits must be schedule-independent"
        );
    }

    #[test]
    fn race_detector_flags_unordered_writes_not_barriered_ones() {
        use parallel::SchedPolicy;
        let machine = Arc::new(Machine::new(2, MachineConfig::test_tiny()));
        let w = Arc::new(SasWorld::new(Arc::clone(&machine)).detect_races());
        Team::new(Arc::clone(&machine))
            .sched(SchedPolicy::Det)
            .run(|ctx| {
                let racy = w.alloc::<u64>(ctx, 8);
                let safe = w.alloc::<u64>(ctx, 8);
                let mut pe = w.pe();
                // Unordered: both PEs write the same word, same epoch.
                pe.write(ctx, &racy, 0, ctx.pe() as u64);
                // Ordered: PE 0 writes, barrier, PE 1 writes.
                if ctx.pe() == 0 {
                    pe.write(ctx, &safe, 0, 1);
                }
                w.barrier(ctx);
                if ctx.pe() == 1 {
                    pe.write(ctx, &safe, 0, 2);
                }
            });
        let reports = w.race_reports();
        assert!(
            reports
                .iter()
                .any(|r| r.kind == crate::race::RaceKind::DataRace && r.region == 0),
            "unordered same-word writes must be flagged: {reports:?}"
        );
        assert!(
            reports.iter().all(|r| r.region != 1),
            "barrier-separated writes must not be flagged: {reports:?}"
        );
    }

    #[test]
    fn race_detector_atomics_suppress_reports() {
        use parallel::SchedPolicy;
        let machine = Arc::new(Machine::new(2, MachineConfig::test_tiny()));
        let w = Arc::new(SasWorld::new(Arc::clone(&machine)).detect_races());
        Team::new(Arc::clone(&machine))
            .sched(SchedPolicy::Det)
            .run(|ctx| {
                let counters = w.alloc::<u64>(ctx, 8);
                let mut pe = w.pe();
                // Atomic RMWs never race with each other.
                let _ = pe.fadd(ctx, &counters, 0, 1u64);
            });
        assert!(
            w.race_reports().is_empty(),
            "atomics must suppress reports: {:?}",
            w.race_reports()
        );
    }

    #[test]
    fn race_detector_distinguishes_false_sharing() {
        use parallel::SchedPolicy;
        let machine = Arc::new(Machine::new(2, MachineConfig::test_tiny()));
        let w = Arc::new(SasWorld::new(Arc::clone(&machine)).detect_races());
        Team::new(Arc::clone(&machine))
            .sched(SchedPolicy::Det)
            .run(|ctx| {
                let s = w.alloc::<u64>(ctx, 8);
                let mut pe = w.pe();
                // Distinct words of one line (8 words a line).
                pe.write(ctx, &s, ctx.pe(), 1);
            });
        let reports = w.race_reports();
        assert!(
            reports
                .iter()
                .any(|r| r.kind == crate::race::RaceKind::FalseSharing),
            "per-PE words in one line must flag false sharing: {reports:?}"
        );
        assert!(
            reports
                .iter()
                .all(|r| r.kind != crate::race::RaceKind::DataRace),
            "distinct words are not a data race: {reports:?}"
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use machine::MachineConfig;
    use parallel::Team;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Against an arbitrary single-PE read/write trace, the costed view
        /// always returns exactly what a plain array would — the cache
        /// simulator affects *cost*, never *values*.
        #[test]
        fn costed_ops_match_reference_array(
            ops in proptest::collection::vec((any::<bool>(), 0usize..96, any::<u64>()), 1..200),
        ) {
            let machine = Arc::new(Machine::new(1, MachineConfig::test_tiny()));
            let w = Arc::new(SasWorld::new(Arc::clone(&machine)));
            let ops = Arc::new(ops);
            let run = Team::new(machine).run(|ctx| {
                let s = w.alloc::<u64>(ctx, 96);
                let mut pe = w.pe();
                let mut reference = vec![0u64; 96];
                for &(is_write, idx, val) in ops.iter() {
                    if is_write {
                        pe.write(ctx, &s, idx, val);
                        reference[idx] = val;
                    } else {
                        let got = pe.read(ctx, &s, idx);
                        if got != reference[idx] {
                            return false;
                        }
                    }
                }
                (0..96).all(|i| s.read_raw(i) == reference[i])
            });
            prop_assert!(run.results[0]);
        }

        /// Phase-separated multi-PE writes (disjoint ranges, barrier, read
        /// everything) always observe every write, under both paging
        /// policies.
        #[test]
        fn phased_writes_always_visible(
            pes in 2usize..6,
            round_robin in any::<bool>(),
            n_per in 4usize..32,
        ) {
            let policy = if round_robin { PagePolicy::RoundRobin } else { PagePolicy::FirstTouch };
            let machine = super::tests::paged(pes, policy);
            let w = Arc::new(SasWorld::new(Arc::clone(&machine)));
            let run = Team::new(machine).run(|ctx| {
                let n = ctx.npes() * n_per;
                let s = w.alloc::<u64>(ctx, n);
                let mut pe = w.pe();
                for i in 0..n_per {
                    let idx = ctx.pe() * n_per + i;
                    pe.write(ctx, &s, idx, idx as u64 + 1);
                }
                w.barrier(ctx);
                (0..n).map(|i| pe.read(ctx, &s, i)).collect::<Vec<u64>>()
            });
            let n = pes * n_per;
            let expect: Vec<u64> = (0..n as u64).map(|i| i + 1).collect();
            for r in run.results {
                prop_assert_eq!(&r, &expect);
            }
        }

        /// The directory's invalidation accounting: after any interleaving
        /// of phase-separated writes to one line, a reader still gets the
        /// last value and the version number only ever grows.
        #[test]
        fn single_line_write_storm(pes in 2usize..6, rounds in 1usize..6) {
            let machine = Arc::new(Machine::new(pes, MachineConfig::test_tiny()));
            let w = Arc::new(SasWorld::new(Arc::clone(&machine)));
            let run = Team::new(machine).run(|ctx| {
                let s = w.alloc::<u64>(ctx, 4);
                let mut pe = w.pe();
                for r in 0..rounds {
                    if ctx.pe() == r % ctx.npes() {
                        pe.write(ctx, &s, 0, (r + 1) as u64);
                    }
                    w.barrier(ctx);
                    let v = pe.read(ctx, &s, 0);
                    if v != (r + 1) as u64 {
                        return Err(v);
                    }
                    w.barrier(ctx);
                }
                Ok(())
            });
            for r in run.results {
                prop_assert_eq!(r, Ok(()));
            }
        }
    }
}

//! The collective allocation sequence the SHMEM and CC-SAS worlds share.

use std::any::TypeId;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::Ctx;

/// A world's regions in allocation order. The k-th `alloc` on every PE
/// names the k-th region; a restored world rebuilds the list from a
/// snapshot and its PEs walk the same sequence with `attach`. What a
/// region is and how it is encoded stays with the world.
pub struct Regions<R> {
    list: Mutex<Vec<Entry<R>>>,
    /// Each PE's position in the sequence.
    next: Box<[AtomicU32]>,
}

struct Entry<R> {
    /// Element type; `None` for a region rebuilt from a snapshot, whose
    /// wire format holds bits only, so any `attach` of the right length
    /// accepts it.
    elem: Option<TypeId>,
    len: usize,
    region: Arc<R>,
}

impl<R> Regions<R> {
    /// An empty sequence for `pes` PEs.
    pub fn new(pes: usize) -> Self {
        Regions {
            list: Mutex::new(Vec::new()),
            next: (0..pes).map(|_| AtomicU32::new(0)).collect(),
        }
    }

    /// `list`, locked. An `alloc` that finds a mismatch panics holding it,
    /// after its last update; the poisoned lock is taken as it stands, so
    /// the world can still be read (and exported) after the team's panic.
    fn list(&self) -> MutexGuard<'_, Vec<Entry<R>>> {
        self.list.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// This PE's next index in the sequence.
    fn advance(&self, ctx: &Ctx) -> usize {
        self.next[ctx.pe()].fetch_add(1, Ordering::Relaxed) as usize
    }

    /// Collective allocation of `len` elements of `T`: the first PE to
    /// reach index k builds region k with `build(k)`, then every PE
    /// rendezvouses so none uses the region before all hold it.
    ///
    /// # Panics
    /// Panics if PEs disagree on the type or length of the allocation.
    pub fn alloc<T: 'static>(
        &self,
        ctx: &mut Ctx,
        len: usize,
        build: impl FnOnce(usize) -> R,
    ) -> Arc<R> {
        let idx = self.advance(ctx);
        let region = {
            let mut list = self.list();
            if list.len() <= idx {
                debug_assert_eq!(list.len(), idx, "allocation sequence skew");
                list.push(Entry {
                    elem: Some(TypeId::of::<T>()),
                    len,
                    region: Arc::new(build(idx)),
                });
            }
            let e = &list[idx];
            assert_eq!(
                e.elem,
                Some(TypeId::of::<T>()),
                "alloc #{idx}: element type mismatch"
            );
            assert_eq!(e.len, len, "alloc #{idx}: length mismatch");
            Arc::clone(&e.region)
        };
        ctx.barrier();
        region
    }

    /// Re-acquire the next region after [`Regions::import`]. Charges
    /// nothing and does not rendezvous — the straight run paid the alloc
    /// before the snapshot, so it is already inside the restored clocks.
    ///
    /// # Panics
    /// Panics if the next region's length disagrees, or its element type
    /// (when known) is not `T`.
    pub fn attach<T: 'static>(&self, ctx: &Ctx, len: usize) -> Arc<R> {
        let idx = self.advance(ctx);
        let list = self.list();
        let e = list
            .get(idx)
            .unwrap_or_else(|| panic!("attach #{idx}: snapshot has only {} regions", list.len()));
        assert!(
            e.elem.is_none_or(|t| t == TypeId::of::<T>()),
            "attach #{idx}: element type mismatch"
        );
        assert_eq!(e.len, len, "attach #{idx}: length mismatch");
        Arc::clone(&e.region)
    }

    /// Install `(len, region)` pairs decoded from a snapshot, untyped.
    ///
    /// # Errors
    /// Errors — installing nothing — unless the world has no regions yet.
    pub fn import(&self, regions: Vec<(usize, R)>) -> Result<(), String> {
        let mut list = self.list();
        if !list.is_empty() {
            return Err("import into a world that already has regions".into());
        }
        *list = (regions.into_iter())
            .map(|(len, region)| Entry {
                elem: None,
                len,
                region: Arc::new(region),
            })
            .collect();
        Ok(())
    }

    /// Every region, in allocation order.
    pub fn all(&self) -> Vec<Arc<R>> {
        self.list().iter().map(|e| Arc::clone(&e.region)).collect()
    }
}

//! The collective allocation sequence the SHMEM and CC-SAS worlds share.

use std::any::TypeId;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::Ctx;

/// A world's regions in allocation order. The k-th `alloc` on every PE
/// names the k-th region; a restored world rebuilds the list from a
/// snapshot and its PEs re-walk the same sequence with `alloc`, which
/// hands back the imported regions. What a region is and how it is
/// encoded stays with the world.
pub struct Regions<R> {
    list: Mutex<Vec<Entry<R>>>,
    /// Each PE's position in the sequence.
    next: Box<[AtomicU32]>,
}

struct Entry<R> {
    /// Element type; `None` for a region rebuilt from a snapshot, whose
    /// wire format holds bits only, so any `alloc` of the right length
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
    /// rendezvouses so none uses the region before all hold it. Region k
    /// of a restored world ([`Regions::import`]) is returned as it is, with
    /// no `build`, barrier or charge: the straight run paid the alloc
    /// before the snapshot, so it is already inside the restored clocks.
    ///
    /// # Panics
    /// Panics if PEs disagree on the type or length of the allocation, or
    /// an imported region's length (or recorded type) is not this one's.
    pub fn alloc<T: 'static>(
        &self,
        ctx: &mut Ctx,
        len: usize,
        build: impl FnOnce(usize) -> R,
    ) -> Arc<R> {
        let idx = self.advance(ctx);
        let (region, imported) = {
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
            assert!(
                e.elem.is_none_or(|t| t == TypeId::of::<T>()),
                "alloc #{idx}: element type mismatch"
            );
            assert_eq!(e.len, len, "alloc #{idx}: length mismatch");
            (Arc::clone(&e.region), e.elem.is_none())
        };
        if !imported {
            ctx.barrier();
        }
        region
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::team::Team;
    use machine::{Machine, MachineConfig};

    fn team(pes: usize) -> Team {
        Team::new(Arc::new(Machine::new(pes, MachineConfig::test_tiny())))
    }

    /// Two regions installed by `import`, as a restore leaves them.
    fn restored(pes: usize) -> Regions<Vec<u64>> {
        let regions = Regions::new(pes);
        regions
            .import(vec![(4, vec![1; 4]), (2, vec![2; 2])])
            .expect("fresh sequence");
        regions
    }

    #[test]
    fn alloc_returns_imported_regions_free_then_allocates_collectively() {
        let regions = restored(3);
        let imported = regions.all();
        let run = team(3).run(|ctx| {
            let (t0, b0) = (ctx.now(), ctx.counters().barriers);
            let a = regions.alloc::<u64>(ctx, 4, |_| unreachable!("region 0 is imported"));
            let b = regions.alloc::<f64>(ctx, 2, |_| unreachable!("region 1 is imported"));
            assert!(Arc::ptr_eq(&a, &imported[0]) && Arc::ptr_eq(&b, &imported[1]));
            assert_eq!((ctx.now(), ctx.counters().barriers), (t0, b0));
            let c = regions.alloc::<u64>(ctx, 3, |k| vec![k as u64; 3]);
            assert_eq!(ctx.counters().barriers, b0 + 1);
            assert!(ctx.now() > t0);
            Arc::clone(&c)
        });
        assert!(run.results.iter().all(|c| Arc::ptr_eq(c, &run.results[0])));
        assert_eq!(*run.results[0], vec![2; 3]);
        assert_eq!(regions.all().len(), 3);
    }

    #[test]
    #[should_panic(expected = "alloc #0: length mismatch")]
    fn alloc_rejects_a_wrong_length_at_an_imported_index() {
        let regions = restored(3);
        team(3).run(|ctx| {
            regions.alloc::<u64>(ctx, 5, |_| unreachable!("region 0 is imported"));
        });
    }
}

//! W4 known miss (barrier form, one call down): a quarantine loop that
//! calls a trait-provided `rebuild` once per poisoned block. `rebuild`
//! commits a non-publishing eager sink, so every round flushes and fences
//! but publishes nothing — the same coalescing miss as
//! `w4_loop_barrier.rs`, behind one call. Passing the loop's blocks to one
//! `rebuild` call would dedup the lines and pay one fence (the
//! `Conv2d::recover_marker_based` quarantine shape).
//!
//! Not flagged today: trait default bodies are not summarized, and
//! summaries are depth-0, so a caller only sees the helper's own stores
//! and publishes, never the barrier inside it.

pub trait Kernel {
    fn rebuild(&self, rec: &mut Recovery<'_>, regions: impl IntoIterator<Item = Region>) {
        let mut sink = EagerOnlySink::default();
        for region in regions {
            self.body(&mut rec.ctx, region, &mut sink);
        }
        sink.commit(&mut rec.ctx);
    }
}

impl EagerOnlySink {
    fn store(&mut self, ctx: &mut CoreCtx<'_>, arr: PArray<f64>, idx: usize, v: f64) {
        ctx.store(arr, idx, v);
        self.committer.note(arr.addr(idx));
    }

    fn commit(self, ctx: &mut CoreCtx<'_>) {
        self.committer.commit(ctx);
    }
}

impl Conv2d {
    fn recover_marker_based(&self, rec: &mut Recovery<'_>) {
        for &block in &owned[..completed] {
            if self.block_poisoned(rec, block) {
                rec.stats.regions_quarantined += 1;
                self.rebuild(rec, [(0, block)]); // MISSED: flushes+fences every round, publishes nothing
            }
        }
    }
}

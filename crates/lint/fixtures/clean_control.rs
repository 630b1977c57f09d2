//! Control fixture: the same three scheme idioms written *correctly*.
//! Must lint to zero findings — this pins down the analyzer's false
//! positive rate on the exact patterns the mutation rigs perturb.

fn region_lazy(ctx: &mut CoreCtx<'_>) {
    ctx.region_begin(KEY);
    for (i, v) in VALS {
        ctx.store(arr, i, v);
        self.ck.update(v.to_bits());
    }
    self.table.store(ctx, KEY, self.ck.value());
    ctx.region_end();
}

fn region_eager(ctx: &mut CoreCtx<'_>) {
    ctx.region_begin(KEY);
    for (i, v) in VALS {
        ctx.store(arr, i, v);
        ctx.clflushopt(arr.addr(i));
    }
    ctx.sfence();
    ctx.store(markers, 0, KEY as u64 + 1);
    ctx.clflushopt(markers.addr(0));
    ctx.sfence();
    ctx.region_end();
}

fn recover(ctx: &mut CoreCtx<'_>) {
    for (i, v) in VALS {
        ctx.store(arr, i, v);
        ctx.clflushopt(arr.addr(i));
    }
    ctx.sfence();
    ctx.store(markers, 0, KEY as u64 + 1);
    ctx.clflushopt(markers.addr(0));
    ctx.sfence();
}

//! W1 fixture: the same line is flushed twice with no intervening store
//! on any path — the second `clflushopt` queues a second writeback of
//! identical bytes. Dynamic twin: the `flushes` counter drops from 2 to
//! 1 when the duplicate is deleted (see `tests/wrule_twins.rs`).

fn persist_result(ctx: &mut CoreCtx<'_>) {
    ctx.store(self.buf, 0, v);
    ctx.clflushopt(self.buf.addr(0));
    ctx.clflushopt(self.buf.addr(0)); // BUG: line already queued, nothing stored since
    ctx.sfence();
}

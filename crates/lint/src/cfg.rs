//! Control-flow graphs over the parser's function trees.
//!
//! The parser produces a structured tree (`Node::Branch`/`Node::Loop`);
//! the dataflow engine wants an explicit graph: basic blocks of straight-
//! line calls, fork/join edges for branches, a dedicated *loop head* block
//! carrying its back edge (so the solver can widen there), and a separate
//! early-exit sink so `return`/`panic!` paths never pollute the normal
//! exit state. `break`/`continue` are approximated as early exits, same
//! as the previous tree walker.

use crate::parser::{Node, RawCall};

/// Extra structure attached to a loop-head block.
#[derive(Debug, Clone)]
pub struct LoopHead {
    /// Predecessor blocks that reach the head via the loop's back edge.
    pub back_preds: Vec<usize>,
    /// Min/max source line of calls inside the loop body, used to widen
    /// away must-facts born inside the loop (their expressions are
    /// iteration-dependent).
    pub span: (u32, u32),
}

/// One basic block: straight-line calls plus graph edges.
#[derive(Debug, Default, Clone)]
pub struct Block {
    /// Call statements in program order.
    pub stmts: Vec<RawCall>,
    /// Successor block ids.
    pub succs: Vec<usize>,
    /// Predecessor block ids.
    pub preds: Vec<usize>,
    /// Present when this block is a loop head.
    pub loop_head: Option<LoopHead>,
}

/// A function body as a control-flow graph.
#[derive(Debug)]
pub struct Cfg {
    /// All blocks; ids index into this vector, in creation (≈ source)
    /// order.
    pub blocks: Vec<Block>,
    /// Function entry block.
    pub entry: usize,
    /// Normal fall-off-the-end exit block (may be unreachable when every
    /// path diverges).
    pub exit: usize,
    /// Early-exit sink for `return`/`break`/`continue`/`panic!` paths.
    pub dexit: usize,
}

impl Cfg {
    /// Build the CFG for one function body.
    pub fn build(body: &[Node]) -> Cfg {
        let mut b = Builder { blocks: Vec::new() };
        let entry = b.new_block();
        let dexit = b.new_block();
        let exit = match b.seq(body, entry, dexit) {
            Some(out) => out,
            None => b.new_block(), // unreachable: every path diverged
        };
        Cfg {
            blocks: b.blocks,
            entry,
            exit,
            dexit,
        }
    }

    /// Whether the `from → to` edge is a loop back edge.
    pub fn is_back_edge(&self, from: usize, to: usize) -> bool {
        self.blocks[to]
            .loop_head
            .as_ref()
            .is_some_and(|h| h.back_preds.contains(&from))
    }
}

struct Builder {
    blocks: Vec<Block>,
}

impl Builder {
    fn new_block(&mut self) -> usize {
        self.blocks.push(Block::default());
        self.blocks.len() - 1
    }

    fn edge(&mut self, from: usize, to: usize) {
        self.blocks[from].succs.push(to);
        self.blocks[to].preds.push(from);
    }

    /// Lay `nodes` down starting in block `cur`; returns the open block
    /// after the sequence, or `None` when every path diverged.
    fn seq(&mut self, nodes: &[Node], mut cur: usize, dexit: usize) -> Option<usize> {
        for n in nodes {
            match n {
                Node::Call(c) => self.blocks[cur].stmts.push(c.clone()),
                Node::Diverge => {
                    self.edge(cur, dexit);
                    return None;
                }
                Node::Branch(arms) => {
                    let join = self.new_block();
                    let mut any = false;
                    for arm in arms {
                        let a = self.new_block();
                        self.edge(cur, a);
                        if let Some(out) = self.seq(arm, a, dexit) {
                            self.edge(out, join);
                            any = true;
                        }
                    }
                    if !any {
                        return None;
                    }
                    cur = join;
                }
                Node::Loop(body) => {
                    let head = self.new_block();
                    self.edge(cur, head);
                    let bentry = self.new_block();
                    self.edge(head, bentry);
                    let mut back_preds = Vec::new();
                    if let Some(bout) = self.seq(body, bentry, dexit) {
                        self.edge(bout, head);
                        back_preds.push(bout);
                    }
                    self.blocks[head].loop_head = Some(LoopHead {
                        back_preds,
                        span: span_of(body),
                    });
                    let after = self.new_block();
                    self.edge(head, after);
                    cur = after;
                }
            }
        }
        Some(cur)
    }
}

/// Min/max source line over all calls in a subtree (0,0 when empty).
fn span_of(nodes: &[Node]) -> (u32, u32) {
    let mut lo = u32::MAX;
    let mut hi = 0u32;
    let mut stack: Vec<&Node> = nodes.iter().collect();
    while let Some(n) = stack.pop() {
        match n {
            Node::Call(c) => {
                lo = lo.min(c.line);
                hi = hi.max(c.line);
            }
            Node::Branch(arms) => stack.extend(arms.iter().flatten()),
            Node::Loop(body) => stack.extend(body.iter()),
            Node::Diverge => {}
        }
    }
    if lo == u32::MAX {
        (0, 0)
    } else {
        (lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_file;

    fn cfg_of(src: &str) -> Cfg {
        let f = parse_file(src, "test");
        Cfg::build(&f.fns[0].body)
    }

    #[test]
    fn straight_line_is_one_block() {
        let c = cfg_of("fn f() { a(); b(); }");
        assert_eq!(c.blocks[c.entry].stmts.len(), 2);
        assert_eq!(c.entry, c.exit);
    }

    #[test]
    fn branch_forks_and_joins() {
        let c = cfg_of("fn f() { if x { a(); } else { b(); } tail(); }");
        // Entry forks to two arms which join at the exit-bearing block.
        assert_eq!(c.blocks[c.entry].succs.len(), 2);
        let join = c.blocks[c.blocks[c.entry].succs[0]].succs[0];
        assert_eq!(c.blocks[c.blocks[c.entry].succs[1]].succs[0], join);
        assert_eq!(c.blocks[join].preds.len(), 2);
        assert_eq!(c.blocks[join].stmts[0].name, "tail");
    }

    #[test]
    fn loop_has_back_edge_and_span() {
        let c = cfg_of("fn f() {\n for i in xs.iter() {\n a();\n b();\n }\n}");
        let head = (0..c.blocks.len())
            .find(|&i| c.blocks[i].loop_head.is_some())
            .expect("loop head");
        let h = c.blocks[head].loop_head.as_ref().unwrap();
        assert_eq!(h.back_preds.len(), 1);
        assert!(c.is_back_edge(h.back_preds[0], head));
        assert_eq!(h.span, (3, 4));
        // Head has two successors: body entry and loop exit.
        assert_eq!(c.blocks[head].succs.len(), 2);
    }

    #[test]
    fn diverge_routes_to_early_exit_sink() {
        let c = cfg_of("fn f() { a(); if x { return; } b(); }");
        assert!(c.blocks[c.dexit].preds.len() == 1);
        // The non-diverging arm still reaches a reachable exit with b().
        assert_eq!(c.blocks[c.exit].stmts[0].name, "b");
    }

    #[test]
    fn all_arms_diverging_leaves_exit_unreachable() {
        let c = cfg_of("fn f() { if x { return; } else { return; } b(); }");
        assert!(c.blocks[c.exit].preds.is_empty());
        assert!(c.blocks[c.exit].stmts.is_empty());
        assert_eq!(c.blocks[c.dexit].preds.len(), 2);
    }

    #[test]
    fn loop_whose_body_diverges_has_no_back_edge() {
        let c = cfg_of("fn f() { loop { a(); break; } }");
        let head = (0..c.blocks.len())
            .find(|&i| c.blocks[i].loop_head.is_some())
            .expect("loop head");
        assert!(c.blocks[head]
            .loop_head
            .as_ref()
            .unwrap()
            .back_preds
            .is_empty());
    }
}

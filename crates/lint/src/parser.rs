//! Block-structure parser: token stream → per-function control-flow trees.
//!
//! This is deliberately *not* a full Rust parser. It recovers exactly the
//! structure the persist-order analysis needs: function boundaries (with
//! impl-qualified names), `if`/`match` branching, loop bodies, early exits
//! (`return`/`break`/`continue`/`panic!`), and call sites with receiver
//! chains and first-argument target paths. Everything else — types,
//! generics, expressions — is skipped as token soup. Closures and inline
//! blocks are treated as executed in place (a documented approximation;
//! see DESIGN.md §5e).

use crate::config::{fn_context, is_wal_file, FnContext};
use crate::lexer::{lex, Tok};

/// A call site as it appears in source, before classification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawCall {
    /// Method/function name (`store`, `sfence`, `flush_rows`, …).
    pub name: String,
    /// Dotted receiver chain (`self.ck`, `tp`, `ctx`), empty for free calls.
    pub receiver: String,
    /// Dotted path of the first argument (`self.l.array`), empty if the
    /// first argument is not a simple path.
    pub arg0: String,
    /// Dotted path of the second argument, empty if absent or complex.
    /// Needed for free helpers like `persist_store(ctx, arr, i, v)` where
    /// the target array is the second argument.
    pub arg1: String,
    /// Full token text of the argument list (`arr . addr ( i )`), used as
    /// an expression identity for the must-flushed lattice: two flushes
    /// are "the same line(s)" only when this text matches exactly.
    pub args_full: String,
    /// 1-based source line of the call name.
    pub line: u32,
}

/// One node of a function body's control-flow tree.
#[derive(Debug, Clone)]
pub enum Node {
    /// A call site.
    Call(RawCall),
    /// A multi-way branch (`if`/`else if`/`else`, `match`), one body per
    /// arm. An `if` without `else` carries an empty fallthrough arm.
    Branch(Vec<Vec<Node>>),
    /// A loop body, executed zero or more times.
    Loop(Vec<Node>),
    /// Control leaves the enclosing path (`return`, `break`, `continue`,
    /// `panic!`-family macro).
    Diverge,
}

/// A parsed function with its analysis context.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Impl-qualified name (`WalTx::commit`) or bare name.
    pub name: String,
    /// 1-based line of the function name.
    pub line: u32,
    /// Context the analysis runs this function under.
    pub context: FnContext,
    /// Body as a control-flow tree.
    pub body: Vec<Node>,
    /// `let`-bindings to constructor calls / struct literals seen in the
    /// body: `(variable, TypeName)`. Resolves receivers like `sink.commit`
    /// to a concrete impl for interprocedural summary lookup.
    pub bindings: Vec<(String, String)>,
}

/// A parsed source file.
#[derive(Debug)]
pub struct ParsedFile {
    /// All non-test functions with bodies.
    pub fns: Vec<FnItem>,
    /// Whether the file stem marks this as WAL code.
    pub is_wal: bool,
}

/// Parse one source file into function trees. Each function's context
/// comes from its name ([`fn_context`]), else from the file's flavor.
pub fn parse_file(src: &str, file_stem: &str) -> ParsedFile {
    let toks = lex(src);
    let is_wal = is_wal_file(file_stem);
    let mut p = P {
        t: &toks,
        i: 0,
        bindings: Vec::new(),
        file_context: if is_wal {
            FnContext::Wal
        } else {
            FnContext::Forward
        },
    };
    let mut fns = Vec::new();
    scan_items(&mut p, None, false, false, &mut fns);
    ParsedFile { fns, is_wal }
}

struct P<'a> {
    t: &'a [Tok],
    i: usize,
    /// `let` bindings collected while parsing the current fn body.
    bindings: Vec<(String, String)>,
    /// Context of a function whose name implies none.
    file_context: FnContext,
}

impl P<'_> {
    fn at_end(&self) -> bool {
        self.i >= self.t.len()
    }

    fn bump(&mut self) {
        self.i += 1;
    }

    fn at_ident(&self, s: &str) -> bool {
        self.t
            .get(self.i)
            .is_some_and(|t| t.is_ident && t.text == s)
    }

    fn at_punct(&self, c: char) -> bool {
        self.t.get(self.i).is_some_and(|t| t.is_punct(c))
    }

    fn punct_at(&self, idx: usize, c: char) -> bool {
        self.t.get(idx).is_some_and(|t| t.is_punct(c))
    }

    /// Skip a balanced `{ ... }` block without parsing it.
    fn skip_block(&mut self) {
        let mut depth = 0usize;
        while !self.at_end() {
            if self.at_punct('{') {
                depth += 1;
            } else if self.at_punct('}') {
                depth -= 1;
                if depth == 0 {
                    self.bump();
                    return;
                }
            }
            self.bump();
        }
    }

    /// Skip `#[...]` / `#![...]`, returning the idents inside.
    fn skip_attr(&mut self) -> Vec<String> {
        self.bump(); // '#'
        if self.at_punct('!') {
            self.bump();
        }
        let mut idents = Vec::new();
        if !self.at_punct('[') {
            return idents;
        }
        let mut depth = 0usize;
        while !self.at_end() {
            if self.at_punct('[') {
                depth += 1;
            } else if self.at_punct(']') {
                depth -= 1;
                if depth == 0 {
                    self.bump();
                    return idents;
                }
            } else if let Some(t) = self.t.get(self.i) {
                if t.is_ident {
                    idents.push(t.text.clone());
                }
            }
            self.bump();
        }
        idents
    }

    /// Skip a balanced `<...>` run starting at `<`.
    fn skip_angles(&mut self) {
        let mut depth = 0i32;
        while !self.at_end() {
            if self.at_punct('<') {
                depth += 1;
            } else if self.at_punct('>') {
                depth -= 1;
                if depth <= 0 {
                    self.bump();
                    return;
                }
            }
            self.bump();
        }
    }

    /// Parse `{ ... }` into nodes. Expects the cursor at `{`.
    fn parse_block(&mut self) -> Vec<Node> {
        self.bump(); // '{'
        let mut nodes = Vec::new();
        let mut paren = 0i32;
        while !self.at_end() {
            if self.at_punct('}') {
                self.bump();
                break;
            }
            self.step(&mut nodes, &mut paren);
        }
        nodes
    }

    /// Parse a flat match-arm body: until `,` at depth 0 (consumed) or the
    /// match's closing `}` (left in place).
    fn parse_flat(&mut self) -> Vec<Node> {
        let mut nodes = Vec::new();
        let mut paren = 0i32;
        while !self.at_end() {
            if paren == 0 && self.at_punct(',') {
                self.bump();
                break;
            }
            if paren == 0 && self.at_punct('}') {
                break;
            }
            self.step(&mut nodes, &mut paren);
        }
        nodes
    }

    /// Consume one construct at the cursor, appending nodes.
    fn step(&mut self, nodes: &mut Vec<Node>, paren: &mut i32) {
        let Some(tok) = self.t.get(self.i) else {
            return;
        };
        if tok.is_ident {
            match tok.text.as_str() {
                "if" if *paren == 0 => {
                    self.parse_if(nodes);
                    return;
                }
                "match" if *paren == 0 => {
                    self.parse_match(nodes);
                    return;
                }
                "for" | "while" if *paren == 0 => {
                    self.bump();
                    self.scan_header(nodes);
                    let body = self.parse_block();
                    nodes.push(Node::Loop(body));
                    return;
                }
                "loop" if *paren == 0 => {
                    self.bump();
                    while !self.at_end() && !self.at_punct('{') {
                        self.bump();
                    }
                    let body = self.parse_block();
                    nodes.push(Node::Loop(body));
                    return;
                }
                "let" if *paren == 0 => {
                    self.record_binding();
                    self.bump();
                    return;
                }
                "return" | "break" | "continue" if *paren == 0 => {
                    self.bump();
                    nodes.push(Node::Diverge);
                    return;
                }
                "panic" | "unreachable" | "todo" | "unimplemented"
                    if self.punct_at(self.i + 1, '!') =>
                {
                    self.bump();
                    self.bump();
                    nodes.push(Node::Diverge);
                    return;
                }
                // A bare `else` here is a let-else tail (its block only
                // runs when the binding fails, and must diverge) or an
                // if-expression inside parentheses. Inline the block's
                // calls but drop its Diverge markers so a let-else does
                // not truncate the happy path.
                "else" if *paren == 0 => {
                    self.bump();
                    if self.at_punct('{') {
                        let inner = self.parse_block();
                        nodes.extend(inner.into_iter().filter(|n| !matches!(n, Node::Diverge)));
                    }
                    return;
                }
                _ => {}
            }
            if let Some(call) = self.try_call() {
                nodes.push(Node::Call(call));
                return;
            }
            self.bump();
            return;
        }
        match tok.text.as_bytes()[0] as char {
            '{' => {
                let inner = self.parse_block();
                nodes.extend(inner);
            }
            '(' | '[' => {
                *paren += 1;
                self.bump();
            }
            ')' | ']' => {
                *paren = (*paren - 1).max(0);
                self.bump();
            }
            '#' => {
                self.skip_attr();
            }
            _ => self.bump(),
        }
    }

    /// At a `let` keyword, peek for `let [mut] var = TypeName …` and record
    /// `(var, TypeName)` when the initializer starts with an
    /// uppercase-leading path (constructor call or struct literal). Does
    /// not consume.
    fn record_binding(&mut self) {
        let mut a = self.i + 1;
        if self.t.get(a).is_some_and(|t| t.is_ident && t.text == "mut") {
            a += 1;
        }
        let Some(var) = self.t.get(a).filter(|t| t.is_ident) else {
            return;
        };
        if !var
            .text
            .chars()
            .next()
            .is_some_and(|c| c.is_lowercase() || c == '_')
        {
            return; // pattern binding (`let Some(x) = …`), not a variable
        }
        let var = var.text.clone();
        // Find `=` at depth 0 (skipping an optional `: Type` ascription).
        let mut depth = 0i32;
        let mut b = a + 1;
        loop {
            let Some(t) = self.t.get(b) else { return };
            if depth == 0 && t.is_punct('=') && !self.punct_at(b + 1, '=') {
                break;
            }
            if depth == 0 && (t.is_punct(';') || t.is_punct('{')) {
                return;
            }
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('<') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('>') {
                depth = (depth - 1).max(0);
            }
            b += 1;
        }
        let Some(ty) = self.t.get(b + 1).filter(|t| t.is_ident) else {
            return;
        };
        if ty.text.chars().next().is_some_and(char::is_uppercase) {
            self.bindings.push((var, ty.text.clone()));
        }
    }

    /// Scan a condition / scrutinee / loop header up to its `{` at paren
    /// depth 0, emitting any calls found along the way.
    fn scan_header(&mut self, nodes: &mut Vec<Node>) {
        let mut depth = 0i32;
        while !self.at_end() {
            if depth == 0 && self.at_punct('{') {
                return;
            }
            let tok = &self.t[self.i];
            if tok.is_ident {
                if let Some(call) = self.try_call() {
                    nodes.push(Node::Call(call));
                } else {
                    self.bump();
                }
            } else if tok.is_punct('(') || tok.is_punct('[') {
                depth += 1;
                self.bump();
            } else if tok.is_punct(')') || tok.is_punct(']') {
                depth = (depth - 1).max(0);
                self.bump();
            } else if tok.is_punct('{') {
                // Closure body inside the header: treat as executed.
                let inner = self.parse_block();
                nodes.extend(inner);
            } else {
                self.bump();
            }
        }
    }

    /// `if c1 { } else if c2 { } else { }` → one Branch with all arms;
    /// condition calls are emitted before the Branch node.
    fn parse_if(&mut self, nodes: &mut Vec<Node>) {
        let mut arms: Vec<Vec<Node>> = Vec::new();
        loop {
            self.bump(); // 'if'
            self.scan_header(nodes);
            arms.push(self.parse_block());
            if self.at_ident("else") {
                self.bump();
                if self.at_ident("if") {
                    continue;
                }
                if self.at_punct('{') {
                    arms.push(self.parse_block());
                } else {
                    arms.push(Vec::new());
                }
            } else {
                arms.push(Vec::new()); // implicit fallthrough
            }
            nodes.push(Node::Branch(arms));
            return;
        }
    }

    /// `match scrutinee { pat => body, ... }` → one Branch node. Guard
    /// calls are emitted before the Branch (they run pre-selection).
    fn parse_match(&mut self, nodes: &mut Vec<Node>) {
        self.bump(); // 'match'
        self.scan_header(nodes);
        if !self.at_punct('{') {
            return;
        }
        self.bump(); // '{'
        let mut arms: Vec<Vec<Node>> = Vec::new();
        while !self.at_end() {
            if self.at_punct('}') {
                self.bump();
                break;
            }
            // Skip the pattern and optional guard up to `=>` at depth 0.
            // Calls after a depth-0 `if` belong to the guard: they run
            // pre-selection and are emitted here.
            let mut in_guard = false;
            let mut depth = 0i32;
            while !self.at_end() {
                if depth == 0 && self.at_punct('=') && self.punct_at(self.i + 1, '>') {
                    self.bump();
                    self.bump();
                    break;
                }
                let tok = &self.t[self.i];
                if tok.is_ident {
                    if depth == 0 && tok.text == "if" {
                        in_guard = true;
                        self.bump();
                    } else if in_guard {
                        if let Some(call) = self.try_call() {
                            nodes.push(Node::Call(call));
                        } else {
                            self.bump();
                        }
                    } else {
                        self.bump();
                    }
                } else {
                    match tok.text.as_bytes()[0] as char {
                        '(' | '[' | '{' => depth += 1,
                        ')' | ']' | '}' => depth = (depth - 1).max(0),
                        _ => {}
                    }
                    self.bump();
                }
            }
            if self.at_punct('{') {
                let body = self.parse_block();
                if self.at_punct(',') {
                    self.bump();
                }
                arms.push(body);
            } else {
                arms.push(self.parse_flat());
            }
        }
        nodes.push(Node::Branch(arms));
    }

    /// If the cursor sits on `name(` (or `name::<T>(`), build a RawCall.
    /// Only the name token is consumed, so calls nested in the argument
    /// list are still discovered by the main loop.
    fn try_call(&mut self) -> Option<RawCall> {
        let name_idx = self.i;
        let name_tok = &self.t[name_idx];
        let mut j = name_idx + 1;
        if self.punct_at(j, ':') && self.punct_at(j + 1, ':') && self.punct_at(j + 2, '<') {
            let save = self.i;
            self.i = j + 2;
            self.skip_angles();
            j = self.i;
            self.i = save;
        }
        if !self.punct_at(j, '(') {
            return None;
        }
        // Receiver: walk back over `ident . ident . name`.
        let mut segs: Vec<&str> = Vec::new();
        let mut k = name_idx;
        while k >= 2 && self.t[k - 1].is_punct('.') && self.t[k - 2].is_ident {
            segs.push(&self.t[k - 2].text);
            k -= 2;
        }
        segs.reverse();
        let receiver = segs.join(".");
        // First two arguments, when they are simple paths
        // (`& mut self.l.array` → `self.l.array`).
        let (arg0, after0) = self.arg_path(j + 1);
        let arg1 = if self.punct_at(after0, ',') {
            self.arg_path(after0 + 1).0
        } else {
            String::new()
        };
        let args_full = self.args_full(j + 1);
        self.i = name_idx + 1;
        Some(RawCall {
            name: name_tok.text.clone(),
            receiver,
            arg0,
            arg1,
            args_full,
            line: name_tok.line,
        })
    }

    /// Full token text of the argument list starting at `a`, up to the
    /// call's closing `)` at depth 0. Tokens are space-joined and capped,
    /// giving a stable expression identity for the must-flushed lattice.
    fn args_full(&self, mut a: usize) -> String {
        let mut depth = 0i32;
        let mut parts: Vec<&str> = Vec::new();
        while let Some(t) = self.t.get(a) {
            if depth == 0 && t.is_punct(')') {
                break;
            }
            if t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                depth -= 1;
            }
            parts.push(&t.text);
            if parts.len() >= 24 {
                parts.push("…");
                break;
            }
            a += 1;
        }
        parts.join(" ")
    }

    /// Read a dotted ident path at `a`, skipping `&`/`*`/`mut` prefixes.
    /// Returns the path (possibly empty) and the index just past it.
    fn arg_path(&self, mut a: usize) -> (String, usize) {
        while self.punct_at(a, '&') || self.punct_at(a, '*') || {
            self.t.get(a).is_some_and(|t| t.is_ident && t.text == "mut")
        } {
            a += 1;
        }
        let mut chain: Vec<&str> = Vec::new();
        while let Some(t) = self.t.get(a) {
            let starts_alpha = t
                .text
                .chars()
                .next()
                .is_some_and(|c| c.is_alphabetic() || c == '_');
            if !(t.is_ident && starts_alpha) {
                break;
            }
            chain.push(&t.text);
            a += 1;
            if self.punct_at(a, '.') && self.t.get(a + 1).is_some_and(|t| t.is_ident) {
                a += 1;
            } else {
                break;
            }
        }
        (chain.join("."), a)
    }
}

/// Item-level scanner: finds `fn` bodies, tracks `impl` types, and skips
/// `#[cfg(test)]` items.
fn scan_items(
    p: &mut P,
    impl_ty: Option<&str>,
    in_block: bool,
    skip_all: bool,
    out: &mut Vec<FnItem>,
) {
    let mut pending_skip = false;
    while !p.at_end() {
        if in_block && p.at_punct('}') {
            p.bump();
            return;
        }
        if p.at_punct('#') {
            let idents = p.skip_attr();
            if idents.iter().any(|s| s == "cfg") && idents.iter().any(|s| s == "test") {
                pending_skip = true;
            }
            continue;
        }
        if p.at_ident("mod") {
            p.bump();
            if p.t.get(p.i).is_some_and(|t| t.is_ident) {
                p.bump(); // mod name
            }
            if p.at_punct('{') {
                if pending_skip {
                    p.skip_block();
                } else {
                    p.bump();
                    scan_items(p, None, true, skip_all, out);
                }
            } else if p.at_punct(';') {
                p.bump();
            }
            pending_skip = false;
            continue;
        }
        if p.at_ident("impl") {
            p.bump();
            if p.at_punct('<') {
                p.skip_angles();
            }
            let name = scan_impl_type(p);
            if p.at_punct('{') {
                p.bump();
                scan_items(p, Some(&name), true, skip_all || pending_skip, out);
            }
            pending_skip = false;
            continue;
        }
        if p.at_ident("trait") {
            // Trait declarations: default method bodies are not analyzed.
            while !p.at_end() && !p.at_punct('{') && !p.at_punct(';') {
                p.bump();
            }
            if p.at_punct('{') {
                p.skip_block();
            } else {
                p.bump();
            }
            pending_skip = false;
            continue;
        }
        if p.at_ident("fn") {
            p.bump();
            let (name, line) = match p.t.get(p.i) {
                Some(t) if t.is_ident => (t.text.clone(), t.line),
                _ => {
                    continue;
                }
            };
            p.bump();
            // Signature: to `{` at paren depth 0, or `;` (no body).
            let mut paren = 0i32;
            let mut has_body = false;
            while !p.at_end() {
                if paren == 0 && p.at_punct('{') {
                    has_body = true;
                    break;
                }
                if paren == 0 && p.at_punct(';') {
                    p.bump();
                    break;
                }
                if p.at_punct('(') || p.at_punct('[') {
                    paren += 1;
                } else if p.at_punct(')') || p.at_punct(']') {
                    paren -= 1;
                }
                p.bump();
            }
            if has_body {
                if skip_all || pending_skip {
                    p.skip_block();
                } else {
                    p.bindings.clear();
                    let body = p.parse_block();
                    let bindings = std::mem::take(&mut p.bindings);
                    let context = fn_context(&name).unwrap_or(p.file_context);
                    let qualified = match impl_ty {
                        Some(ty) => format!("{ty}::{name}"),
                        None => name,
                    };
                    out.push(FnItem {
                        name: qualified,
                        line,
                        context,
                        body,
                        bindings,
                    });
                }
            }
            pending_skip = false;
            continue;
        }
        if p.at_punct('{') {
            // Struct/enum/const bodies and other item-level blocks.
            p.skip_block();
            pending_skip = false;
            continue;
        }
        p.bump();
    }
}

/// After `impl [<...>]`, read the implemented type's name: the last ident
/// at angle depth 0 before `{`/`for`/`where`; with `for`, the trait name
/// is discarded and the self type is read instead.
fn scan_impl_type(p: &mut P) -> String {
    let mut name = String::new();
    let mut depth = 0i32;
    while !p.at_end() {
        if depth == 0 && (p.at_punct('{') || p.at_ident("where")) {
            break;
        }
        if depth == 0 && p.at_ident("for") {
            p.bump();
            name.clear();
            continue;
        }
        let tok = &p.t[p.i];
        if tok.is_punct('<') {
            depth += 1;
        } else if tok.is_punct('>') {
            depth = (depth - 1).max(0);
        } else if depth == 0 && tok.is_ident && tok.text != "dyn" && tok.text != "mut" {
            name = tok.text.clone();
        }
        p.bump();
    }
    if p.at_ident("where") {
        while !p.at_end() && !p.at_punct('{') {
            p.bump();
        }
    }
    name
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> ParsedFile {
        parse_file(src, "test")
    }

    fn call_names(nodes: &[Node]) -> Vec<String> {
        let mut out = Vec::new();
        for n in nodes {
            match n {
                Node::Call(c) => out.push(c.name.clone()),
                Node::Branch(arms) => {
                    for a in arms {
                        out.extend(call_names(a));
                    }
                }
                Node::Loop(body) => out.extend(call_names(body)),
                Node::Diverge => {}
            }
        }
        out
    }

    #[test]
    fn extracts_calls_with_receiver_and_arg() {
        let f = parse("fn f(ctx: &C) { ctx.store(self.buf, 0, v); self.ck.update(v); }");
        assert_eq!(f.fns.len(), 1);
        let Node::Call(c) = &f.fns[0].body[0] else {
            panic!("want call")
        };
        assert_eq!(c.name, "store");
        assert_eq!(c.receiver, "ctx");
        assert_eq!(c.arg0, "self.buf");
        let Node::Call(c2) = &f.fns[0].body[1] else {
            panic!("want call")
        };
        assert_eq!(c2.receiver, "self.ck");
    }

    #[test]
    fn if_else_becomes_branch_with_arms() {
        let f = parse("fn f() { if c { a(); } else if d { b(); } else { e(); } }");
        let Node::Branch(arms) = &f.fns[0].body[0] else {
            panic!("want branch, got {:?}", f.fns[0].body)
        };
        assert_eq!(arms.len(), 3);
        assert_eq!(call_names(&arms[0]), ["a"]);
        assert_eq!(call_names(&arms[1]), ["b"]);
        assert_eq!(call_names(&arms[2]), ["e"]);
    }

    #[test]
    fn if_without_else_gets_fallthrough_arm() {
        let f = parse("fn f() { if c { a(); } b(); }");
        let Node::Branch(arms) = &f.fns[0].body[0] else {
            panic!("want branch")
        };
        assert_eq!(arms.len(), 2);
        assert!(arms[1].is_empty());
    }

    #[test]
    fn match_with_flat_and_block_arms() {
        let f =
            parse("fn f() { let k = match s { A => a(), B => { b(); } _ => return, }; tail(); }");
        let Node::Branch(arms) = &f.fns[0].body[0] else {
            panic!("want branch, got {:?}", f.fns[0].body)
        };
        assert_eq!(arms.len(), 3);
        assert_eq!(call_names(&arms[0]), ["a"]);
        assert_eq!(call_names(&arms[1]), ["b"]);
        assert!(matches!(arms[2][0], Node::Diverge));
        let Node::Call(t) = &f.fns[0].body[1] else {
            panic!("want tail call")
        };
        assert_eq!(t.name, "tail");
    }

    #[test]
    fn loops_and_diverge() {
        let f = parse("fn f() { for i in 0..n { g(i); if z { continue; } } return; }");
        let Node::Loop(body) = &f.fns[0].body[0] else {
            panic!("want loop")
        };
        assert_eq!(call_names(body), ["g"]);
        assert!(matches!(f.fns[0].body[1], Node::Diverge));
    }

    #[test]
    fn impl_qualifies_names_and_cfg_test_is_skipped() {
        let f = parse(
            "impl Wal { fn commit(&self) { x(); } }\n\
             #[cfg(test)] mod tests { fn t() { bad(); } }\n\
             #[cfg(test)] fn t2() { bad2(); }",
        );
        assert_eq!(f.fns.len(), 1);
        assert_eq!(f.fns[0].name, "Wal::commit");
    }

    #[test]
    fn impl_trait_for_type_uses_self_type() {
        let f = parse("impl Kernel for Tmm { fn run(&self) { x(); } }");
        assert_eq!(f.fns[0].name, "Tmm::run");
    }

    #[test]
    fn closure_bodies_inline_and_turbofish_calls() {
        let f = parse("fn f() { run(|sink| { sink.store(a, 0, v); }); g::<u64>(x); }");
        let names = call_names(&f.fns[0].body);
        assert!(names.contains(&"store".to_string()), "{names:?}");
        assert!(names.contains(&"g".to_string()), "{names:?}");
    }

    #[test]
    fn let_else_does_not_truncate_path() {
        let f = parse("fn f() { let Some(x) = y else { return; }; tail(); }");
        let names = call_names(&f.fns[0].body);
        assert!(names.contains(&"tail".to_string()), "{names:?}");
        assert!(!f.fns[0].body.iter().any(|n| matches!(n, Node::Diverge)));
    }

    #[test]
    fn context_from_name() {
        let src = "fn recover_lazy() { x(); }\n\
                   fn wal_plain() { y(); }\n\
                   fn other() { z(); }";
        let f = parse(src);
        assert_eq!(f.fns[0].context, FnContext::Recovery);
        assert_eq!(f.fns[1].context, FnContext::Wal);
        assert_eq!(f.fns[2].context, FnContext::Forward);
    }

    #[test]
    fn wal_file_context_default() {
        let f = parse_file("fn commit() { x(); }", "wal");
        assert_eq!(f.fns[0].context, FnContext::Wal);
    }

    #[test]
    fn calls_in_conditions_emitted_before_branch() {
        let f = parse("fn f() { if t.load(i) != 0 { a(); } }");
        let Node::Call(c) = &f.fns[0].body[0] else {
            panic!("want load call first, got {:?}", f.fns[0].body)
        };
        assert_eq!(c.name, "load");
        assert!(matches!(f.fns[0].body[1], Node::Branch(_)));
    }
}

//! Concurrency-safety rules over worker closures and unwind boundaries.
//!
//! The workspace's parallel layers (`std::thread::scope` pools,
//! [`ppatc::eval`]'s `try_map_indexed` engine) promise byte-identical
//! results for any worker count; that promise dies the moment a worker
//! closure reaches non-atomic shared mutable state. Two rules enforce it:
//!
//! * **PL016 `shared-state-escape`** (deny) — a worker closure (an
//!   argument of `.spawn(..)`, `thread::spawn`, or the
//!   `par_map_indexed`/`try_map_indexed` entry points) touches a
//!   `static mut`, either directly or through any chain of calls
//!   resolved by the workspace symbol table — the
//!   cross-crate call graph built for PL009 is reused, so a helper in
//!   another crate that mutates its own `static mut` taints every worker
//!   that calls it.
//! * **PL017 `unwind-boundary`** (warn) — a closure passed directly to
//!   `catch_unwind` mutates state captured from the enclosing scope
//!   without an `AssertUnwindSafe` acknowledgment. A panic in the middle
//!   of such a mutation leaves the captured value half-updated while the
//!   program continues; wrapping in `AssertUnwindSafe` is the explicit,
//!   reviewable claim that the state is poison-tolerant.
//!
//! Facts are collected per fn during the per-file stage (and cached with
//! the other summaries); the PL016 verdict is recomputed at assembly
//! time from those facts, because it depends on other files' bodies.

use crate::ast::{BinOp, Block, Expr, Stmt, UnOp};
use crate::callgraph::{CallRef, FnSummary};
use crate::lexer::TokenKind;
use crate::source::SourceFile;
use crate::symbols::SymbolTable;

/// A PL016/PL017 finding, before it is bound to a `Rule`.
#[derive(Clone, Debug)]
pub struct ConcFinding {
    /// Which rule the finding belongs to.
    pub kind: ConcKind,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable description.
    pub message: String,
}

/// The concurrency rules.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ConcKind {
    /// PL016: shared mutable state reachable from a worker closure.
    SharedStateEscape,
    /// PL017: a `catch_unwind` closure mutating captured state.
    UnwindBoundary,
}

/// One touch of a `static mut`, as recorded in a fn's facts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SharedSite {
    /// The `static mut`'s name.
    pub name: String,
    /// 1-based line of the touch.
    pub line: u32,
    /// 1-based column of the touch.
    pub col: u32,
}

/// One call made from inside a worker closure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkerCall {
    /// The callee, as written.
    pub call: CallRef,
    /// 1-based line of the call.
    pub line: u32,
    /// 1-based column of the call.
    pub col: u32,
}

/// The concurrency-relevant facts of one fn body, carried on
/// [`FnSummary`] and serialized with the incremental cache.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ConcFacts {
    /// `static mut` touches anywhere in the body (taint source for the
    /// cross-crate fixpoint).
    pub shared: Vec<SharedSite>,
    /// `static mut` touches lexically inside worker closures.
    pub worker_shared: Vec<SharedSite>,
    /// Calls made lexically inside worker closures.
    pub worker_calls: Vec<WorkerCall>,
}

/// Entry points whose closure arguments run on other threads.
const WORKER_ENTRY_FNS: &[&str] = &["spawn", "par_map_indexed", "try_map_indexed"];

/// Method receivers mutated by these names count as state mutation for
/// PL017 (the conservative everyday set; reads stay silent).
const MUTATING_METHODS: &[&str] = &[
    "push",
    "push_str",
    "pop",
    "insert",
    "remove",
    "clear",
    "extend",
    "truncate",
    "sort",
    "sort_by",
    "sort_unstable",
    "take",
    "replace",
    "get_or_insert",
    "get_or_insert_with",
    "set",
    "swap",
];

/// The names declared `static mut` in `file` (token-level scan: bodies
/// only see uses, the declarations are items).
pub(crate) fn static_mut_names(file: &SourceFile) -> Vec<String> {
    let mut out = Vec::new();
    let toks = &file.tokens;
    for w in file.code.windows(3) {
        let (a, b, c) = (&toks[w[0]], &toks[w[1]], &toks[w[2]]);
        if a.kind == TokenKind::Ident
            && a.text == "static"
            && b.text == "mut"
            && c.kind == TokenKind::Ident
        {
            out.push(c.text.clone());
        }
    }
    out.sort();
    out.dedup();
    out
}

/// Collects one fn body's [`ConcFacts`]. `statics` is the file's
/// `static mut` name set from [`static_mut_names`].
pub(crate) fn collect_facts(statics: &[String], block: &Block) -> ConcFacts {
    let mut cx = FactWalker {
        statics,
        worker_depth: 0,
        facts: ConcFacts::default(),
    };
    cx.walk_block(block);
    cx.facts
        .worker_calls
        .sort_by(|a, b| (a.line, a.col, &a.call.segs).cmp(&(b.line, b.col, &b.call.segs)));
    cx.facts.worker_calls.dedup();
    cx.facts
}

struct FactWalker<'a> {
    statics: &'a [String],
    /// Lexical depth of worker closures around the current node.
    worker_depth: usize,
    facts: ConcFacts,
}

impl FactWalker<'_> {
    fn walk_block(&mut self, block: &Block) {
        for stmt in &block.stmts {
            match stmt {
                Stmt::Let { init, .. } => {
                    if let Some(e) = init {
                        self.walk(e);
                    }
                }
                Stmt::Expr { expr, .. } => self.walk(expr),
                Stmt::Item { .. } => {}
            }
        }
    }

    fn touch(&mut self, segs: &[String], line: u32, col: u32) {
        let Some(last) = segs.last() else {
            return;
        };
        if !self.statics.iter().any(|s| s == last) {
            return;
        }
        let site = SharedSite {
            name: last.clone(),
            line,
            col,
        };
        if self.worker_depth > 0 && !self.facts.worker_shared.contains(&site) {
            self.facts.worker_shared.push(site.clone());
        }
        if !self.facts.shared.contains(&site) {
            self.facts.shared.push(site);
        }
    }

    fn record_call(&mut self, call: CallRef, line: u32, col: u32) {
        if self.worker_depth > 0 {
            self.facts.worker_calls.push(WorkerCall { call, line, col });
        }
    }

    /// Walks a call's arguments, treating closure arguments as worker
    /// bodies when the callee is a worker entry point.
    fn walk_args(&mut self, is_worker_entry: bool, args: &[Expr]) {
        for a in args {
            let enters = is_worker_entry && matches!(a, Expr::Closure { .. });
            if enters {
                self.worker_depth += 1;
            }
            self.walk(a);
            if enters {
                self.worker_depth -= 1;
            }
        }
    }

    #[allow(clippy::too_many_lines)]
    fn walk(&mut self, expr: &Expr) {
        match expr {
            Expr::Path { segs, span } => self.touch(segs, span.line, span.col),
            Expr::Call { callee, args, span } => {
                let mut entry = false;
                if let Expr::Path { segs, .. } = callee.as_ref() {
                    if let Some(last) = segs.last() {
                        entry = WORKER_ENTRY_FNS.contains(&last.as_str());
                        self.record_call(
                            CallRef {
                                segs: segs.clone(),
                                is_method: false,
                            },
                            span.line,
                            span.col,
                        );
                        self.touch(segs, span.line, span.col);
                    }
                } else {
                    self.walk(callee);
                }
                self.walk_args(entry, args);
            }
            Expr::MethodCall {
                recv,
                method,
                args,
                span,
            } => {
                self.walk(recv);
                let entry = WORKER_ENTRY_FNS.contains(&method.as_str());
                self.record_call(
                    CallRef {
                        segs: vec![method.clone()],
                        is_method: true,
                    },
                    span.line,
                    span.col,
                );
                self.walk_args(entry, args);
            }
            Expr::Unary { expr, .. } | Expr::Cast { expr, .. } | Expr::Try { expr, .. } => {
                self.walk(expr);
            }
            Expr::Binary { lhs, rhs, .. } => {
                self.walk(lhs);
                self.walk(rhs);
            }
            Expr::Field { recv, .. } => self.walk(recv),
            Expr::Index { recv, index, .. } => {
                self.walk(recv);
                self.walk(index);
            }
            Expr::Tuple { items, .. } | Expr::Array { items, .. } => {
                for e in items {
                    self.walk(e);
                }
            }
            Expr::Block { block, .. } => self.walk_block(block),
            Expr::If {
                cond, then, els, ..
            } => {
                self.walk(cond);
                self.walk_block(then);
                if let Some(e) = els {
                    self.walk(e);
                }
            }
            Expr::Match {
                scrutinee, arms, ..
            } => {
                self.walk(scrutinee);
                for a in arms {
                    self.walk(a);
                }
            }
            Expr::Loop { head, body, .. } => {
                if let Some(h) = head {
                    self.walk(h);
                }
                self.walk_block(body);
            }
            Expr::Closure { body, .. } => self.walk(body),
            Expr::Struct { fields, base, .. } => {
                for (_, e) in fields {
                    self.walk(e);
                }
                if let Some(b) = base {
                    self.walk(b);
                }
            }
            Expr::Range { lo, hi, .. } => {
                if let Some(e) = lo {
                    self.walk(e);
                }
                if let Some(e) = hi {
                    self.walk(e);
                }
            }
            Expr::Jump { expr, .. } => {
                if let Some(e) = expr {
                    self.walk(e);
                }
            }
            Expr::Lit { .. } | Expr::Macro { .. } | Expr::Unknown { .. } => {}
        }
    }
}

/// The assembly-time PL016 pass: taints every fn that touches a
/// `static mut` (directly or through resolved calls, `# Panics` docs
/// notwithstanding — documentation does not make shared state atomic) and
/// reports every worker closure that reaches a tainted fn, plus direct
/// in-closure touches. `edges[i]` lists the summary indices fn `i`
/// calls, exactly as for PL009.
pub(crate) fn check(
    summaries: &[FnSummary],
    table: &SymbolTable<'_>,
    edges: &[Vec<usize>],
) -> Vec<(usize, ConcFinding)> {
    let mut tainted: Vec<bool> = summaries
        .iter()
        .map(|s| !s.conc.shared.is_empty())
        .collect();
    loop {
        let mut changed = false;
        for i in 0..summaries.len() {
            if !tainted[i] && edges[i].iter().any(|&j| tainted[j]) {
                tainted[i] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    let mut out = Vec::new();
    for (i, s) in summaries.iter().enumerate() {
        for site in &s.conc.worker_shared {
            out.push((
                i,
                ConcFinding {
                    kind: ConcKind::SharedStateEscape,
                    line: site.line,
                    col: site.col,
                    message: format!(
                        "worker closure touches `static mut {}`; non-atomic shared \
                         state breaks the byte-identical-replay invariant — use an \
                         atomic, a Mutex, or per-worker accumulation",
                        site.name,
                    ),
                },
            ));
        }
        for wc in &s.conc.worker_calls {
            let Some(j) = table.resolve(i, &wc.call) else {
                continue;
            };
            if !tainted[j] {
                continue;
            }
            let (holder, site) = nearest_shared(j, summaries, edges, &tainted);
            out.push((
                i,
                ConcFinding {
                    kind: ConcKind::SharedStateEscape,
                    line: wc.line,
                    col: wc.col,
                    message: format!(
                        "worker closure calls `{}`, which reaches `static mut {}` \
                         ({}:{}); non-atomic shared state breaks the \
                         byte-identical-replay invariant",
                        summaries[j].name, site.name, summaries[holder].path, site.line,
                    ),
                },
            ));
        }
    }
    out
}

/// BFS from a tainted fn to the nearest fn with a direct `static mut`
/// touch; returns `(holder fn index, site)`.
fn nearest_shared<'s>(
    start: usize,
    summaries: &'s [FnSummary],
    edges: &[Vec<usize>],
    tainted: &[bool],
) -> (usize, &'s SharedSite) {
    let mut visited = vec![false; summaries.len()];
    let mut queue = std::collections::VecDeque::new();
    visited[start] = true;
    queue.push_back(start);
    while let Some(i) = queue.pop_front() {
        if let Some(site) = summaries[i].conc.shared.first() {
            return (i, site);
        }
        for &j in &edges[i] {
            if !visited[j] && tainted[j] {
                visited[j] = true;
                queue.push_back(j);
            }
        }
    }
    // Unreachable in practice: `start` is tainted, so some reachable fn
    // has a direct site; fall back to the start fn's (empty-message-safe)
    // first site or a synthetic one.
    (
        start,
        summaries[start]
            .conc
            .shared
            .first()
            .unwrap_or(&FALLBACK_SITE),
    )
}

static FALLBACK_SITE: SharedSite = SharedSite {
    name: String::new(),
    line: 0,
    col: 0,
};

/// The per-file PL017 pass: closures passed *directly* to `catch_unwind`
/// that mutate captured variables. `bodies` holds each analyzable fn's
/// parsed body, as in [`crate::determinism::check_file`].
pub fn check_file(bodies: &[(usize, Block)]) -> Vec<ConcFinding> {
    let mut out = Vec::new();
    for (_, block) in bodies {
        let mut cx = UnwindWalker { out: &mut out };
        cx.walk_block(block);
    }
    out
}

struct UnwindWalker<'a> {
    out: &'a mut Vec<ConcFinding>,
}

impl UnwindWalker<'_> {
    fn walk_block(&mut self, block: &Block) {
        for stmt in &block.stmts {
            match stmt {
                Stmt::Let { init, .. } => {
                    if let Some(e) = init {
                        self.walk(e);
                    }
                }
                Stmt::Expr { expr, .. } => self.walk(expr),
                Stmt::Item { .. } => {}
            }
        }
    }

    fn walk(&mut self, expr: &Expr) {
        if let Expr::Call { callee, args, span } = expr {
            if let Expr::Path { segs, .. } = callee.as_ref() {
                if segs.last().is_some_and(|s| s == "catch_unwind") {
                    if let Some(Expr::Closure { params, body, .. }) = args.first() {
                        let mut locals: Vec<String> = params.clone();
                        let mut muts = Vec::new();
                        captured_mutations(body, &mut locals, &mut muts);
                        if let Some(name) = muts.first() {
                            self.out.push(ConcFinding {
                                kind: ConcKind::UnwindBoundary,
                                line: span.line,
                                col: span.col,
                                message: format!(
                                    "catch_unwind closure mutates captured `{name}` \
                                     without AssertUnwindSafe; a panic mid-update \
                                     leaves it half-written — wrap the closure in \
                                     AssertUnwindSafe and reconcile the state on Err",
                                ),
                            });
                        }
                    }
                }
            }
        }
        // Keep descending: nested bodies may hold further boundaries.
        match expr {
            Expr::Call { callee, args, .. } => {
                self.walk(callee);
                for a in args {
                    self.walk(a);
                }
            }
            Expr::MethodCall { recv, args, .. } => {
                self.walk(recv);
                for a in args {
                    self.walk(a);
                }
            }
            Expr::Unary { expr, .. } | Expr::Cast { expr, .. } | Expr::Try { expr, .. } => {
                self.walk(expr);
            }
            Expr::Binary { lhs, rhs, .. } => {
                self.walk(lhs);
                self.walk(rhs);
            }
            Expr::Field { recv, .. } => self.walk(recv),
            Expr::Index { recv, index, .. } => {
                self.walk(recv);
                self.walk(index);
            }
            Expr::Tuple { items, .. } | Expr::Array { items, .. } => {
                for e in items {
                    self.walk(e);
                }
            }
            Expr::Block { block, .. } => self.walk_block(block),
            Expr::If {
                cond, then, els, ..
            } => {
                self.walk(cond);
                self.walk_block(then);
                if let Some(e) = els {
                    self.walk(e);
                }
            }
            Expr::Match {
                scrutinee, arms, ..
            } => {
                self.walk(scrutinee);
                for a in arms {
                    self.walk(a);
                }
            }
            Expr::Loop { head, body, .. } => {
                if let Some(h) = head {
                    self.walk(h);
                }
                self.walk_block(body);
            }
            Expr::Closure { body, .. } => self.walk(body),
            Expr::Struct { fields, base, .. } => {
                for (_, e) in fields {
                    self.walk(e);
                }
                if let Some(b) = base {
                    self.walk(b);
                }
            }
            Expr::Range { lo, hi, .. } => {
                if let Some(e) = lo {
                    self.walk(e);
                }
                if let Some(e) = hi {
                    self.walk(e);
                }
            }
            Expr::Jump { expr, .. } => {
                if let Some(e) = expr {
                    self.walk(e);
                }
            }
            Expr::Lit { .. } | Expr::Path { .. } | Expr::Macro { .. } | Expr::Unknown { .. } => {}
        }
    }
}

/// Scans a `catch_unwind` closure body for mutations of variables that
/// were *not* declared inside it (i.e. captured from the enclosing
/// scope): assignments whose target roots at a captured name, and
/// mutating method calls on one. Appends offending names to `muts`.
fn captured_mutations(expr: &Expr, locals: &mut Vec<String>, muts: &mut Vec<String>) {
    match expr {
        Expr::Binary { op, lhs, rhs, .. } => {
            let assigns = matches!(
                op,
                BinOp::Assign
                    | BinOp::AddAssign
                    | BinOp::SubAssign
                    | BinOp::MulAssign
                    | BinOp::DivAssign
                    | BinOp::RemAssign
                    | BinOp::BitAndAssign
                    | BinOp::BitOrAssign
                    | BinOp::BitXorAssign
                    | BinOp::ShlAssign
                    | BinOp::ShrAssign
            );
            if assigns {
                if let Some(name) = root_var(lhs) {
                    if !locals.contains(&name) && !muts.contains(&name) {
                        muts.push(name);
                    }
                }
            }
            captured_mutations(lhs, locals, muts);
            captured_mutations(rhs, locals, muts);
        }
        Expr::MethodCall {
            recv, method, args, ..
        } => {
            if MUTATING_METHODS.contains(&method.as_str()) {
                if let Some(name) = root_var(recv) {
                    if !locals.contains(&name) && !muts.contains(&name) {
                        muts.push(name);
                    }
                }
            }
            captured_mutations(recv, locals, muts);
            for a in args {
                captured_mutations(a, locals, muts);
            }
        }
        Expr::Block { block, .. } => {
            // Track block-local `let`s so they do not count as captures.
            let depth = locals.len();
            for stmt in &block.stmts {
                match stmt {
                    Stmt::Let { names, init, .. } => {
                        if let Some(e) = init {
                            captured_mutations(e, locals, muts);
                        }
                        locals.extend(names.iter().cloned());
                    }
                    Stmt::Expr { expr, .. } => captured_mutations(expr, locals, muts),
                    Stmt::Item { .. } => {}
                }
            }
            locals.truncate(depth);
        }
        Expr::Closure { params, body, .. } => {
            let depth = locals.len();
            locals.extend(params.iter().cloned());
            captured_mutations(body, locals, muts);
            locals.truncate(depth);
        }
        Expr::Unary { expr, .. } | Expr::Cast { expr, .. } | Expr::Try { expr, .. } => {
            captured_mutations(expr, locals, muts);
        }
        Expr::Call { callee, args, .. } => {
            captured_mutations(callee, locals, muts);
            for a in args {
                captured_mutations(a, locals, muts);
            }
        }
        Expr::Field { recv, .. } => captured_mutations(recv, locals, muts),
        Expr::Index { recv, index, .. } => {
            captured_mutations(recv, locals, muts);
            captured_mutations(index, locals, muts);
        }
        Expr::Tuple { items, .. } | Expr::Array { items, .. } => {
            for e in items {
                captured_mutations(e, locals, muts);
            }
        }
        Expr::If {
            cond, then, els, ..
        } => {
            captured_mutations(cond, locals, muts);
            let depth = locals.len();
            for stmt in &then.stmts {
                match stmt {
                    Stmt::Let { names, init, .. } => {
                        if let Some(e) = init {
                            captured_mutations(e, locals, muts);
                        }
                        locals.extend(names.iter().cloned());
                    }
                    Stmt::Expr { expr, .. } => captured_mutations(expr, locals, muts),
                    Stmt::Item { .. } => {}
                }
            }
            locals.truncate(depth);
            if let Some(e) = els {
                captured_mutations(e, locals, muts);
            }
        }
        Expr::Match {
            scrutinee, arms, ..
        } => {
            captured_mutations(scrutinee, locals, muts);
            for a in arms {
                captured_mutations(a, locals, muts);
            }
        }
        Expr::Loop { head, body, .. } => {
            if let Some(h) = head {
                captured_mutations(h, locals, muts);
            }
            let depth = locals.len();
            for stmt in &body.stmts {
                match stmt {
                    Stmt::Let { names, init, .. } => {
                        if let Some(e) = init {
                            captured_mutations(e, locals, muts);
                        }
                        locals.extend(names.iter().cloned());
                    }
                    Stmt::Expr { expr, .. } => captured_mutations(expr, locals, muts),
                    Stmt::Item { .. } => {}
                }
            }
            locals.truncate(depth);
        }
        Expr::Struct { fields, base, .. } => {
            for (_, e) in fields {
                captured_mutations(e, locals, muts);
            }
            if let Some(b) = base {
                captured_mutations(b, locals, muts);
            }
        }
        Expr::Range { lo, hi, .. } => {
            if let Some(e) = lo {
                captured_mutations(e, locals, muts);
            }
            if let Some(e) = hi {
                captured_mutations(e, locals, muts);
            }
        }
        Expr::Jump { expr, .. } => {
            if let Some(e) = expr {
                captured_mutations(e, locals, muts);
            }
        }
        Expr::Lit { .. } | Expr::Path { .. } | Expr::Macro { .. } | Expr::Unknown { .. } => {}
    }
}

/// The variable an assignment target or method receiver roots at:
/// `x`, `*x`, `x.field`, `x[i]` all root at `x`.
fn root_var(e: &Expr) -> Option<String> {
    match e {
        Expr::Path { segs, .. } if segs.len() == 1 => Some(segs[0].clone()),
        Expr::Unary {
            op: UnOp::Deref | UnOp::Ref,
            expr,
            ..
        } => root_var(expr),
        Expr::Field { recv, .. } | Expr::Index { recv, .. } => root_var(recv),
        Expr::Tuple { items, group, .. } if *group && items.len() == 1 => root_var(&items[0]),
        _ => None,
    }
}

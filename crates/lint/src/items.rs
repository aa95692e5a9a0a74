//! Item collector: from scrubbed source to functions, call sites, and
//! `pub` items — the inputs of the interprocedural analyses.
//!
//! Like [`crate::scrub`], this deliberately does not parse Rust (no
//! `syn`; the build is offline). A single token pass over the scrubbed
//! code view tracks a brace-scope stack (`mod` / `impl` / `fn` / plain
//! block), which is enough to attribute every call site and lock to the
//! function whose body contains it, and to give each function a qualified name (`module::Type::name`) for
//! readable call chains. The collector is forgiving by construction:
//! malformed nesting degrades to misattribution, never to a panic,
//! because the linter must not be the thing that aborts CI.

use crate::scrub::ScrubbedSource;

/// A call expression inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// The called name (last path segment).
    pub name: String,
    /// Qualifying path segments before the name (`engine::run` → `["engine"]`),
    /// with leading `crate`/`self`/`super` dropped. Empty for bare calls.
    pub qual: Vec<String>,
    /// `true` for `.name(…)` receiver calls — resolved against methods only.
    pub method: bool,
    /// 0-based line of the call.
    pub line: usize,
    /// Token index of the call name — a total order over the sites of one
    /// function, used to decide which calls happen while a guard is live.
    pub order: usize,
    /// `true` when the argument list is empty (`name()`); discriminates
    /// `Mutex::lock()`/`JoinHandle::join()` from same-named calls that
    /// take arguments (`io::Read::read(buf)`, `Vec::join(sep)`).
    pub empty_args: bool,
    /// First argument when it is a lone identifier (`cv.wait(guard)`),
    /// used to recognize a condvar wait consuming the guard it releases.
    pub first_arg: Option<String>,
    /// `true` when the call sits lexically inside a `loop`/`while`/`for`
    /// body within its function (condvar waits must be re-checked in a
    /// loop).
    pub in_loop: bool,
    /// Receiver identifier of a method call (`queue.push(…)` → `queue`,
    /// `self.backlog.push(…)` → `backlog`), when it is a plain
    /// identifier. `None` for free calls and `<expr>.m()` chains.
    pub recv: Option<String>,
}

/// Which primitive a lock-acquisition site takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LockKind {
    /// `Mutex::lock()`.
    Mutex,
    /// `RwLock::read()`.
    RwRead,
    /// `RwLock::write()`.
    RwWrite,
}

impl LockKind {
    /// Human label for report messages.
    pub fn as_str(self) -> &'static str {
        match self {
            LockKind::Mutex => "Mutex::lock",
            LockKind::RwRead => "RwLock::read",
            LockKind::RwWrite => "RwLock::write",
        }
    }
}

/// A lock acquisition inside a function body, with the token span over
/// which its guard is live.
///
/// The lock's *identity* is the last identifier of the receiver chain
/// (`self.inner.lock()` → `inner`, `JOBS.lock()` → `JOBS`): the collector
/// does not type-check, so two different types sharing a field name
/// alias into one lock — an over-approximation, the right polarity for a
/// deadlock checker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockSite {
    /// Receiver-derived lock name (`<expr>` when the receiver is not a
    /// plain identifier).
    pub name: String,
    /// Which primitive was acquired.
    pub kind: LockKind,
    /// 0-based line of the acquisition.
    pub line: usize,
    /// Token index of the acquisition.
    pub order: usize,
    /// Token index one past which the guard is no longer live: the end
    /// of the binding's block for `let`-bound guards, the statement's
    /// `;` for temporaries, or an explicit `drop(binding)`.
    pub held_until: usize,
    /// The guard's binding name, when `let`-bound (used to recognize
    /// `cv.wait(guard)` consuming it).
    pub binding: Option<String>,
}

/// One `fn` definition with everything the analyses need to know.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Bare name.
    pub name: String,
    /// Qualified name within the file: `mod::Type::name` (no crate prefix;
    /// the file path supplies that context in reports).
    pub qual_name: String,
    /// 0-based line of the `fn` keyword.
    pub def_line: usize,
    /// `true` if declared `pub` (not `pub(crate)`/`pub(super)`).
    pub is_pub: bool,
    /// `true` if defined inside an `impl` block.
    pub is_method: bool,
    /// `true` if the first parameter is a `self` receiver: the only
    /// functions a `.name(…)` call can reach.
    pub has_self: bool,
    /// `true` if the definition sits in a `#[cfg(test)]` span.
    pub is_test: bool,
    /// Call sites in the body.
    pub calls: Vec<CallSite>,
    /// Lock acquisitions in the body, with guard liveness spans.
    pub locks: Vec<LockSite>,
}

/// A `pub` item (any kind) at module scope, for the dead-pub analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PubItem {
    /// Item name.
    pub name: String,
    /// Item kind keyword (`fn`, `struct`, `enum`, …).
    pub kind: String,
    /// 0-based line of the declaring keyword.
    pub line: usize,
}

/// Everything collected from one file.
#[derive(Debug, Clone, Default)]
pub struct FileItems {
    /// Function definitions in file order.
    pub fns: Vec<FnItem>,
    /// `pub` items at module scope (including `pub fn`).
    pub pubs: Vec<PubItem>,
}

/// One lexical token of the scrubbed code view.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Punct(char),
}

/// Token plus its 0-based line.
struct Spanned {
    tok: Tok,
    line: usize,
}

/// Rust keywords that look like calls when followed by `(`.
const KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "fn", "let",
    "mut", "ref", "move", "in", "as", "use", "pub", "mod", "impl", "trait", "struct", "enum",
    "type", "const", "static", "where", "unsafe", "dyn", "async", "await", "self", "Self", "super",
    "crate", "true", "false",
];

fn lex(code: &str) -> Vec<Spanned> {
    let mut out = Vec::new();
    let mut line = 0usize;
    let mut chars = code.char_indices().peekable();
    while let Some(&(_, c)) = chars.peek() {
        if c == '\n' {
            line += 1;
            chars.next();
        } else if c.is_whitespace() {
            chars.next();
        } else if c.is_alphanumeric() || c == '_' {
            let mut word = String::new();
            while let Some(&(_, ch)) = chars.peek() {
                if ch.is_alphanumeric() || ch == '_' {
                    word.push(ch);
                    chars.next();
                } else {
                    break;
                }
            }
            out.push(Spanned {
                tok: Tok::Ident(word),
                line,
            });
        } else {
            chars.next();
            out.push(Spanned {
                tok: Tok::Punct(c),
                line,
            });
        }
    }
    out
}

/// What kind of brace scope we are inside.
#[derive(Debug, Clone)]
enum Scope {
    Mod(String),
    Impl(String),
    /// Index into `FileItems::fns`.
    Fn(usize),
    Block,
}

/// A declaration seen but whose `{` has not arrived yet.
#[derive(Debug, Clone)]
enum Pending {
    Mod(String),
    Impl(String),
    Fn {
        name: String,
        is_pub: bool,
        has_self: bool,
        line: usize,
    },
    None,
}

/// A guard whose releasing `}` / `;` / `drop` has not arrived yet.
struct OpenGuard {
    fn_idx: usize,
    name: String,
    kind: LockKind,
    line: usize,
    order: usize,
    /// `scopes.len()` at acquisition; the guard dies when the stack pops
    /// below this depth (or, for unbound temporaries, at the first `;`
    /// back at this depth).
    depth: usize,
    binding: Option<String>,
}

/// Collect the functions and `pub` items of one scrubbed file.
pub fn collect_items(src: &ScrubbedSource) -> FileItems {
    let toks = lex(&src.code);
    let mut items = FileItems::default();
    let mut scopes: Vec<Scope> = Vec::new();
    let mut pending = Pending::None;
    // `pub` visibility applies to the next item keyword; `pub(crate)` and
    // friends are not externally visible and are recorded as not-pub.
    let mut pub_pending = false;
    let mut pub_restricted = false;
    // Guard liveness and loop-body tracking for the concurrency pass.
    let mut guards: Vec<OpenGuard> = Vec::new();
    // Parallel to `scopes`: was this brace opened by a loop keyword?
    let mut loop_stack: Vec<bool> = Vec::new();
    let mut pending_loop = false;

    // Move an open guard into its function's lock list with `held_until`.
    fn close_guard(items: &mut FileItems, g: OpenGuard, held_until: usize) {
        items.fns[g.fn_idx].locks.push(LockSite {
            name: g.name,
            kind: g.kind,
            line: g.line,
            order: g.order,
            held_until,
            binding: g.binding,
        });
    }

    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        match &t.tok {
            Tok::Ident(w) => match w.as_str() {
                "pub" => {
                    pub_pending = true;
                    pub_restricted = matches!(toks.get(i + 1), Some(s) if s.tok == Tok::Punct('('));
                    if pub_restricted {
                        // Skip the `(crate)` / `(super)` / `(in path)` group.
                        let mut depth = 0usize;
                        let mut j = i + 1;
                        while j < toks.len() {
                            match toks[j].tok {
                                Tok::Punct('(') => depth += 1,
                                Tok::Punct(')') => {
                                    depth -= 1;
                                    if depth == 0 {
                                        break;
                                    }
                                }
                                _ => {}
                            }
                            j += 1;
                        }
                        i = j;
                    }
                }
                "mod" => {
                    if let Some(Spanned {
                        tok: Tok::Ident(name),
                        ..
                    }) = toks.get(i + 1)
                    {
                        if at_item_scope(&scopes) && pub_pending && !pub_restricted {
                            items.pubs.push(PubItem {
                                name: name.clone(),
                                kind: "mod".into(),
                                line: t.line,
                            });
                        }
                        pending = Pending::Mod(name.clone());
                        i += 1;
                    }
                    pub_pending = false;
                }
                // `impl Trait` in a pending fn's signature is a type, not
                // the start of an `impl` block.
                "impl" if !matches!(pending, Pending::Fn { .. }) => {
                    let (ty, consumed) = impl_type_name(&toks, i + 1);
                    pending = Pending::Impl(ty);
                    i = consumed;
                    pub_pending = false;
                }
                "fn" => {
                    if let Some(Spanned {
                        tok: Tok::Ident(name),
                        ..
                    }) = toks.get(i + 1)
                    {
                        if at_item_scope(&scopes) && pub_pending && !pub_restricted {
                            items.pubs.push(PubItem {
                                name: name.clone(),
                                kind: "fn".into(),
                                line: t.line,
                            });
                        }
                        pending = Pending::Fn {
                            name: name.clone(),
                            is_pub: pub_pending && !pub_restricted,
                            has_self: takes_self(&toks, i + 2),
                            line: t.line,
                        };
                        i += 1;
                    }
                    pub_pending = false;
                }
                "struct" | "enum" | "trait" | "type" | "const" | "static" | "union" => {
                    if at_item_scope(&scopes) && pub_pending && !pub_restricted {
                        if let Some(Spanned {
                            tok: Tok::Ident(name),
                            ..
                        }) = toks.get(i + 1)
                        {
                            items.pubs.push(PubItem {
                                name: name.clone(),
                                kind: w.clone(),
                                line: t.line,
                            });
                        }
                    }
                    pub_pending = false;
                }
                _ => {
                    // Any other ident consumes a pending `pub`: it is a
                    // field or binding name (`pub artifacts: …`), not an
                    // item — except the qualifiers that may sit between
                    // `pub` and the item keyword.
                    if !matches!(w.as_str(), "async" | "unsafe" | "extern") {
                        pub_pending = false;
                    }
                    if matches!(w.as_str(), "loop" | "while" | "for") {
                        pending_loop = true;
                    }
                    // Inside a function body, record call sites and locks.
                    if let Some(fn_idx) = innermost_fn(&scopes) {
                        let in_loop = in_loop_within_fn(&scopes, &loop_stack);
                        classify_body_token(&toks, i, fn_idx, in_loop, &mut items);
                        if let Some(g) = lock_acquisition(&toks, i, fn_idx, &scopes) {
                            guards.push(g);
                        }
                        close_dropped_guard(&toks, i, fn_idx, &mut guards, &mut items);
                    }
                }
            },
            Tok::Punct('{') => {
                loop_stack.push(pending_loop);
                pending_loop = false;
                let scope = match std::mem::replace(&mut pending, Pending::None) {
                    Pending::Mod(name) => Scope::Mod(name),
                    Pending::Impl(ty) => Scope::Impl(ty),
                    Pending::Fn {
                        name,
                        is_pub,
                        has_self,
                        line,
                    } => {
                        let qual_name = qualified_name(&scopes, &name);
                        let is_method = scopes.iter().any(|s| matches!(s, Scope::Impl(_)));
                        items.fns.push(FnItem {
                            name,
                            qual_name,
                            def_line: line,
                            is_pub,
                            is_method,
                            has_self,
                            is_test: src.is_test_line(line),
                            calls: Vec::new(),
                            locks: Vec::new(),
                        });
                        Scope::Fn(items.fns.len() - 1)
                    }
                    Pending::None => Scope::Block,
                };
                scopes.push(scope);
                pub_pending = false;
            }
            Tok::Punct('}') => {
                scopes.pop();
                loop_stack.pop();
                pending = Pending::None;
                pub_pending = false;
                pending_loop = false;
                // Guards acquired deeper than the surviving stack die
                // with their block (let-bound at block end; temporaries
                // whose statement had no trailing `;`, e.g. tail
                // expressions, die here too).
                let mut k = 0;
                while k < guards.len() {
                    if scopes.len() < guards[k].depth {
                        let g = guards.remove(k);
                        close_guard(&mut items, g, i);
                    } else {
                        k += 1;
                    }
                }
            }
            Tok::Punct(';') => {
                // Trait method declarations and `mod name;` have no body.
                pending = Pending::None;
                pub_pending = false;
                pending_loop = false;
                // A statement-temporary guard (no binding) dies at its
                // statement's `;`; a `;` inside nested braces is deeper
                // and leaves it alone.
                let mut k = 0;
                while k < guards.len() {
                    if guards[k].binding.is_none() && guards[k].depth == scopes.len() {
                        let g = guards.remove(k);
                        close_guard(&mut items, g, i);
                    } else {
                        k += 1;
                    }
                }
            }
            Tok::Punct(_) => {}
        }
        i += 1;
    }
    // Malformed nesting (or EOF) closes whatever is still open.
    for g in guards {
        close_guard(&mut items, g, toks.len());
    }
    for f in &mut items.fns {
        f.locks.sort_by_key(|l| l.order);
    }
    items
}

/// Is the current position lexically inside a loop body without leaving
/// the innermost function?
fn in_loop_within_fn(scopes: &[Scope], loop_stack: &[bool]) -> bool {
    for idx in (0..scopes.len()).rev() {
        if matches!(scopes[idx], Scope::Fn(_)) {
            return false;
        }
        if loop_stack.get(idx).copied().unwrap_or(false) {
            return true;
        }
    }
    false
}

/// Detect a lock acquisition at token `i`: a `.lock()` / `.read()` /
/// `.write()` method call with an *empty* argument list (io `read`/`write`
/// always take a buffer, so the empty arglist is the discriminator).
fn lock_acquisition(
    toks: &[Spanned],
    i: usize,
    fn_idx: usize,
    scopes: &[Scope],
) -> Option<OpenGuard> {
    let kind = match &toks[i].tok {
        Tok::Ident(w) => match w.as_str() {
            "lock" => LockKind::Mutex,
            "read" => LockKind::RwRead,
            "write" => LockKind::RwWrite,
            _ => return None,
        },
        _ => return None,
    };
    if i == 0 || toks[i - 1].tok != Tok::Punct('.') {
        return None;
    }
    if toks.get(i + 1).map(|s| &s.tok) != Some(&Tok::Punct('('))
        || toks.get(i + 2).map(|s| &s.tok) != Some(&Tok::Punct(')'))
    {
        return None;
    }
    // The lock's identity: the last identifier of the receiver chain.
    let name = match i.checked_sub(2).map(|p| &toks[p].tok) {
        Some(Tok::Ident(recv)) => recv.clone(),
        _ => "<expr>".to_string(),
    };
    // Scan back to the statement start; a `let` in between means the
    // guard is bound (lives to the end of its block), otherwise it is a
    // statement temporary (lives to the statement's `;`).
    let mut start = i;
    while start > 0 {
        match &toks[start - 1].tok {
            Tok::Punct(';') | Tok::Punct('{') | Tok::Punct('}') => break,
            _ => start -= 1,
        }
    }
    Some(OpenGuard {
        fn_idx,
        name,
        kind,
        line: toks[i].line,
        order: i,
        depth: scopes.len(),
        binding: let_binding(toks, start, i),
    })
}

/// The binding introduced by a `let` between `from` and `to`, if any:
/// `let g = …` → `g`; `let (g, t) = …` / `let Ok(mut g) = …` → the first
/// non-`mut`/`ref` identifier of the pattern. The binding only captures
/// the guard when the lock call is the *direct* right-hand side: in
/// `let n = f(m.lock())` the guard is a statement temporary (Rust drops
/// it at the `;`), so a lock call nested inside an unclosed `(` yields
/// no binding.
fn let_binding(toks: &[Spanned], from: usize, to: usize) -> Option<String> {
    let let_at = (from..to).find(|&j| matches!(&toks[j].tok, Tok::Ident(w) if w == "let"))?;
    if let Some(eq) = (let_at..to).find(|&j| toks[j].tok == Tok::Punct('=')) {
        let mut depth = 0i32;
        for s in &toks[eq + 1..to] {
            match s.tok {
                Tok::Punct('(') => depth += 1,
                Tok::Punct(')') => depth -= 1,
                _ => {}
            }
        }
        if depth > 0 {
            return None;
        }
    }
    let mut k = let_at + 1;
    while matches!(toks.get(k).map(|s| &s.tok), Some(Tok::Ident(w)) if w == "mut" || w == "ref") {
        k += 1;
    }
    match toks.get(k).map(|s| &s.tok) {
        Some(Tok::Ident(w)) => {
            if toks.get(k + 1).map(|s| &s.tok) == Some(&Tok::Punct('(')) {
                first_pattern_ident(toks, k + 2)
            } else {
                Some(w.clone())
            }
        }
        Some(Tok::Punct('(')) => first_pattern_ident(toks, k + 1),
        _ => None,
    }
}

/// First plain identifier inside a pattern's parentheses.
fn first_pattern_ident(toks: &[Spanned], from: usize) -> Option<String> {
    let mut m = from;
    while let Some(s) = toks.get(m) {
        match &s.tok {
            Tok::Ident(w) if w != "mut" && w != "ref" => return Some(w.clone()),
            Tok::Punct(')') => return None,
            _ => {}
        }
        m += 1;
    }
    None
}

/// An explicit `drop(binding)` releases a bound guard early.
fn close_dropped_guard(
    toks: &[Spanned],
    i: usize,
    fn_idx: usize,
    guards: &mut Vec<OpenGuard>,
    items: &mut FileItems,
) {
    let is_drop = matches!(&toks[i].tok, Tok::Ident(w) if w == "drop");
    if !is_drop || toks.get(i + 1).map(|s| &s.tok) != Some(&Tok::Punct('(')) {
        return;
    }
    let Some(Tok::Ident(arg)) = toks.get(i + 2).map(|s| &s.tok) else {
        return;
    };
    if toks.get(i + 3).map(|s| &s.tok) != Some(&Tok::Punct(')')) {
        return;
    }
    if let Some(pos) = guards
        .iter()
        .rposition(|g| g.fn_idx == fn_idx && g.binding.as_deref() == Some(arg.as_str()))
    {
        let g = guards.remove(pos);
        items.fns[g.fn_idx].locks.push(LockSite {
            name: g.name,
            kind: g.kind,
            line: g.line,
            order: g.order,
            held_until: i,
            binding: g.binding,
        });
    }
}

/// Does the fn signature whose name ends at `from` open its parameter
/// list with a `self` receiver (`self`, `&self`, `&'a mut self`,
/// `self: Box<Self>`)? Generic parameters before the `(` are skipped,
/// including `Fn(…) -> T` bounds, whose `->` closes no angle bracket.
fn takes_self(toks: &[Spanned], from: usize) -> bool {
    let mut j = from;
    let mut angle = 0usize;
    while let Some(s) = toks.get(j) {
        match s.tok {
            Tok::Punct('<') => angle += 1,
            Tok::Punct('>') if j > 0 && toks[j - 1].tok != Tok::Punct('-') => {
                angle = angle.saturating_sub(1)
            }
            Tok::Punct('(') if angle == 0 => break,
            Tok::Punct('{') | Tok::Punct(';') => return false,
            _ => {}
        }
        j += 1;
    }
    // The first parameter runs to the first `,` or `)` at paren depth 1.
    let mut depth = 0usize;
    for s in toks.iter().skip(j) {
        match &s.tok {
            Tok::Punct('(') => depth += 1,
            Tok::Punct(')') if depth == 1 => return false,
            Tok::Punct(')') => depth -= 1,
            Tok::Punct(',') if depth == 1 => return false,
            Tok::Ident(w) if w == "self" => return true,
            _ => {}
        }
    }
    false
}

/// Are we at a scope where `pub` items are collected (module/impl level,
/// not inside a function body)?
fn at_item_scope(scopes: &[Scope]) -> bool {
    !scopes.iter().any(|s| matches!(s, Scope::Fn(_)))
}

/// Innermost enclosing function, if any.
fn innermost_fn(scopes: &[Scope]) -> Option<usize> {
    scopes.iter().rev().find_map(|s| match s {
        Scope::Fn(idx) => Some(*idx),
        _ => None,
    })
}

/// `mod::Type::name` from the scope stack.
fn qualified_name(scopes: &[Scope], name: &str) -> String {
    let mut parts: Vec<&str> = Vec::new();
    for s in scopes {
        match s {
            Scope::Mod(m) => parts.push(m),
            Scope::Impl(t) => parts.push(t),
            _ => {}
        }
    }
    parts.push(name);
    parts.join("::")
}

/// Parse the self-type name of an `impl` header starting at `from`;
/// returns `(type_name, index_of_last_consumed_token)`. For
/// `impl Trait for Type` the type after `for` wins; generic parameters and
/// lifetimes are skipped.
fn impl_type_name(toks: &[Spanned], from: usize) -> (String, usize) {
    let mut angle = 0isize;
    let mut ty = String::new();
    let mut after_for = false;
    let mut j = from;
    while j < toks.len() {
        match &toks[j].tok {
            Tok::Punct('<') => angle += 1,
            Tok::Punct('>') => angle -= 1,
            Tok::Punct('{') | Tok::Punct(';') => return (ty, j.saturating_sub(1)),
            Tok::Ident(w) if angle == 0 => {
                if w == "for" {
                    after_for = true;
                    ty.clear();
                } else if w == "where" {
                    // Type name is settled; scan on to the `{`.
                } else if ty.is_empty() || after_for {
                    // Skip lifetime idents (preceded by `'`).
                    let is_lifetime = j > 0 && toks[j - 1].tok == Tok::Punct('\'');
                    if !is_lifetime {
                        ty = w.clone();
                        after_for = false;
                    }
                }
            }
            _ => {}
        }
        j += 1;
    }
    (ty, j.saturating_sub(1))
}

/// Record the ident at `i` inside a function body as a call site when it
/// is one.
fn classify_body_token(
    toks: &[Spanned],
    i: usize,
    fn_idx: usize,
    in_loop: bool,
    items: &mut FileItems,
) {
    let (word, line) = match &toks[i].tok {
        Tok::Ident(w) => (w.as_str(), toks[i].line),
        _ => return,
    };
    let next = toks.get(i + 1).map(|s| &s.tok);
    let prev = i.checked_sub(1).map(|p| &toks[p].tok);

    // Call expression: `name(…)` (a macro's `name!(…)` is not one).
    if next != Some(&Tok::Punct('(')) || KEYWORDS.contains(&word) {
        return;
    }
    let is_method_call = prev == Some(&Tok::Punct('.'));

    // Qualifying path: walk back over `seg::seg::…::name`.
    let mut qual: Vec<String> = Vec::new();
    if !is_method_call {
        let mut j = i;
        while j >= 2 && toks[j - 1].tok == Tok::Punct(':') && toks[j - 2].tok == Tok::Punct(':') {
            if j >= 3 {
                if let Tok::Ident(seg) = &toks[j - 3].tok {
                    qual.insert(0, seg.clone());
                    j -= 3;
                    continue;
                }
                // A `<T>::name(…)` or `>::name(…)` qualified call: give up
                // on the path but keep the call.
            }
            break;
        }
        while matches!(
            qual.first().map(String::as_str),
            Some("crate")
                | Some("self")
                | Some("super")
                | Some("std")
                | Some("core")
                | Some("alloc")
        ) {
            // `std::`/`core::` prefixes mark external calls we will not
            // resolve anyway, but the tail may still coincide with a
            // workspace name — keep the discriminating segments only.
            qual.remove(0);
        }
    }

    let empty_args = toks.get(i + 2).map(|s| &s.tok) == Some(&Tok::Punct(')'));
    let first_arg = match (
        toks.get(i + 2).map(|s| &s.tok),
        toks.get(i + 3).map(|s| &s.tok),
    ) {
        (Some(Tok::Ident(a)), Some(Tok::Punct(',')) | Some(Tok::Punct(')')))
            if !KEYWORDS.contains(&a.as_str()) =>
        {
            Some(a.clone())
        }
        _ => None,
    };
    // Receiver identifier of a method call (`recv.name(…)`), when plain.
    let recv = if is_method_call {
        match i.checked_sub(2).map(|p| &toks[p].tok) {
            Some(Tok::Ident(r)) if !KEYWORDS.contains(&r.as_str()) => Some(r.clone()),
            _ => None,
        }
    } else {
        None
    };
    items.fns[fn_idx].calls.push(CallSite {
        name: word.to_string(),
        qual,
        method: is_method_call,
        line,
        order: i,
        empty_args,
        first_arg,
        in_loop,
        recv,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scrub::scrub;

    fn collect(src: &str) -> FileItems {
        collect_items(&scrub(src))
    }

    #[test]
    fn fns_methods_and_qualified_names() {
        let items = collect(
            "pub fn free() {}\nmod inner {\n    pub struct T;\n    impl T {\n        pub fn method(&self) {}\n    }\n}\n",
        );
        assert_eq!(items.fns.len(), 2);
        assert_eq!(items.fns[0].qual_name, "free");
        assert!(!items.fns[0].is_method);
        assert!(items.fns[0].is_pub);
        assert_eq!(items.fns[1].qual_name, "inner::T::method");
        assert!(items.fns[1].is_method);
    }

    #[test]
    fn call_sites_with_quals_and_methods() {
        let items = collect(
            "fn f() {\n    helper();\n    engine::run(1);\n    x.compute();\n    std::mem::drop(x);\n}\n",
        );
        let calls = &items.fns[0].calls;
        assert_eq!(calls.len(), 4, "{calls:?}");
        assert_eq!(calls[0].name, "helper");
        assert!(calls[0].qual.is_empty());
        assert_eq!(calls[1].name, "run");
        assert_eq!(calls[1].qual, vec!["engine"]);
        assert!(calls[2].method);
        assert_eq!(calls[3].name, "drop");
        assert_eq!(calls[3].qual, vec!["mem"]);
    }

    #[test]
    fn impl_trait_in_a_signature_keeps_the_fn() {
        // `impl Trait` in argument or return position is a type, not an
        // `impl` block: both fns stay in the graph with their calls.
        let items = collect(
            "fn each(mut f: impl FnMut(u8)) {\n    helper();\n    f(1);\n}\nfn adder() -> impl Fn(u8) -> u8 {\n    inner();\n    |x| x + 1\n}\nimpl S {\n    fn m(&self) {}\n}\n",
        );
        let names: Vec<&str> = items.fns.iter().map(|f| f.qual_name.as_str()).collect();
        assert_eq!(names, vec!["each", "adder", "S::m"]);
        assert_eq!(items.fns[0].calls[0].name, "helper");
        assert_eq!(items.fns[1].calls[0].name, "inner");
        assert!(!items.fns[0].is_method && !items.fns[1].is_method);
        assert!(items.fns[2].is_method);
    }

    #[test]
    fn self_receivers_are_recorded() {
        let items = collect(
            "impl S {\n    fn a(&self) {}\n    fn b(&'a mut self, x: u8) {}\n    fn c(self: Box<Self>) {}\n    fn d<F: Fn(u8) -> u8>(self, f: F) {}\n    fn new(x: (u8, u8)) -> Self { S }\n    fn e<T>(f: fn(u8), s: Self) {}\n}\n",
        );
        let has_self: Vec<(&str, bool)> = items
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.has_self))
            .collect();
        assert_eq!(
            has_self,
            vec![
                ("a", true),
                ("b", true),
                ("c", true),
                ("d", true),
                ("new", false),
                ("e", false)
            ]
        );
    }

    #[test]
    fn pub_items_and_restricted_visibility() {
        let items = collect(
            "pub struct S;\npub(crate) struct Hidden;\npub enum E { A }\npub const N: u8 = 1;\npub fn f() {}\nfn private() {}\n",
        );
        let names: Vec<&str> = items.pubs.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, vec!["S", "E", "N", "f"]);
    }

    #[test]
    fn pub_fields_do_not_leak_onto_following_items() {
        // `pub` on a struct field must not mark the next item as pub:
        // here a private fn and a private const follow structs whose last
        // field is `pub`.
        let items = collect(
            "pub struct S {\n    pub field: u8,\n}\n\nfn private_after_struct() {}\n\npub struct D {\n    pub day: u8,\n}\n\nconst SECRET: u8 = 3;\n",
        );
        let names: Vec<&str> = items.pubs.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, vec!["S", "D"]);
        assert!(!items.fns[0].is_pub);
    }

    #[test]
    fn test_fns_are_marked() {
        let items = collect(
            "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { Some(1).unwrap(); }\n}\n",
        );
        assert_eq!(items.fns.len(), 2);
        assert!(!items.fns[0].is_test);
        assert!(items.fns[1].is_test);
    }

    #[test]
    fn trait_decls_without_bodies_are_not_fns() {
        let items = collect("trait T {\n    fn decl(&self);\n    fn with_default(&self) {}\n}\n");
        assert_eq!(items.fns.len(), 1);
        assert_eq!(items.fns[0].name, "with_default");
    }

    #[test]
    fn impl_trait_for_type_uses_the_type() {
        let items =
            collect("impl<'a, T> Display for Wrapper<'a, T> {\n    fn fmt(&self) -> u8 { 0 }\n}\n");
        assert_eq!(items.fns[0].qual_name, "Wrapper::fmt");
    }

    #[test]
    fn lock_sites_bound_guard_lives_to_block_end() {
        let items = collect(
            "fn f() {\n    {\n        let g = state.lock().unwrap();\n        touch(&g);\n    }\n    after();\n}\n",
        );
        let locks = &items.fns[0].locks;
        assert_eq!(locks.len(), 1, "{locks:?}");
        assert_eq!(locks[0].name, "state");
        assert_eq!(locks[0].kind, LockKind::Mutex);
        assert_eq!(locks[0].binding.as_deref(), Some("g"));
        // `after()` is called after the inner block closed the guard.
        let after = items.fns[0]
            .calls
            .iter()
            .find(|c| c.name == "after")
            .unwrap();
        assert!(locks[0].held_until < after.order, "{locks:?} vs {after:?}");
        // `touch` happens under the guard.
        let touch = items.fns[0]
            .calls
            .iter()
            .find(|c| c.name == "touch")
            .unwrap();
        assert!(locks[0].order < touch.order && touch.order < locks[0].held_until);
    }

    #[test]
    fn lock_sites_temporary_closes_at_statement_end() {
        let items = collect("fn f() {\n    queue.lock().unwrap().push(1);\n    after();\n}\n");
        let locks = &items.fns[0].locks;
        assert_eq!(locks.len(), 1, "{locks:?}");
        assert_eq!(locks[0].name, "queue");
        assert!(locks[0].binding.is_none());
        let after = items.fns[0]
            .calls
            .iter()
            .find(|c| c.name == "after")
            .unwrap();
        assert!(locks[0].held_until < after.order, "{locks:?} vs {after:?}");
    }

    #[test]
    fn lock_nested_inside_a_call_is_a_temporary_not_the_binding() {
        // `handles` binds mem::take's result, not the guard; Rust drops
        // the guard at the `;`, so the join after it runs lock-free.
        let items = collect(
            "fn f() {\n    let handles = std::mem::take(&mut *conns.lock().unwrap());\n    join_all(handles);\n}\n",
        );
        let locks = &items.fns[0].locks;
        assert_eq!(locks.len(), 1, "{locks:?}");
        assert!(locks[0].binding.is_none(), "{locks:?}");
        let join = items.fns[0]
            .calls
            .iter()
            .find(|c| c.name == "join_all")
            .unwrap();
        assert!(locks[0].held_until < join.order, "{locks:?} vs {join:?}");
    }

    #[test]
    fn explicit_drop_releases_bound_guard_early() {
        let items = collect(
            "fn f() {\n    let g = state.lock().unwrap();\n    drop(g);\n    after();\n}\n",
        );
        let locks = &items.fns[0].locks;
        assert_eq!(locks.len(), 1);
        let after = items.fns[0]
            .calls
            .iter()
            .find(|c| c.name == "after")
            .unwrap();
        assert!(locks[0].held_until < after.order, "{locks:?} vs {after:?}");
    }

    #[test]
    fn rwlock_read_write_kinds_and_io_calls_are_not_locks() {
        let items = collect(
            "fn f() {\n    let r = table.read().unwrap();\n    let w = table.write().unwrap();\n    stream.read(&mut buf).unwrap();\n    stream.write(&bytes).unwrap();\n    let _ = (r, w);\n}\n",
        );
        let kinds: Vec<LockKind> = items.fns[0].locks.iter().map(|l| l.kind).collect();
        assert_eq!(kinds, vec![LockKind::RwRead, LockKind::RwWrite]);
    }

    #[test]
    fn pattern_bound_guards_get_the_pattern_ident() {
        let items = collect(
            "fn f() {\n    let Ok(mut g) = state.lock() else { return };\n    let _ = g;\n}\n",
        );
        assert_eq!(items.fns[0].locks[0].binding.as_deref(), Some("g"));
    }

    #[test]
    fn call_sites_record_args_and_loops() {
        let items = collect(
            "fn f() {\n    h.join();\n    cv.wait(guard);\n    loop {\n        cv.wait_timeout(guard, dur);\n    }\n    while go() {\n        step();\n    }\n    tail();\n}\n",
        );
        let call = |n: &str| {
            items.fns[0]
                .calls
                .iter()
                .filter(|c| c.name == n)
                .collect::<Vec<_>>()
        };
        let join = call("join");
        assert!(join[0].empty_args && join[0].first_arg.is_none());
        let waits = call("wait");
        assert!(!waits[0].empty_args);
        assert_eq!(waits[0].first_arg.as_deref(), Some("guard"));
        assert!(!waits[0].in_loop);
        let timed = call("wait_timeout");
        assert!(timed[0].in_loop);
        assert_eq!(timed[0].first_arg.as_deref(), Some("guard"));
        assert!(call("step")[0].in_loop);
        // The `while` condition itself and code after the loop are outside.
        assert!(!call("go")[0].in_loop);
        assert!(!call("tail")[0].in_loop);
    }

    #[test]
    fn method_call_receivers_are_recorded() {
        let items = collect(
            "fn f() {\n    queue.insert(token, conn);\n    self.backlog.push(1);\n    make().detach();\n    free_call(1);\n}\n",
        );
        let call = |n: &str| items.fns[0].calls.iter().find(|c| c.name == n).unwrap();
        assert_eq!(call("insert").recv.as_deref(), Some("queue"));
        assert_eq!(call("push").recv.as_deref(), Some("backlog"));
        assert_eq!(call("detach").recv, None);
        assert_eq!(call("free_call").recv, None);
    }

    #[test]
    fn locks_in_nested_fns_attach_to_the_inner_fn() {
        let items = collect(
            "fn outer() {\n    fn inner() {\n        let g = m.lock().unwrap();\n        let _ = g;\n    }\n    inner();\n}\n",
        );
        assert!(items.fns[0].locks.is_empty());
        assert_eq!(items.fns[1].locks.len(), 1);
    }
}

//! Item-level parsing over the scanner's blanked code view.
//!
//! [`parse_items`] extracts the items the graph analysis needs from
//! one file: `fn`s (with their body line ranges, signature types, and
//! the calls the body makes), `struct`/`enum`/`type` definitions
//! (with the type names their fields reference), `impl` blocks (to
//! attribute methods to a self type), and `use` declarations (for the
//! module-graph statistics). It is a brace-depth token walk, not a
//! real parser — the same self-contained-by-construction constraint
//! as the scanner — and it is deliberately approximate: good enough
//! to resolve reachability over this workspace's idioms, simple
//! enough to audit.

use crate::scan::{self, CodeLine};

/// A call site found inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallRef {
    /// `f(..)` — a free function call (or a local closure; resolution
    /// decides).
    Bare(String),
    /// `Type::method(..)` — the last two path segments.
    Qualified(String, String),
    /// `.method(..)` — receiver type unknown.
    Method(String),
}

/// One `fn` item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function name.
    pub name: String,
    /// The `impl` self type this fn is a method of, if any. A
    /// trait's provided (and declared) methods carry the trait name.
    pub self_ty: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// 1-based inclusive line range of the whole item (signature
    /// through closing brace). Bodyless (`fn f();`) items span the
    /// signature only.
    pub span: (usize, usize),
    /// Whether the fn sits in a `#[cfg(test)]`/`#[test]` region.
    pub in_test: bool,
    /// Type identifiers named in the signature (params + return).
    pub sig_types: Vec<String>,
    /// Calls made by the body, in source order.
    pub calls: Vec<CallRef>,
}

/// What kind of type definition a [`TypeItem`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TypeKind {
    /// `struct`
    Struct,
    /// `enum`
    Enum,
    /// `type` alias
    Alias,
}

/// One `struct`/`enum`/`type` item.
#[derive(Debug, Clone)]
pub struct TypeItem {
    /// The type name.
    pub name: String,
    /// struct / enum / alias.
    pub kind: TypeKind,
    /// 1-based line of the defining keyword.
    pub line: usize,
    /// Whether the definition sits in a test region.
    pub in_test: bool,
    /// Type identifiers referenced by fields / variant payloads /
    /// the alias right-hand side (including generic arguments).
    pub field_types: Vec<String>,
}

/// Every item extracted from one file.
#[derive(Debug, Clone, Default)]
pub struct FileItems {
    /// Functions (free and methods), in source order.
    pub fns: Vec<FnItem>,
    /// Type definitions, in source order.
    pub types: Vec<TypeItem>,
    /// Crate names this file imports from (`use androne_foo::..` /
    /// `use foo::..` heads), deduplicated, for module-graph stats.
    pub use_heads: Vec<String>,
    /// Number of `mod` declarations (inline or file).
    pub mods: usize,
}

/// One token plus the 1-based line it came from and the line's
/// test-region flag.
#[derive(Debug, Clone)]
struct Tok {
    text: String,
    line: usize,
    in_test: bool,
}

fn flatten(lines: &[CodeLine]) -> Vec<Tok> {
    let mut toks = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        for t in scan::tokenize(&line.code) {
            toks.push(Tok {
                text: t.text,
                line: idx + 1,
                in_test: line.in_test,
            });
        }
    }
    toks
}

fn is_type_name(s: &str) -> bool {
    s.chars().next().is_some_and(|c| c.is_ascii_uppercase())
}

const PRIMITIVES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32",
    "f64", "bool", "char", "str",
];

/// Keywords that look like `ident (` but are not calls.
const NOT_CALLS: &[&str] = &[
    "if", "while", "match", "for", "loop", "return", "fn", "in", "move", "as", "let", "else",
    "impl", "where", "dyn", "ref", "mut", "pub", "use", "mod", "struct", "enum", "type", "const",
    "static", "trait", "unsafe", "break", "continue",
];

/// Parses one file's preprocessed lines into its items.
pub fn parse_items(lines: &[CodeLine]) -> FileItems {
    let toks = flatten(lines);
    let mut out = FileItems::default();
    let t = |i: usize| toks.get(i).map(|t| t.text.as_str());

    // Impl- and trait-block stack: (self type, depth the block opened
    // at).
    let mut impl_stack: Vec<(String, i64)> = Vec::new();
    let mut depth: i64 = 0;
    let mut i = 0;

    while i < toks.len() {
        match toks[i].text.as_str() {
            "{" => {
                depth += 1;
                i += 1;
            }
            "}" => {
                depth -= 1;
                if impl_stack.last().is_some_and(|(_, d)| *d == depth) {
                    impl_stack.pop();
                }
                i += 1;
            }
            "impl" => {
                // `impl Foo {`, `impl Trait for Foo {`, `impl<T> Foo<T> {`:
                // self type = last type ident before the opening brace,
                // after `for` if present.
                let mut j = i + 1;
                let mut self_ty: Option<String> = None;
                let mut after_for = false;
                while j < toks.len() && t(j) != Some("{") && t(j) != Some(";") {
                    match t(j) {
                        Some("for") => {
                            after_for = true;
                            self_ty = None;
                        }
                        Some(s) if is_type_name(s) => {
                            if self_ty.is_none() || after_for {
                                self_ty = Some(s.to_string());
                                after_for = false;
                            } else if t(j.wrapping_sub(1)) != Some("<")
                                && t(j.wrapping_sub(1)) != Some(",")
                            {
                                // `path::To::Foo` — later segments win.
                                self_ty = Some(s.to_string());
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                if t(j) == Some("{") {
                    if let Some(ty) = self_ty {
                        impl_stack.push((ty, depth));
                    }
                    depth += 1;
                    j += 1;
                }
                i = j;
            }
            "trait" => {
                // `trait Foo {`, `pub trait Foo<T>: Bar {`: the trait
                // name is the self type of its provided methods, so a
                // `.provided()` call resolves to their bodies.
                let mut j = i + 1;
                while j < toks.len() && t(j) != Some("{") && t(j) != Some(";") {
                    j += 1;
                }
                if t(j) == Some("{") {
                    if let Some(name) = t(i + 1).filter(|s| is_type_name(s)) {
                        impl_stack.push((name.to_string(), depth));
                    }
                    depth += 1;
                    j += 1;
                }
                i = j;
            }
            "fn" => {
                let Some(name) = t(i + 1) else {
                    i += 1;
                    continue;
                };
                let name = name.to_string();
                let decl_line = toks[i].line;
                let in_test = toks[i].in_test;
                let self_ty = impl_stack.last().map(|(ty, _)| ty.clone());

                // Signature: up to the body `{` or a `;` (trait decl),
                // collecting type idents. `where` clauses are part of
                // the signature and harmless to include. Brackets
                // count with parens: the `;` in an array return type
                // `-> [u64; 5]` does not end the signature.
                let mut j = i + 2;
                let mut sig_types = Vec::new();
                let mut paren: i64 = 0;
                let mut angle: i64 = 0;
                while j < toks.len() {
                    match t(j) {
                        Some("(") | Some("[") => paren += 1,
                        Some(")") | Some("]") => paren -= 1,
                        Some("<") => angle += 1,
                        Some(">") => angle = (angle - 1).max(0),
                        Some("{") if paren == 0 && angle == 0 => break,
                        Some(";") if paren == 0 => break,
                        Some(s)
                            if is_type_name(s)
                                || (PRIMITIVES.contains(&s)
                                    && t(j.wrapping_sub(1)) != Some(".")) =>
                        {
                            sig_types.push(s.to_string());
                        }
                        _ => {}
                    }
                    j += 1;
                }

                if t(j) == Some(";") || j >= toks.len() {
                    out.fns.push(FnItem {
                        name,
                        self_ty,
                        line: decl_line,
                        span: (decl_line, toks.get(j).map(|t| t.line).unwrap_or(decl_line)),
                        in_test,
                        sig_types,
                        calls: Vec::new(),
                    });
                    i = j + 1;
                    continue;
                }

                // Body: from `{` to its matching `}`, collecting calls.
                let body_open = j;
                let mut body_depth: i64 = 0;
                let mut calls = Vec::new();
                let mut k = body_open;
                while k < toks.len() {
                    match t(k) {
                        Some("{") => body_depth += 1,
                        Some("}") => {
                            body_depth -= 1;
                            if body_depth == 0 {
                                break;
                            }
                        }
                        Some(s)
                            if t(k + 1) == Some("(")
                                && !NOT_CALLS.contains(&s)
                                && s.chars()
                                    .next()
                                    .is_some_and(|c| c.is_alphabetic() || c == '_') =>
                        {
                            let prev = t(k.wrapping_sub(1));
                            if prev == Some(".") {
                                calls.push(CallRef::Method(s.to_string()));
                            } else if prev == Some(":") && t(k.wrapping_sub(2)) == Some(":") {
                                // `seg::name(` — the owning segment.
                                if let Some(owner) = t(k.wrapping_sub(3)) {
                                    calls
                                        .push(CallRef::Qualified(owner.to_string(), s.to_string()));
                                }
                            } else if !is_type_name(s) {
                                // `Foo(..)` is a tuple-struct literal,
                                // not a call.
                                calls.push(CallRef::Bare(s.to_string()));
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
                let end_line = toks.get(k).map(|t| t.line).unwrap_or(decl_line);
                out.fns.push(FnItem {
                    name,
                    self_ty,
                    line: decl_line,
                    span: (decl_line, end_line),
                    in_test,
                    sig_types,
                    calls,
                });
                i = k + 1;
            }
            "struct" | "enum" => {
                let kind = if toks[i].text == "struct" {
                    TypeKind::Struct
                } else {
                    TypeKind::Enum
                };
                let Some(name) = t(i + 1).filter(|s| is_type_name(s)) else {
                    i += 1;
                    continue;
                };
                let name = name.to_string();
                let decl_line = toks[i].line;
                let in_test = toks[i].in_test;
                // Skip generics, then the body is `{..}`, `(..);`, or
                // a bare `;` (unit struct). Collect type idents from
                // the body.
                let mut j = i + 2;
                let mut angle: i64 = 0;
                while j < toks.len() {
                    match t(j) {
                        Some("<") => angle += 1,
                        Some(">") => angle -= 1,
                        Some("{") | Some("(") | Some(";") if angle == 0 => break,
                        _ => {}
                    }
                    j += 1;
                }
                let mut field_types = Vec::new();
                if t(j) == Some("{") || t(j) == Some("(") {
                    let open = t(j).unwrap_or("{").to_string();
                    let close = if open == "{" { "}" } else { ")" };
                    let mut body_depth: i64 = 0;
                    let mut paren: i64 = 0;
                    while j < toks.len() {
                        match t(j) {
                            Some(s) if s == open => body_depth += 1,
                            Some(s) if s == close => {
                                body_depth -= 1;
                                if body_depth == 0 {
                                    break;
                                }
                            }
                            Some("(") => paren += 1,
                            Some(")") => paren -= 1,
                            // In a braced enum body, a capitalized
                            // ident at variant level is the variant's
                            // NAME (`enum Subsystem { Vdc, Binder }`),
                            // not a field type — only idents inside a
                            // variant's payload parens or struct
                            // braces are types.
                            Some(s)
                                if is_type_name(s)
                                    && (kind != TypeKind::Enum || body_depth > 1 || paren > 0) =>
                            {
                                field_types.push(s.to_string());
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                }
                out.types.push(TypeItem {
                    name,
                    kind,
                    line: decl_line,
                    in_test,
                    field_types,
                });
                i = j + 1;
            }
            "type" => {
                // `type Name<..> = rhs;` — aliases forward their rhs
                // types through the purity walk.
                let Some(name) = t(i + 1).filter(|s| is_type_name(s)) else {
                    i += 1;
                    continue;
                };
                let name = name.to_string();
                let decl_line = toks[i].line;
                let in_test = toks[i].in_test;
                let mut j = i + 2;
                while j < toks.len() && t(j) != Some("=") && t(j) != Some(";") {
                    j += 1;
                }
                let mut field_types = Vec::new();
                if t(j) == Some("=") {
                    while j < toks.len() && t(j) != Some(";") {
                        if let Some(s) = t(j) {
                            if is_type_name(s) {
                                field_types.push(s.to_string());
                            }
                        }
                        j += 1;
                    }
                }
                out.types.push(TypeItem {
                    name,
                    kind: TypeKind::Alias,
                    line: decl_line,
                    in_test,
                    field_types,
                });
                i = j + 1;
            }
            "use" => {
                if let Some(head) = t(i + 1) {
                    let head = head.to_string();
                    if !out.use_heads.contains(&head) {
                        out.use_heads.push(head);
                    }
                }
                while i < toks.len() && t(i) != Some(";") {
                    i += 1;
                }
                i += 1;
            }
            "mod" => {
                out.mods += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::preprocess;

    fn items(src: &str) -> FileItems {
        parse_items(&preprocess(src))
    }

    #[test]
    fn free_fn_with_body_and_calls() {
        let f = items("fn go(x: Foo) -> Result<Bar, Err> {\n    helper(x);\n    x.method();\n    Type::assoc(x);\n}\n");
        assert_eq!(f.fns.len(), 1);
        let g = &f.fns[0];
        assert_eq!(g.name, "go");
        assert_eq!(g.self_ty, None);
        assert_eq!(g.span, (1, 5));
        assert!(g.sig_types.contains(&"Foo".to_string()));
        assert!(g.sig_types.contains(&"Bar".to_string()));
        assert_eq!(
            g.calls,
            vec![
                CallRef::Bare("helper".into()),
                CallRef::Method("method".into()),
                CallRef::Qualified("Type".into(), "assoc".into()),
            ]
        );
    }

    #[test]
    fn impl_methods_carry_self_type() {
        let f = items("impl Widget {\n    fn new() -> Self { Widget::default() }\n    fn run(&self) { self.step(); }\n}\nimpl Display for Gauge {\n    fn fmt(&self) {}\n}\n");
        assert_eq!(f.fns.len(), 3);
        assert_eq!(f.fns[0].self_ty.as_deref(), Some("Widget"));
        assert_eq!(f.fns[1].name, "run");
        assert_eq!(f.fns[1].self_ty.as_deref(), Some("Widget"));
        assert_eq!(f.fns[2].self_ty.as_deref(), Some("Gauge"));
    }

    #[test]
    fn struct_fields_and_enum_payloads_collected() {
        let f = items("pub struct Work {\n    pub plan: FlightPlan,\n    pub seed: u64,\n    cells: Vec<Rc<Thing>>,\n}\nenum Verdict {\n    Ok(Box<Flight>),\n    Bad,\n}\ntype Shared = Rc<RefCell<Kernel>>;\n");
        assert_eq!(f.types.len(), 3);
        let w = &f.types[0];
        assert_eq!(w.kind, TypeKind::Struct);
        assert!(w.field_types.contains(&"FlightPlan".to_string()));
        assert!(w.field_types.contains(&"Rc".to_string()));
        let v = &f.types[1];
        assert_eq!(v.kind, TypeKind::Enum);
        assert!(v.field_types.contains(&"Flight".to_string()));
        let a = &f.types[2];
        assert_eq!(a.kind, TypeKind::Alias);
        assert!(a.field_types.contains(&"RefCell".to_string()));
    }

    #[test]
    fn test_region_fns_are_marked() {
        let f = items("fn live() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n    #[test]\n    fn case() { helper(); }\n}\n");
        assert!(!f.fns[0].in_test);
        assert!(f.fns[1].in_test);
        assert!(f.fns[2].in_test);
    }

    #[test]
    fn tuple_struct_literal_is_not_a_call() {
        let f = items("fn f() -> Euid {\n    Euid(0);\n    make(1);\n}\n");
        assert_eq!(f.fns[0].calls, vec![CallRef::Bare("make".into())]);
    }

    #[test]
    fn nested_fn_braces_do_not_truncate_the_span() {
        let f =
            items("fn outer() {\n    if a {\n        b();\n    } else {\n        c();\n    }\n}\n");
        assert_eq!(f.fns[0].span, (1, 7));
    }

    #[test]
    fn use_heads_and_mods_counted() {
        let f = items("use std::rc::Rc;\nuse androne_simkern::Kernel;\nmod sub;\npub mod other;\n");
        assert_eq!(
            f.use_heads,
            vec!["std".to_string(), "androne_simkern".to_string()]
        );
        assert_eq!(f.mods, 2);
    }

    #[test]
    fn array_returning_fn_records_its_body_calls() {
        let f = items("fn hashes(&self) -> [(&'static str, u64); 2] {\n    [(\"a\", self.a.digest()), (\"b\", fold(1))]\n}\n");
        assert_eq!(f.fns.len(), 1);
        assert_eq!(f.fns[0].span, (1, 3));
        assert_eq!(
            f.fns[0].calls,
            vec![
                CallRef::Method("digest".into()),
                CallRef::Bare("fold".into())
            ]
        );
    }

    #[test]
    fn trait_provided_method_carries_the_trait_as_self_type() {
        let f = items("pub trait Hash: Sized {\n    fn write(&self, h: &mut H);\n    fn value(&self) -> u64 {\n        self.write(h);\n    }\n}\nfn free() {}\n");
        assert_eq!(f.fns.len(), 3);
        assert_eq!(f.fns[1].name, "value");
        assert_eq!(f.fns[1].self_ty.as_deref(), Some("Hash"));
        assert_eq!(f.fns[1].calls, vec![CallRef::Method("write".into())]);
        assert_eq!(f.fns[2].self_ty, None, "the trait block closes");
    }

    #[test]
    fn bodyless_trait_fn_is_recorded() {
        let f = items("trait T {\n    fn must(&self) -> Out;\n}\n");
        assert_eq!(f.fns.len(), 1);
        assert!(f.fns[0].calls.is_empty());
    }
}

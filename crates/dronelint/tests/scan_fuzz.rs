//! Property fuzz for the lexical scanner: random pastings of the
//! nastiest Rust surface syntax — raw strings with `#` fences, nested
//! block comments, byte/char literals, unterminated everything — must
//! never panic the preprocessor, must preserve the line count
//! (violation line numbers depend on it), and must keep every token
//! column inside its line.

use dronelint::scan::{preprocess, tokenize};
use proptest::prelude::*;

/// Deliberately adversarial source fragments. Unbalanced delimiters
/// are the point: truncated raw strings, stray `*/`, lone quotes.
const FRAGMENTS: &[&str] = &[
    "fn f() {",
    "}",
    "let x = 1;",
    "r\"raw\"",
    "r#\"fenced \" quote\"#",
    "r##\"deep \"# fence\"##",
    "br#\"byte raw\"#",
    "r#\"unterminated",
    "/*",
    "*/",
    "/* nested /* deep /* deeper */ */ */",
    "// line comment with \" quote and /* opener",
    "\"plain string\"",
    "\"unterminated string",
    "\"escape \\\" inside\"",
    "b'x'",
    "b'\\''",
    "'\\''",
    "'\"'",
    "'a'",
    "'unterminated",
    "&'static str",
    "#[cfg(test)]",
    "#[test]",
    "mod tests {",
    "x.unwrap();",
    "HashMap::new()",
    "// dronelint:allow(R1, fuzz reason)",
    "\\",
    "\"",
    "#",
    "r#",
    "r",
    "'",
    "   ",
];

fn assemble(idxs: &[usize], seps: &[u8]) -> String {
    let mut src = String::new();
    for (k, &i) in idxs.iter().enumerate() {
        src.push_str(FRAGMENTS[i % FRAGMENTS.len()]);
        match seps.get(k).copied().unwrap_or(0) % 3 {
            0 => src.push('\n'),
            1 => src.push(' '),
            _ => {}
        }
    }
    src
}

proptest! {
    #[test]
    fn preprocess_never_panics_and_preserves_line_count(
        idxs in prop::collection::vec(0usize..FRAGMENTS.len(), 0..60),
        seps in prop::collection::vec(0u8..3, 0..60),
    ) {
        let src = assemble(&idxs, &seps);
        let lines = preprocess(&src);
        prop_assert_eq!(
            lines.len(),
            src.lines().count(),
            "line count drifted for {:?}",
            src
        );
        for (line, raw) in lines.iter().zip(src.lines()) {
            // Blanking only removes or replaces — the code view never
            // grows past the original line.
            prop_assert!(
                line.code.chars().count() <= raw.chars().count(),
                "code view longer than source line: {:?} from {:?}",
                line.code,
                raw
            );
        }
    }

    #[test]
    fn tokenize_columns_stay_inside_the_line(
        idxs in prop::collection::vec(0usize..FRAGMENTS.len(), 0..40),
        seps in prop::collection::vec(0u8..3, 0..40),
    ) {
        let src = assemble(&idxs, &seps);
        for line in preprocess(&src) {
            let len = line.code.chars().count();
            for tok in tokenize(&line.code) {
                prop_assert!(tok.col >= 1, "columns are 1-based");
                prop_assert!(
                    tok.col + tok.text.chars().count() - 1 <= len,
                    "token {:?}@{} overruns line of length {}",
                    tok.text,
                    tok.col,
                    len
                );
                prop_assert!(
                    !tok.text.chars().any(char::is_whitespace),
                    "token {:?} contains whitespace",
                    tok.text
                );
            }
        }
    }

    #[test]
    fn scan_source_never_panics_on_fuzzed_input(
        idxs in prop::collection::vec(0usize..FRAGMENTS.len(), 0..40),
        seps in prop::collection::vec(0u8..3, 0..40),
    ) {
        let src = assemble(&idxs, &seps);
        // The full single-file pipeline (rules + suppressions) on a
        // sim-crate path: must terminate without panicking, and every
        // violation must point at a real line.
        let n = src.lines().count();
        for v in dronelint::scan_source("crates/simkern/src/fuzz.rs", &src) {
            prop_assert!(v.line >= 1 && v.line <= n.max(1), "line {} of {}", v.line, n);
        }
    }
}

#[test]
fn cfg_test_edges_survive_adversarial_neighbors() {
    // The latch cases that historically break attribute scanners: the
    // attribute inside a string, inside a comment, and a real one
    // immediately after an unterminated-looking raw string.
    let src = "let s = \"#[cfg(test)]\";\nlet t = r#\"#[test]\"#;\n// #[cfg(test)]\nfn live() { s.a(); }\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\n";
    let lines = preprocess(src);
    assert!(
        lines[..4].iter().all(|l| !l.in_test),
        "quoted/commented attributes must not latch"
    );
    assert!(
        lines[5].in_test && lines[6].in_test,
        "the real region latches"
    );
}

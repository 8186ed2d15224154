//! Property tests: the tokenizer must never panic, whatever bytes it is
//! fed, and must preserve basic structural invariants on valid-ish input.

use athena_analyze::tokenizer::{tokenize, TokenKind};
use proptest::prelude::*;

/// Fragments that stress the tricky lexer states when concatenated in
/// arbitrary orders: quotes, escapes, raw-string fences, comment openers
/// that may never close, and plain code.
fn arb_fragment() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("fn f() { x.unwrap(); }"),
        Just("\""),
        Just("\\\""),
        Just("\\"),
        Just("'"),
        Just("'a"),
        Just("'x'"),
        Just("r#\""),
        Just("\"#"),
        Just("r##\"unclosed"),
        Just("b\"bytes\""),
        Just("//"),
        Just("/*"),
        Just("*/"),
        Just("/* nested /* comment */"),
        Just("#[cfg(test)]"),
        Just("mod tests {"),
        Just("}"),
        Just("{"),
        Just("["),
        Just("]"),
        Just("panic!(\"boom\")"),
        Just("1.0e-3_f64"),
        Just("0xfe_u8"),
        Just("::<>->."),
        Just("日本語"),
        Just("\n"),
        Just(" "),
    ]
}

fn arb_snippet() -> impl Strategy<Value = String> {
    proptest::collection::vec(arb_fragment(), 0..40).prop_map(|parts| parts.concat())
}

proptest! {
    #[test]
    fn tokenizing_arbitrary_snippets_never_panics(src in arb_snippet()) {
        // The property is simply that this call returns.
        let tokens = tokenize(&src);
        // Positions must be within the source's line count.
        let line_count = src.lines().count() as u32 + 1;
        for t in &tokens {
            prop_assert!(t.line >= 1 && t.line <= line_count);
            prop_assert!(t.col >= 1);
        }
    }

    #[test]
    fn arbitrary_bytes_never_panic(chunks in proptest::collection::vec(any::<u8>(), 0..200)) {
        // Lossily decoded arbitrary bytes exercise non-ASCII paths.
        let src = String::from_utf8_lossy(&chunks).into_owned();
        let _ = tokenize(&src);
    }

    #[test]
    fn literal_contents_never_leak(s in proptest::collection::vec(0u8..128, 0..30)) {
        // Whatever ASCII we embed in a string literal, no identifier
        // token may surface from inside it.
        let inner: String = s
            .iter()
            .map(|b| *b as char)
            .filter(|c| *c != '"' && *c != '\\' && *c != '\n' && *c != '\r')
            .collect();
        let src = format!("fn f() {{ let x = \"{inner}\"; }}");
        let toks = tokenize(&src);
        let idents: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        prop_assert_eq!(idents, vec!["fn", "f", "let", "x"]);
    }
}

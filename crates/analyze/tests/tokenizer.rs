//! Tokenizer unit tests: panicking constructs mentioned in comments,
//! string literals, raw strings, or test-only code must never surface as
//! tokens the rules could flag — and real violations must. The site
//! scanners (`athena_analyze::sites`) are exercised directly; transitive
//! hot-path propagation over these sites is `tests/corpus.rs`' job.

use athena_analyze::sites;
use athena_analyze::tokenizer::{tokenize, TokenKind};

fn idents(source: &str) -> Vec<String> {
    tokenize(source)
        .into_iter()
        .filter(|t| t.kind == TokenKind::Ident && !t.in_test)
        .map(|t| t.text)
        .collect()
}

#[test]
fn unwrap_in_line_comment_is_not_a_token() {
    let src = "fn f() { // .unwrap() would panic here\n let x = 1; }";
    assert!(!idents(src).contains(&"unwrap".to_string()));
}

#[test]
fn unwrap_in_doc_and_block_comments_is_not_a_token() {
    let src =
        "/// call .unwrap() at your peril\n/* nested /* .unwrap() */ still comment */ fn f() {}";
    assert!(!idents(src).contains(&"unwrap".to_string()));
}

#[test]
fn unwrap_in_string_literal_is_not_a_token() {
    let src = r#"fn f() { let s = "please don't .unwrap() this"; }"#;
    assert!(!idents(src).contains(&"unwrap".to_string()));
}

#[test]
fn unwrap_in_raw_string_is_not_a_token() {
    let src = r##"fn f() { let s = r#"x.unwrap() and "quotes" inside"#; }"##;
    let toks = idents(src);
    assert!(!toks.contains(&"unwrap".to_string()), "{toks:?}");
    // The binding after the raw string still tokenizes normally.
    assert!(toks.contains(&"s".to_string()));
}

#[test]
fn multi_hash_raw_string_terminates_at_matching_hashes() {
    let src = "fn f() { let s = r##\"one \"# not the end .unwrap()\"##; let t = 1; }";
    let toks = idents(src);
    assert!(!toks.contains(&"unwrap".to_string()), "{toks:?}");
    assert!(toks.contains(&"t".to_string()), "{toks:?}");
}

#[test]
fn raw_byte_string_contents_are_dropped() {
    let src = r##"fn f() { let s = br#"bytes .unwrap() here"#; let u = 3; }"##;
    let toks = idents(src);
    assert!(!toks.contains(&"unwrap".to_string()), "{toks:?}");
    assert!(toks.contains(&"u".to_string()), "{toks:?}");
}

#[test]
fn escaped_quotes_do_not_end_strings_early() {
    let src = r#"fn f() { let s = "escaped \" quote .unwrap()"; let t = 2; }"#;
    let toks = idents(src);
    assert!(!toks.contains(&"unwrap".to_string()));
    assert!(toks.contains(&"t".to_string()));
}

#[test]
fn char_and_byte_char_literals_are_dropped() {
    let src = "fn f() { let q = '\"'; let esc = '\\''; let b = b'\\''; let z = 1; }";
    let toks = idents(src);
    assert!(toks.contains(&"esc".to_string()));
    assert!(toks.contains(&"z".to_string()));
}

#[test]
fn lifetimes_and_loop_labels_tokenize_as_lifetimes_not_idents() {
    let src = "fn f<'a>(x: &'a str) -> &'a str { 'outer: loop { break 'outer; } x }";
    let toks = tokenize(src);
    let lifetimes: Vec<_> = toks
        .iter()
        .filter(|t| t.kind == TokenKind::Lifetime)
        .map(|t| t.text.as_str())
        .collect();
    assert!(lifetimes.contains(&"a"), "{lifetimes:?}");
    assert!(lifetimes.contains(&"outer"), "{lifetimes:?}");
    // The lifetime names never leak into the Ident stream where they
    // could collide with variable heuristics.
    assert!(!idents(src).contains(&"a".to_string()));
}

#[test]
fn raw_identifiers_tokenize_as_idents() {
    let src = "fn f() { let r#type = 1; let _ = r#type; }";
    assert!(idents(src).contains(&"type".to_string()));
}

#[test]
fn nested_turbofish_generics_tokenize_into_puncts() {
    let src = "fn f() { let v = Vec::<Vec<u8>>::new(); g::<HashMap<String, Vec<u8>>>(v); }";
    let toks = tokenize(src);
    // `>>` must split into two closing angles, not a shift operator that
    // swallows the second one.
    let closes = toks.iter().filter(|t| t.is_punct('>')).count();
    let opens = toks.iter().filter(|t| t.is_punct('<')).count();
    assert_eq!(opens, closes, "angles stay balanced");
    assert!(idents(src).contains(&"g".to_string()));
}

#[test]
fn cfg_test_module_is_masked() {
    let src = "fn prod() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { None::<u8>.unwrap(); }\n}";
    assert!(!idents(src).contains(&"unwrap".to_string()));
    assert!(idents(src).contains(&"prod".to_string()));
}

#[test]
fn mod_tests_without_cfg_attribute_is_masked() {
    let src = "mod tests { fn t() { x.unwrap(); } }\nfn after() {}";
    let toks = idents(src);
    assert!(!toks.contains(&"unwrap".to_string()));
    // Tokens after the masked block are live again.
    assert!(toks.contains(&"after".to_string()));
}

#[test]
fn cfg_test_on_single_item_does_not_mask_following_items() {
    let src = "#[cfg(test)]\nfn helper() { a.unwrap(); }\nfn prod() { b.unwrap(); }";
    let flagged: Vec<_> = tokenize(src)
        .into_iter()
        .filter(|t| t.is_ident("unwrap") && !t.in_test)
        .collect();
    assert_eq!(flagged.len(), 1, "only prod()'s unwrap is live");
    assert_eq!(flagged[0].line, 3);
}

#[test]
fn cfg_test_on_a_struct_field_masks_only_that_field() {
    let src = "struct S { #[cfg(test)] probe: u32, live: u32 }\n\
               impl S { fn f(&self, v: Option<u8>) -> u8 { v.unwrap() } }";
    let live = idents(src);
    assert!(!live.contains(&"probe".to_string()));
    for name in ["live", "impl", "f", "unwrap"] {
        assert!(
            live.contains(&name.to_string()),
            "{name} is production code"
        );
    }
    assert_eq!(panic_messages(src).len(), 1, "the unwrap is seen");

    // A last field without a trailing comma ends at the struct's brace.
    let src = "struct S { live: u32, #[cfg(test)] probe: Vec<(u8, u8)> }\nfn after() {}";
    let toks = tokenize(src);
    assert!(idents(src).contains(&"after".to_string()));
    let close = toks
        .iter()
        .find(|t| t.is_punct('}'))
        .expect("struct closes");
    assert!(!close.in_test, "the enclosing brace stays live");
}

#[test]
fn cfg_test_on_an_enum_variant_or_match_arm_masks_only_that_one() {
    let src = "enum E { A, #[cfg(test)] B(u8, u8), C }\n\
               fn f(e: E) -> u8 { match e { E::A => 1, #[cfg(test)] E::B(x, _) => x, E::C => c() } }";
    let live = idents(src);
    assert!(!live.contains(&"B".to_string()));
    assert!(!live.contains(&"x".to_string()));
    for name in ["A", "C", "f", "c"] {
        assert!(
            live.contains(&name.to_string()),
            "{name} is production code"
        );
    }
}

#[test]
fn cfg_test_on_a_generic_fn_is_masked_whole() {
    let src =
        "#[cfg(test)]\nfn helper<A, B>(a: A, b: B) -> u8 where A: Copy, B: Copy { a.unwrap() }\n\
               fn prod() {}";
    let live = idents(src);
    assert!(!live.contains(&"unwrap".to_string()));
    assert!(!live.contains(&"helper".to_string()));
    assert!(live.contains(&"prod".to_string()));
}

#[test]
fn depth_tracks_brace_nesting() {
    let toks = tokenize("fn f() { if x { y(); } }");
    let max_depth = toks.iter().map(|t| t.depth).max().unwrap_or(0);
    assert_eq!(max_depth, 2);
    // Matching braces share a depth.
    let opens: Vec<_> = toks.iter().filter(|t| t.is_punct('{')).collect();
    let closes: Vec<_> = toks.iter().filter(|t| t.is_punct('}')).collect();
    assert_eq!(opens[0].depth, closes[1].depth);
    assert_eq!(opens[1].depth, closes[0].depth);
}

/// Messages from the panic-site scanner over a snippet.
fn panic_messages(source: &str) -> Vec<String> {
    sites::panic_sites(&tokenize(source))
        .into_iter()
        .map(|s| s.message)
        .collect()
}

#[test]
fn scanner_finds_live_unwrap_but_not_commented_ones() {
    let src = "\
fn prod(v: Option<u8>) -> u8 {
    // v.unwrap() would be wrong here
    v.unwrap()
}
";
    let msgs = panic_messages(src);
    assert_eq!(msgs.len(), 1, "{msgs:?}");
    assert!(msgs[0].contains("unwrap"));
}

#[test]
fn scanner_finds_panic_macros_and_indexing() {
    let src = "fn f(v: &[u8]) -> u8 { if v.is_empty() { panic!(\"empty\") } v[0] }";
    let msgs = panic_messages(src);
    assert_eq!(msgs.len(), 2, "{msgs:?}");
}

#[test]
fn scanner_ignores_array_types_attributes_and_unwrap_or() {
    let src = "\
#[derive(Debug)]
struct S { data: [u8; 6] }
fn f(v: Option<u8>) -> u8 { v.unwrap_or(0) }
";
    let msgs = panic_messages(src);
    assert!(msgs.is_empty(), "{msgs:?}");
}

#[test]
fn scanner_ignores_turbofish_generic_indexing_lookalikes() {
    // `Vec<u8>` followed by `[...]` in a type position must not read as
    // a panicking index expression.
    let src = "fn f() -> [u8; 2] { let v = Vec::<Vec<u8>>::new(); let _ = v; [0, 1] }";
    let msgs = panic_messages(src);
    assert!(msgs.is_empty(), "{msgs:?}");
}

/// Messages from the unordered-iteration scanner over a snippet.
fn unordered_messages(source: &str) -> Vec<String> {
    sites::unordered_iter_sites(&tokenize(source))
        .into_iter()
        .map(|s| s.message)
        .collect()
}

#[test]
fn unordered_iter_flags_hash_map_methods_and_bare_loops() {
    let src = "\
struct S { flows: std::collections::HashMap<u64, u8>, seen: HashSet<u64> }
impl S {
    fn f(&mut self) {
        for (k, v) in &self.flows { drop((k, v)); }
        let n = self.seen.iter().count();
        for v in self.flows.values_mut() { *v += 1; }
        let _ = n;
    }
}
";
    let msgs = unordered_messages(src);
    assert_eq!(msgs.len(), 3, "{msgs:?}");
    assert!(msgs.iter().all(|m| m.contains("order-nondeterministic")));
}

#[test]
fn unordered_iter_ignores_foreign_receivers() {
    // `other.flows` is someone else's field: flagging it here would
    // double-report every call site of an accessor that the declaring
    // file already owns (and allows or fixes).
    let src = "\
struct S { flows: std::collections::HashMap<u64, u8> }
fn f(other: &S) -> usize {
    other.flows.values().count()
}
";
    let msgs = unordered_messages(src);
    assert!(msgs.is_empty(), "{msgs:?}");
}

#[test]
fn unordered_iter_ignores_vecs_ordered_maps_and_test_code() {
    let src = "\
struct S { flows: Vec<u8>, sorted: std::collections::BTreeMap<u64, u8> }
fn f(s: &S) -> usize {
    let mut n = 0;
    for v in &s.flows { n += *v as usize; }
    n + s.sorted.values().count()
}
#[cfg(test)]
mod tests {
    fn t(m: &std::collections::HashMap<u64, u8>) -> usize { m.values().count() }
}
";
    let msgs = unordered_messages(src);
    assert!(msgs.is_empty(), "{msgs:?}");
}

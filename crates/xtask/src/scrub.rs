//! Source scrubbing: separates each line into its code text and its
//! comment text (each with the other blanked out), and tracks two kinds of
//! brace-scoped regions — `#[cfg(test)]` items and `/// xtask: no-alloc`
//! tagged function bodies — so rule matching never fires on prose, test
//! helpers, or literals, while justification comments (`// relaxed-ok:`,
//! `// SAFETY:`) and hot-path tags stay inspectable.

/// One source line after scrubbing.
#[derive(Debug, Clone)]
pub struct Line {
    /// The line with comment bodies and string/char literal contents
    /// replaced by spaces (delimiters preserved).
    pub code: String,
    /// The line's comment text (line and block comments) with all code,
    /// string, and char content replaced by spaces. The `//` / `/*`
    /// delimiters are blanked too, so a doc comment `/// xtask: no-alloc`
    /// surfaces here as `  / xtask: no-alloc`.
    pub comment: String,
    /// True when the line sits inside a `#[cfg(test)]`-gated item.
    pub in_test: bool,
    /// True when the line sits inside a brace-scoped region opened after a
    /// `/// xtask: no-alloc` tag comment (hot-path allocation discipline,
    /// rule R7).
    pub no_alloc: bool,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum State {
    Normal,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(u32),
    Char,
}

/// Scrubs `source` into per-line records.
#[must_use]
pub fn scrub(source: &str) -> Vec<Line> {
    let chars: Vec<char> = source.chars().collect();
    let mut code = String::with_capacity(source.len());
    let mut comment = String::with_capacity(source.len());
    let mut state = State::Normal;
    let mut i = 0;
    // Invariant: `code` and `comment` receive the same number of chars per
    // step (newlines mirrored), so their line structures are identical.
    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        match state {
            State::Normal => match c {
                '/' if next == Some('/') => {
                    state = State::LineComment;
                    code.push_str("  ");
                    comment.push_str("  ");
                    i += 2;
                    continue;
                }
                '/' if next == Some('*') => {
                    state = State::BlockComment(1);
                    code.push_str("  ");
                    comment.push_str("  ");
                    i += 2;
                    continue;
                }
                'r' if matches!(next, Some('"' | '#')) && is_raw_string_start(&chars, i) => {
                    let hashes = count_hashes(&chars, i + 1);
                    state = State::RawStr(hashes);
                    code.push('r');
                    comment.push(' ');
                    for _ in 0..hashes {
                        code.push('#');
                        comment.push(' ');
                    }
                    code.push('"');
                    comment.push(' ');
                    i += 2 + hashes as usize;
                    continue;
                }
                '"' => {
                    state = State::Str;
                    code.push('"');
                    comment.push(' ');
                }
                '\'' => {
                    // Distinguish char literals from lifetimes: a lifetime
                    // is `'ident` NOT followed by a closing quote.
                    let is_lifetime = next.is_some_and(|n| n.is_alphabetic() || n == '_')
                        && chars.get(i + 2).copied() != Some('\'');
                    if !is_lifetime {
                        state = State::Char;
                    }
                    code.push('\'');
                    comment.push(' ');
                }
                '\n' => {
                    code.push('\n');
                    comment.push('\n');
                }
                _ => {
                    code.push(c);
                    comment.push(' ');
                }
            },
            State::LineComment => {
                if c == '\n' {
                    state = State::Normal;
                    code.push('\n');
                    comment.push('\n');
                } else {
                    code.push(' ');
                    comment.push(c);
                }
            }
            State::BlockComment(depth) => {
                if c == '/' && next == Some('*') {
                    state = State::BlockComment(depth + 1);
                    code.push_str("  ");
                    comment.push_str("  ");
                    i += 2;
                    continue;
                }
                if c == '*' && next == Some('/') {
                    state = if depth == 1 {
                        State::Normal
                    } else {
                        State::BlockComment(depth - 1)
                    };
                    code.push_str("  ");
                    comment.push_str("  ");
                    i += 2;
                    continue;
                }
                if c == '\n' {
                    code.push('\n');
                    comment.push('\n');
                } else {
                    code.push(' ');
                    comment.push(c);
                }
            }
            State::Str => match c {
                '\\' => {
                    // Preserve newlines so line numbering survives string
                    // continuations (`\` at end of line).
                    if next == Some('\n') {
                        code.push_str(" \n");
                        comment.push_str(" \n");
                    } else {
                        code.push_str("  ");
                        comment.push_str("  ");
                    }
                    i += 2;
                    continue;
                }
                '"' => {
                    state = State::Normal;
                    code.push('"');
                    comment.push(' ');
                }
                '\n' => {
                    code.push('\n');
                    comment.push('\n');
                }
                _ => {
                    code.push(' ');
                    comment.push(' ');
                }
            },
            State::RawStr(hashes) => {
                if c == '"' && count_hashes(&chars, i + 1) >= hashes {
                    state = State::Normal;
                    code.push('"');
                    comment.push(' ');
                    for _ in 0..hashes {
                        code.push('#');
                        comment.push(' ');
                    }
                    i += 1 + hashes as usize;
                    continue;
                }
                if c == '\n' {
                    code.push('\n');
                    comment.push('\n');
                } else {
                    code.push(' ');
                    comment.push(' ');
                }
            }
            State::Char => match c {
                '\\' => {
                    code.push_str("  ");
                    comment.push_str("  ");
                    i += 2;
                    continue;
                }
                '\'' => {
                    state = State::Normal;
                    code.push('\'');
                    comment.push(' ');
                }
                '\n' => {
                    code.push('\n');
                    comment.push('\n');
                }
                _ => {
                    code.push(' ');
                    comment.push(' ');
                }
            },
        }
        i += 1;
    }

    mark_regions(&code, &comment)
}

fn is_raw_string_start(chars: &[char], i: usize) -> bool {
    // `r"` or `r#...#"`, including as the tail of a byte raw string
    // `br"..."` / `br#"..."#`; reject identifiers that merely end in `r`
    // (or `br`) by requiring the char before the prefix to be
    // non-identifier-ish.
    if i > 0 {
        let prev = chars[i - 1];
        if prev == 'b' {
            if i > 1 {
                let before = chars[i - 2];
                if before.is_alphanumeric() || before == '_' {
                    return false;
                }
            }
        } else if prev.is_alphanumeric() || prev == '_' {
            return false;
        }
    }
    let mut j = i + 1;
    while chars.get(j).copied() == Some('#') {
        j += 1;
    }
    chars.get(j).copied() == Some('"')
}

fn count_hashes(chars: &[char], mut i: usize) -> u32 {
    let mut n = 0;
    while chars.get(i).copied() == Some('#') {
        n += 1;
        i += 1;
    }
    n
}

/// Test-region attribute markers.
const TEST_CFGS: &[&str] = &["#[cfg(test)]", "#[cfg(all(test", "#[cfg(any(test"];

/// Hot-path tag recognized in comment text (rule R7). The tag must be the
/// start of its comment line (after doc-comment `/` / `!` decoration), so
/// prose that merely mentions it does not open a region.
const NO_ALLOC_TAG: &str = "xtask: no-alloc";

fn is_no_alloc_tag(comment_line: &str) -> bool {
    comment_line
        .trim()
        .trim_start_matches(['/', '!'])
        .trim_start()
        .starts_with(NO_ALLOC_TAG)
}

/// Keywords that open a braced item: once one follows a pending marker,
/// the marker belongs to that item and only its `{` (or `;`) consumes it
/// — the commas of its generics and `where` clause do not.
const BRACED_ITEM_KEYWORDS: &[&str] = &["fn", "impl", "mod", "struct", "enum", "trait", "union"];

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Whether a braced-item keyword starts at byte `i` of `line`.
fn braced_item_keyword_at(line: &str, i: usize) -> bool {
    let bytes = line.as_bytes();
    if i > 0 && is_ident_byte(bytes[i - 1]) {
        return false;
    }
    // Byte-wise: `i` need not be a char boundary.
    BRACED_ITEM_KEYWORDS.iter().any(|kw| {
        bytes[i..].starts_with(kw.as_bytes())
            && !bytes.get(i + kw.len()).copied().is_some_and(is_ident_byte)
    })
}

/// A region marker (`#[cfg(test)]` or the no-alloc tag) that has been
/// seen but whose item has not opened yet.
#[derive(Clone, Copy)]
struct Pending {
    /// Paren / bracket depth at which the marker was seen.
    nesting: usize,
    /// Whether a braced-item keyword has followed the marker.
    item: bool,
}

fn mark_regions(code_src: &str, comment_src: &str) -> Vec<Line> {
    let mut lines = Vec::new();
    let mut depth: usize = 0;
    // Paren / bracket depth, for telling a field's `,` from an argument's.
    let mut nesting: usize = 0;
    // Depths at which a cfg(test) / no-alloc region's braces opened.
    let mut test_stack: Vec<usize> = Vec::new();
    let mut alloc_stack: Vec<usize> = Vec::new();
    let mut pending_cfg_test: Option<Pending> = None;
    let mut pending_no_alloc: Option<Pending> = None;

    for (code_line, comment_line) in code_src.lines().zip(comment_src.lines()) {
        let started_test = !test_stack.is_empty();
        let started_alloc = !alloc_stack.is_empty();
        // The line a `#[cfg(test)]` field ends on is still that field.
        let mut ended_test_field = false;
        if is_no_alloc_tag(comment_line) {
            pending_no_alloc = Some(Pending {
                nesting,
                item: false,
            });
        }
        // Byte-wise walk: the markers of interest are all ASCII, and `#`
        // is always a char boundary, so slicing at it is safe.
        for (i, b) in code_line.bytes().enumerate() {
            match b {
                b'#' if TEST_CFGS.iter().any(|cfg| code_line[i..].starts_with(cfg)) => {
                    pending_cfg_test = Some(Pending {
                        nesting,
                        item: false,
                    });
                }
                b'(' | b'[' => nesting += 1,
                b')' | b']' => nesting = nesting.saturating_sub(1),
                b'{' => {
                    depth += 1;
                    if pending_cfg_test.take().is_some() {
                        test_stack.push(depth);
                    }
                    if pending_no_alloc.take().is_some() {
                        alloc_stack.push(depth);
                    }
                }
                b'}' => {
                    if test_stack.last() == Some(&depth) {
                        test_stack.pop();
                    }
                    if alloc_stack.last() == Some(&depth) {
                        alloc_stack.pop();
                    }
                    depth = depth.saturating_sub(1);
                }
                // `#[cfg(test)] use ...;` / a tagged trait method
                // declaration `fn f(&self);` — the pending marker is
                // consumed by a braceless item.
                b';' => {
                    if test_stack.last() != Some(&depth) {
                        pending_cfg_test = None;
                    }
                    if alloc_stack.last() != Some(&depth) {
                        pending_no_alloc = None;
                    }
                }
                // `#[cfg(test)] field: u32,` / `#[cfg(test)] field: init,`
                // — a struct field or field initialiser ends at the `,`
                // on the marker's own paren / bracket level (an argument
                // list's commas sit one level deeper) and has no braced
                // item of its own, so the marker must not live on to
                // exempt whatever braced item comes next.
                b',' => {
                    let ends_field = |p: &Pending| !p.item && p.nesting == nesting;
                    if pending_cfg_test.as_ref().is_some_and(ends_field) {
                        pending_cfg_test = None;
                        ended_test_field = true;
                    }
                    if pending_no_alloc.as_ref().is_some_and(ends_field) {
                        pending_no_alloc = None;
                    }
                }
                _ if braced_item_keyword_at(code_line, i) => {
                    for p in [&mut pending_cfg_test, &mut pending_no_alloc]
                        .into_iter()
                        .flatten()
                    {
                        p.item = true;
                    }
                }
                _ => {}
            }
        }
        let ended_test = !test_stack.is_empty();
        let ended_alloc = !alloc_stack.is_empty();
        lines.push(Line {
            code: code_line.to_string(),
            comment: comment_line.to_string(),
            in_test: started_test || ended_test || ended_test_field || pending_cfg_test.is_some(),
            no_alloc: started_alloc || ended_alloc || pending_no_alloc.is_some(),
        });
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(src: &str) -> Vec<String> {
        scrub(src).into_iter().map(|l| l.code).collect()
    }

    #[test]
    fn comments_and_strings_are_blanked() {
        let src = "let x = \"unwrap() inside\"; // .unwrap() comment\nlet y = 1;";
        let lines = codes(src);
        assert!(!lines[0].contains("unwrap"));
        assert!(lines[0].contains("let x = \""));
        assert_eq!(lines[1], "let y = 1;");
    }

    #[test]
    fn comment_text_is_captured_with_code_blanked() {
        let src = "x.store(1, Relaxed); // relaxed-ok: monotone counter\n";
        let lines = scrub(src);
        assert!(lines[0].comment.contains("relaxed-ok: monotone counter"));
        assert!(!lines[0].comment.contains("store"));
        assert!(!lines[0].code.contains("relaxed-ok"));
    }

    #[test]
    fn comment_lines_mirror_code_lines() {
        let src = "fn f() {\n    /* a\n       b */ g();\n}\n";
        let lines = scrub(src);
        assert_eq!(lines.len(), 4);
        assert!(lines[1].comment.contains('a'));
        assert!(lines[2].comment.contains('b'));
        assert!(lines[2].code.contains("g();"));
    }

    #[test]
    fn string_contents_do_not_leak_into_comments() {
        let src = "let s = \"// not a comment\";\n";
        let lines = scrub(src);
        assert!(lines[0].comment.trim().is_empty());
    }

    #[test]
    fn raw_strings_and_chars_are_blanked() {
        let src = "let p = r#\"panic!(\"x\")\"#; let c = '\"'; let l: &'static str = \"\";";
        let lines = codes(src);
        assert!(!lines[0].contains("panic!"));
        assert!(lines[0].contains("&'static str"));
    }

    #[test]
    fn byte_raw_strings_are_blanked() {
        // Regression: `br#"..."#` — the `b` prefix must not make the raw
        // string read as an identifier, which would leave the inner quote
        // opening an ordinary string state and swallow following code.
        let src = "let b = br#\"panic!(\"x\")\"#; after.unwrap();\nlet t = br\"y\";";
        let lines = codes(src);
        assert!(!lines[0].contains("panic!"));
        assert!(lines[0].contains("after.unwrap();"));
        assert!(!lines[1].contains('y'));
    }

    #[test]
    fn identifiers_ending_in_r_are_not_raw_strings() {
        let src = "let var\u{5f}br = 1; let x = var\u{5f}br\"tail\";";
        let lines = codes(src);
        // `var_br` keeps its letters; the quoted tail is a plain string.
        assert!(lines[0].contains("var_br = 1"));
        assert!(!lines[0].contains("tail"));
    }

    #[test]
    fn multi_hash_raw_strings_close_on_matching_hashes() {
        let src = "let p = r##\"inner \"# still inner\"##; done();";
        let lines = codes(src);
        assert!(!lines[0].contains("inner"));
        assert!(lines[0].contains("done();"));
    }

    #[test]
    fn block_comments_nest() {
        let src = "/* outer /* inner unwrap() */ still comment */ let a = 1;";
        let lines = codes(src);
        assert!(!lines[0].contains("unwrap"));
        assert!(lines[0].contains("let a = 1;"));
    }

    #[test]
    fn nested_block_comment_text_is_captured() {
        let src = "/* outer /* SAFETY: nested */ tail */ let a = 1;";
        let lines = scrub(src);
        assert!(lines[0].comment.contains("SAFETY: nested"));
        assert!(lines[0].code.contains("let a = 1;"));
    }

    #[test]
    fn cfg_test_regions_are_marked() {
        let src = "fn prod() { x.unwrap(); }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn t() { y.unwrap(); }\n\
                   }\n\
                   fn prod2() {}\n";
        let lines = scrub(src);
        assert!(!lines[0].in_test);
        assert!(lines[1].in_test); // attribute line
        assert!(lines[2].in_test);
        assert!(lines[3].in_test);
        assert!(lines[4].in_test); // closing brace
        assert!(!lines[5].in_test);
    }

    #[test]
    fn cfg_test_on_braceless_item_does_not_leak() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn prod() { baz(); }\n";
        let lines = scrub(src);
        assert!(!lines[2].in_test);
    }

    #[test]
    fn cfg_test_on_a_field_does_not_exempt_the_next_item() {
        let src = "struct S {\n\
                       #[cfg(test)]\n\
                       probe: u32,\n\
                       live: u32,\n\
                   }\n\
                   impl S {\n\
                       fn f(&self) { x.unwrap(); }\n\
                   }\n\
                   fn build() -> S {\n\
                       S {\n\
                           #[cfg(test)]\n\
                           probe: make(1, 2),\n\
                           live: 0,\n\
                       }\n\
                   }\n\
                   fn after() { y.unwrap(); }\n";
        let lines = scrub(src);
        assert!(lines[1].in_test && lines[2].in_test); // the field itself
        assert!(!lines[3].in_test);
        assert!(!lines[6].in_test, "impl after a cfg(test) field");
        assert!(lines[10].in_test && lines[11].in_test); // the initialiser
        assert!(!lines[12].in_test);
        assert!(!lines[15].in_test, "fn after a cfg(test) initialiser");
    }

    #[test]
    fn item_commas_do_not_consume_a_pending_marker() {
        let src = "#[cfg(test)]\n\
                   fn helper<A, B>(a: A, b: B) -> u32\n\
                   where\n\
                       A: Copy,\n\
                       B: Copy,\n\
                   {\n\
                       x.unwrap()\n\
                   }\n\
                   /// xtask: no-alloc\n\
                   fn hot<T, U>(t: T, u: U) -> u64 where T: Copy, U: Copy {\n\
                       let δ = Vec::new();\n\
                   }\n";
        let lines = scrub(src);
        assert!(lines[6].in_test, "generics / where commas keep the marker");
        assert!(lines[10].no_alloc, "generics / where commas keep the tag");
    }

    #[test]
    fn no_alloc_tag_marks_the_next_fn_body() {
        let src = "/// Doc prose.\n\
                   /// xtask: no-alloc\n\
                   #[inline]\n\
                   fn hot(x: u64) -> u64 {\n\
                       let v = x + 1;\n\
                       v\n\
                   }\n\
                   fn cold() { Vec::new(); }\n";
        let lines = scrub(src);
        assert!(!lines[0].no_alloc);
        assert!(lines[1].no_alloc); // tag line
        assert!(lines[2].no_alloc); // attribute between tag and fn
        assert!(lines[3].no_alloc); // signature + open brace
        assert!(lines[4].no_alloc);
        assert!(lines[6].no_alloc); // closing brace
        assert!(!lines[7].no_alloc);
    }

    #[test]
    fn no_alloc_tag_in_prose_does_not_open_a_region() {
        let src = "/// This fn is not tagged xtask: no-alloc on purpose.\n\
                   fn normal() { Vec::new(); }\n";
        let lines = scrub(src);
        assert!(!lines[1].no_alloc);
    }

    #[test]
    fn no_alloc_tag_is_consumed_by_braceless_declarations() {
        let src = "/// xtask: no-alloc\nfn decl(x: u64) -> u64;\nfn other() { }\n";
        let lines = scrub(src);
        assert!(!lines[2].no_alloc);
    }

    #[test]
    fn lifetimes_do_not_open_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x }\nlet c = 'x';\n";
        let lines = codes(src);
        assert!(lines[0].contains("&'a str"));
        assert!(lines[1].contains("let c = '"));
        assert!(!lines[1].contains('x'));
    }
}

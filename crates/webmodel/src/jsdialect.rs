//! "Execution" of the workload's synthetic JavaScript.
//!
//! The generator (see `cachecatalyst-webmodel::content`) emits dynamic
//! resource references in a tiny JS dialect that defeats static markup
//! extraction — URLs are assembled from two string literals:
//!
//! ```js
//! const u0 = "/assets/la" + "zy-042.jpg";
//! loadResource(u0);
//! ```
//!
//! The page-load engine "executes" a script by interpreting exactly
//! this dialect, reconstructing the URLs a real browser would fetch
//! from inside JS. Anything else in the file is inert filler.

/// Evaluates a script body, returning the resource URLs it loads, in
/// program order.
///
/// A statement is a line that, leading whitespace trimmed, starts with
/// `const ` or `loadResource(`. Rather than trimming every line, the
/// evaluator jumps from one occurrence of either token to the next and
/// keeps those preceded on their line by whitespace only.
pub fn evaluate(js: &str) -> Vec<String> {
    let mut bindings: Vec<(String, String)> = Vec::new();
    let mut loads = Vec::new();
    let mut next_const = js.find(CONST);
    let mut next_load = js.find(LOAD);
    let mut from = 0;
    loop {
        // Each token's next occurrence at or past `from`, searched for
        // again only once it falls behind.
        for (next, token) in [(&mut next_const, CONST), (&mut next_load, LOAD)] {
            if next.is_some_and(|at| at < from) {
                *next = js[from..].find(token).map(|at| from + at);
            }
        }
        let Some(at) = next_const.into_iter().chain(next_load).min() else {
            break;
        };
        let line_start = js[..at].rfind('\n').map_or(0, |nl| nl + 1);
        let line_end = js[at..].find('\n').map_or(js.len(), |nl| at + nl);
        if js[line_start..at].chars().all(char::is_whitespace) {
            statement(js[at..line_end].trim_end(), &mut bindings, &mut loads);
        }
        // A line holds at most one statement, at its start.
        from = line_end;
    }
    loads
}

const CONST: &str = "const ";
const LOAD: &str = "loadResource(";

/// Runs one statement: `line` is trimmed and starts with a token.
fn statement(line: &str, bindings: &mut Vec<(String, String)>, loads: &mut Vec<String>) {
    if let Some(rest) = line.strip_prefix(CONST) {
        // const NAME = "lit" + "lit";
        let Some((name, expr)) = rest.split_once('=') else {
            return;
        };
        let name = name.trim();
        let expr = expr.trim().trim_end_matches(';').trim();
        let Some((a, b)) = expr.split_once('+') else {
            return;
        };
        let (Some(a), Some(b)) = (
            parse_string_literal(a.trim()),
            parse_string_literal(b.trim()),
        ) else {
            return;
        };
        bindings.retain(|(n, _)| n != name);
        bindings.push((name.to_owned(), format!("{a}{b}")));
    } else if let Some(rest) = line.strip_prefix(LOAD) {
        let arg = rest.trim_end_matches(';').trim_end_matches(')').trim();
        if let Some(value) = bindings.iter().rev().find(|(n, _)| n == arg) {
            loads.push(value.1.clone());
        } else if let Some(lit) = parse_string_literal(arg) {
            loads.push(lit);
        }
    }
}

/// Parses a double-quoted JS string literal with `\"` and `\\` escapes
/// (the only ones our generator produces).
fn parse_string_literal(s: &str) -> Option<String> {
    let inner = s.strip_prefix('"')?.strip_suffix('"')?;
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            out.push(chars.next()?);
        } else if c == '"' {
            return None; // unescaped quote inside: not a single literal
        } else {
            out.push(c);
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluates_generated_dialect() {
        let js = r#"/* site.com/app.js v3 */
"use strict";
const u0 = "/assets/la" + "zy-042.jpg";
loadResource(u0);
const u1 = "http://cdn.site.com/li" + "b.js";
loadResource(u1);
"#;
        assert_eq!(
            evaluate(js),
            vec!["/assets/lazy-042.jpg", "http://cdn.site.com/lib.js"]
        );
    }

    #[test]
    fn direct_literal_argument() {
        assert_eq!(evaluate(r#"loadResource("/x.js");"#), vec!["/x.js"]);
    }

    #[test]
    fn unknown_binding_is_skipped() {
        assert!(evaluate("loadResource(mystery);").is_empty());
    }

    #[test]
    fn rebinding_uses_latest_value() {
        let js = r#"
const u = "/a" + ".js";
const u = "/b" + ".js";
loadResource(u);
"#;
        assert_eq!(evaluate(js), vec!["/b.js"]);
    }

    #[test]
    fn filler_is_inert() {
        let js = r#"
/* lorem ipsum */
function unrelated() { return fetch_like_text; }
var y = 12;
"#;
        assert!(evaluate(js).is_empty());
    }

    #[test]
    fn escaped_quotes_in_literals() {
        assert_eq!(parse_string_literal(r#""a\"b""#).as_deref(), Some("a\"b"));
        assert_eq!(parse_string_literal(r#""a\\b""#).as_deref(), Some("a\\b"));
        assert!(parse_string_literal(r#""a"b""#).is_none());
        assert!(parse_string_literal("nope").is_none());
    }

    /// The evaluator as it was before it jumped between tokens: every
    /// line trimmed and prefix-tested.
    fn evaluate_line_by_line(js: &str) -> Vec<String> {
        let mut bindings: Vec<(String, String)> = Vec::new();
        let mut loads = Vec::new();
        for line in js.lines() {
            let line = line.trim();
            if let Some(rest) = line.strip_prefix("const ") {
                let Some((name, expr)) = rest.split_once('=') else {
                    continue;
                };
                let name = name.trim();
                let expr = expr.trim().trim_end_matches(';').trim();
                let Some((a, b)) = expr.split_once('+') else {
                    continue;
                };
                let (Some(a), Some(b)) = (
                    parse_string_literal(a.trim()),
                    parse_string_literal(b.trim()),
                ) else {
                    continue;
                };
                bindings.retain(|(n, _)| n != name);
                bindings.push((name.to_owned(), format!("{a}{b}")));
            } else if let Some(rest) = line.strip_prefix("loadResource(") {
                let arg = rest.trim_end_matches(';').trim_end_matches(')').trim();
                if let Some(value) = bindings.iter().rev().find(|(n, _)| n == arg) {
                    loads.push(value.1.clone());
                } else if let Some(lit) = parse_string_literal(arg) {
                    loads.push(lit);
                }
            }
        }
        loads
    }

    #[test]
    fn token_jumping_equals_the_line_by_line_evaluator() {
        use crate::content::render_body;
        use crate::resource::{ChangeModel, Discovery, ResourceKind, ResourceSpec};
        let mut scripts: Vec<String> = Vec::new();
        for (size, children) in [(0, 0), (300, 2), (4096, 5), (52_224, 12)] {
            let mut spec = ResourceSpec::leaf(
                "/app.js",
                ResourceKind::Js,
                size,
                Discovery::Base,
                ChangeModel::Immutable,
            );
            spec.dynamic_children = (0..children).map(|i| format!("/lazy-{i}.png")).collect();
            let body = render_body("h", &spec, 3, &|p| format!("http://cdn.h{p}"));
            scripts.push(String::from_utf8(body.to_vec()).unwrap());
        }
        let generated = scripts[2].clone();
        scripts.extend([
            generated.replace('\n', "\r\n"),
            generated.replace("\nconst", "\n\t \tconst").replace("\nload", "\n\tload"),
            generated.replace("\nconst", "\n\u{a0}\u{2003}const"),
            generated.replace("\nloadResource", "\n\u{2028}loadResource"),
            generated.replace("\nloadResource", "\nx = 1; loadResource"),
            generated.replace("\nconst", "\n/* const */ const"),
            generated.replace("\nconst", "\u{85}const"),
            generated.replace("\nconst", "\rconst"),
            generated.replace(";\n", ";\u{3000}\n"),
            "const a = \"/x\" + \".js\"; loadResource(a);\nloadResource(a);".to_owned(),
            "loadResource(\"/one.js\") const b = \"/y\" + \".js\";\n".to_owned(),
            "   const  \n const c = \"/z\" + \".js\"\r\nloadResource(c)\r".to_owned(),
            "const\tu = \"/t\" + \".js\";\nloadResource (u);\nloadResource(\"/q.js\")".to_owned(),
            "\n\n\r\n  loadResource(\"/é.js\");  \n\tconst é = \"/ü\" + \"x\";\nloadResource(é)".to_owned(),
            "xconst a = \"/n\" + \"o\";\nloadResource(a)loadResource(\"/b\")".to_owned(),
            "const const d = \"/d\" + \".js\";\nconst d = \"/e\" + \".js\";loadResource(d);\nloadResource(d);"
                .to_owned(),
            String::new(),
            "const ".to_owned(),
            "loadResource(".to_owned(),
        ]);
        for js in &scripts {
            assert_eq!(evaluate(js), evaluate_line_by_line(js), "{js:?}");
        }
        // The generated scripts load something, so the comparison above
        // is not between two empty lists.
        assert_eq!(evaluate(&scripts[3]).len(), 12);
        assert_eq!(evaluate(&scripts[4]), evaluate(&scripts[2]));
    }

    #[test]
    fn roundtrips_with_generator() {
        use crate::content::render_body;
        use crate::resource::{ChangeModel, Discovery, ResourceKind, ResourceSpec};
        let mut spec = ResourceSpec::leaf(
            "/app.js",
            ResourceKind::Js,
            4096,
            Discovery::Base,
            ChangeModel::Immutable,
        );
        spec.dynamic_children = vec!["/chunk.js".into(), "/lazy.png".into()];
        let body = render_body("h", &spec, 0, &|p| p.to_owned());
        let urls = evaluate(std::str::from_utf8(&body).unwrap());
        assert_eq!(urls, vec!["/chunk.js", "/lazy.png"]);
    }
}

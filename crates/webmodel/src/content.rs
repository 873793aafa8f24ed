//! Deterministic content synthesis.
//!
//! Bodies are generated from `(host, path, version)` so that the
//! simulated and the real-TCP origin serve identical bytes, and so
//! that a version bump changes the bytes (and therefore the ETag)
//! while keeping the size constant. HTML and CSS bodies embed real
//! markup links to their children so the server-side extractor and the
//! browser parser operate on genuine content rather than metadata.

use std::io::Write;

use bytes::Bytes;

use crate::resource::{ResourceKind, ResourceSpec};
use crate::stats::derive_seed_fmt;

/// Renders the body of `spec` at content `version`, embedding links to
/// children. `url_of` maps a child path to the absolute or rooted URL
/// to write into the markup.
///
/// Everything is written straight into one buffer of the body's size,
/// which is what the body then owns: nothing grows, shrinks or is
/// copied, except when the markup alone outgrows `spec.size`.
pub fn render_body(
    host: &str,
    spec: &ResourceSpec,
    version: u64,
    url_of: &dyn Fn(&str) -> String,
) -> Bytes {
    let size = spec.size as usize;
    let mut out = Vec::with_capacity(size);
    if spec.kind.is_textual() {
        match spec.kind {
            ResourceKind::Html => render_html(&mut out, host, spec, version, url_of),
            ResourceKind::Css => render_css(&mut out, host, spec, version, url_of),
            ResourceKind::Js => render_js(&mut out, host, spec, version, url_of),
            _ => {}
        }
        pad_text(&mut out, size);
    } else {
        binary_body(&mut out, host, spec, version);
    }
    Bytes::from(out)
}

/// `write!` into a `Vec<u8>`, which cannot fail.
macro_rules! put {
    ($out:expr, $($fmt:tt)*) => {
        write!($out, $($fmt)*).expect("writing to a Vec cannot fail")
    };
}

impl ResourceKind {
    /// Whether bodies of this kind are text (markup/code) vs binary.
    pub fn is_textual(self) -> bool {
        matches!(
            self,
            ResourceKind::Html | ResourceKind::Css | ResourceKind::Js | ResourceKind::Json
        )
    }
}

fn render_html(
    out: &mut Vec<u8>,
    host: &str,
    spec: &ResourceSpec,
    version: u64,
    url_of: &dyn Fn(&str) -> String,
) {
    let path = &spec.path;
    put!(
        out,
        "<!DOCTYPE html>\n<!-- {host}{path} v{version} -->\n<html><head>\n<title>{host}</title>\n"
    );
    // Images go in the body, everything else in the head: two passes,
    // each asking for the URLs it writes.
    let is_image = |child: &String| ResourceKind::from_path(child) == ResourceKind::Image;
    for child in spec.static_children.iter().filter(|c| !is_image(c)) {
        let url = url_of(child);
        match ResourceKind::from_path(child) {
            ResourceKind::Css => put!(out, "<link rel=\"stylesheet\" href=\"{url}\">\n"),
            ResourceKind::Js => put!(out, "<script src=\"{url}\"></script>\n"),
            ResourceKind::Font => put!(out, "<link rel=\"preload\" href=\"{url}\" as=\"font\">\n"),
            _ => put!(out, "<link rel=\"preload\" href=\"{url}\" as=\"fetch\">\n"),
        }
    }
    put!(out, "</head>\n<body>\n");
    for child in spec.static_children.iter().filter(|c| is_image(c)) {
        put!(out, "<img src=\"{}\" alt=\"\">\n", url_of(child));
    }
}

fn render_css(
    out: &mut Vec<u8>,
    host: &str,
    spec: &ResourceSpec,
    version: u64,
    url_of: &dyn Fn(&str) -> String,
) {
    put!(out, "/* {host}{path} v{version} */\n", path = spec.path);
    for (i, child) in spec.static_children.iter().enumerate() {
        let url = url_of(child);
        match ResourceKind::from_path(child) {
            ResourceKind::Css => put!(out, "@import url({url});\n"),
            ResourceKind::Font => put!(
                out,
                "@font-face {{ font-family: f{i}; src: url(\"{url}\"); }}\n"
            ),
            _ => put!(out, ".bg{i} {{ background-image: url(\"{url}\"); }}\n"),
        }
    }
}

fn render_js(
    out: &mut Vec<u8>,
    host: &str,
    spec: &ResourceSpec,
    version: u64,
    url_of: &dyn Fn(&str) -> String,
) {
    put!(
        out,
        "/* {host}{path} v{version} */\n\"use strict\";\n",
        path = spec.path
    );
    // Dynamic children are fetched by running code — written in a form
    // no markup extractor recognizes (string concatenation), mirroring
    // how real bundles assemble URLs at runtime.
    for (i, child) in spec.dynamic_children.iter().enumerate() {
        let url = url_of(child);
        let (a, b) = url.split_at(url.len() / 2);
        put!(out, "const u{i} = {a:?} + {b:?};\nloadResource(u{i});\n");
    }
}

/// Pads text content up to the target size (or accepts its overflow)
/// with a deterministic filler comment: one copy of the filler, then
/// the filler written so far doubled until the target is reached.
fn pad_text(out: &mut Vec<u8>, target: usize) {
    const FILLER: &[u8] =
        b"/* lorem ipsum dolor sit amet consectetur adipiscing elit sed do eiusmod */\n";
    let start = out.len();
    if start >= target {
        return;
    }
    out.extend_from_slice(&FILLER[..FILLER.len().min(target - start)]);
    while out.len() < target {
        // Everything since `start` is whole fillers, so any prefix of
        // it continues the repetition.
        let take = (out.len() - start).min(target - out.len());
        out.extend_from_within(start..start + take);
    }
}

/// Deterministic pseudo-binary body for images/fonts/other: at least
/// its header, otherwise exactly `spec.size` bytes.
fn binary_body(out: &mut Vec<u8>, host: &str, spec: &ResourceSpec, version: u64) {
    let size = spec.size as usize;
    // A recognizable header carrying identity + version, then a cheap
    // xorshift stream so the body is not trivially constant. The draws
    // go into the buffer sized up front, eight bytes at a time; the
    // last one is cut to what is left.
    put!(out, "BIN:{host}{}:v{version}\n", spec.path);
    let start = out.len();
    if start >= size {
        return;
    }
    let mut x = derive_seed_fmt(version, format_args!("{host}{}", spec.path)) | 1;
    let mut draw = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x.to_le_bytes()
    };
    out.resize(size, 0);
    let mut chunks = out[start..].chunks_exact_mut(8);
    for chunk in &mut chunks {
        chunk.copy_from_slice(&draw());
    }
    let rest = chunks.into_remainder();
    if !rest.is_empty() {
        let len = rest.len();
        rest.copy_from_slice(&draw()[..len]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::{extract_css_links, extract_html_links};
    use crate::resource::{ChangeModel, Discovery};

    fn spec(path: &str, kind: ResourceKind, size: u64) -> ResourceSpec {
        ResourceSpec::leaf(path, kind, size, Discovery::Base, ChangeModel::Immutable)
    }

    fn rooted(p: &str) -> String {
        p.to_owned()
    }

    #[test]
    fn html_embeds_extractable_links() {
        let mut s = spec("/index.html", ResourceKind::Html, 4096);
        s.static_children = vec!["/a.css".into(), "/b.js".into(), "/d.jpg".into()];
        let body = render_body("site.com", &s, 0, &rooted);
        let text = std::str::from_utf8(&body).unwrap();
        let links: Vec<String> = extract_html_links(text)
            .into_iter()
            .map(|l| l.href)
            .collect();
        assert_eq!(links, vec!["/a.css", "/b.js", "/d.jpg"]);
        assert_eq!(body.len(), 4096);
    }

    #[test]
    fn css_embeds_extractable_links() {
        let mut s = spec("/theme.css", ResourceKind::Css, 2048);
        s.static_children = vec!["/f.woff2".into(), "/bg.png".into()];
        let body = render_body("site.com", &s, 3, &rooted);
        let text = std::str::from_utf8(&body).unwrap();
        let links: Vec<String> = extract_css_links(text)
            .into_iter()
            .map(|l| l.href)
            .collect();
        assert_eq!(links, vec!["/f.woff2", "/bg.png"]);
    }

    #[test]
    fn js_children_are_invisible_to_extractors() {
        let mut s = spec("/app.js", ResourceKind::Js, 2048);
        s.dynamic_children = vec!["/lazy.png".into(), "/chunk.js".into()];
        let body = render_body("site.com", &s, 0, &rooted);
        let text = std::str::from_utf8(&body).unwrap();
        assert!(extract_html_links(text).is_empty());
        assert!(extract_css_links(text).is_empty());
        // …but the URLs are reconstructible by "executing" the JS
        // (string concatenation), which the browser model simulates.
        assert!(text.contains("loadResource"));
    }

    #[test]
    fn version_changes_bytes_but_not_size() {
        let s = spec("/pic.jpg", ResourceKind::Image, 10_000);
        let v0 = render_body("site.com", &s, 0, &rooted);
        let v1 = render_body("site.com", &s, 1, &rooted);
        assert_ne!(v0, v1);
        assert_eq!(v0.len(), v1.len());
        assert_eq!(v0.len(), 10_000);
    }

    #[test]
    fn content_is_deterministic() {
        let s = spec("/pic.jpg", ResourceKind::Image, 5_000);
        assert_eq!(
            render_body("site.com", &s, 7, &rooted),
            render_body("site.com", &s, 7, &rooted)
        );
    }

    #[test]
    fn text_padding_reaches_exact_size() {
        for target in [100usize, 1000, 4097] {
            let s = spec("/x.css", ResourceKind::Css, target as u64);
            let body = render_body("h", &s, 0, &rooted);
            assert_eq!(body.len(), target);
        }
    }

    /// The generator as it was before it wrote whole draws: one
    /// `extend_from_slice` per draw, the last one cut.
    fn binary_body_per_draw(host: &str, spec: &ResourceSpec, version: u64) -> Vec<u8> {
        let size = spec.size as usize;
        let mut out = Vec::new();
        put!(out, "BIN:{host}{}:v{version}\n", spec.path);
        let mut x = derive_seed_fmt(version, format_args!("{host}{}", spec.path)) | 1;
        while out.len() < size {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let take = 8.min(size - out.len());
            out.extend_from_slice(&x.to_le_bytes()[..take]);
        }
        out
    }

    /// The filler as it was before it doubled: one filler (or its
    /// head) per step.
    fn pad_text_per_filler(mut out: Vec<u8>, target: usize) -> Vec<u8> {
        const FILLER: &[u8] =
            b"/* lorem ipsum dolor sit amet consectetur adipiscing elit sed do eiusmod */\n";
        while out.len() < target {
            let take = FILLER.len().min(target - out.len());
            out.extend_from_slice(&FILLER[..take]);
        }
        out
    }

    #[test]
    fn binary_bodies_equal_the_per_draw_generator() {
        // Every size up to 200 (the header alone is 24 bytes here, so
        // this covers bodies shorter than their header and every
        // remainder mod 8), then a few large ones on and off the
        // 8-byte grid.
        let sizes = (0..=200).chain([4095, 4096, 4097, 52_223, 52_224, 1 << 20]);
        for size in sizes {
            for (path, version) in [("/p.jpg", 0), ("/fonts/a-long-name.woff2", 7)] {
                let s = spec(path, ResourceKind::Image, size);
                let got = render_body("site.com", &s, version, &rooted);
                let want = binary_body_per_draw("site.com", &s, version);
                assert_eq!(&got[..], &want[..], "size {size}, {path} v{version}");
            }
        }
    }

    #[test]
    fn text_padding_equals_the_per_filler_loop() {
        for start in [0usize, 1, 40, 77, 300] {
            for target in (0..=400).chain([4096, 52_224, 52_301]) {
                let mut got = vec![b'x'; start];
                pad_text(&mut got, target);
                let want = pad_text_per_filler(vec![b'x'; start], target);
                assert_eq!(got, want, "start {start}, target {target}");
            }
        }
    }

    #[test]
    fn essential_content_survives_small_target() {
        let mut s = spec("/i.html", ResourceKind::Html, 10); // absurdly small
        s.static_children = vec!["/a.css".into()];
        let body = render_body("h", &s, 0, &rooted);
        let text = std::str::from_utf8(&body).unwrap();
        assert!(text.contains("/a.css"), "links must never be truncated");
    }
}

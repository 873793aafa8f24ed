//! Service-worker registration injection.
//!
//! The modified origin "inserts the registration code of the Service
//! Worker in the HTML file" (§3) so that existing browsers pick up the
//! mechanism without modification. This module holds the script the
//! origin serves at [`SW_SCRIPT_PATH`] and the snippet it splices into
//! every HTML response.

/// Where the origin serves the service-worker script.
pub const SW_SCRIPT_PATH: &str = "/cc-sw.js";

/// The registration snippet inserted into HTML documents.
pub const REGISTRATION_SNIPPET: &str = "<script>if('serviceWorker' in navigator){navigator.serviceWorker.register('/cc-sw.js');}</script>";

/// The service-worker script body served at [`SW_SCRIPT_PATH`]. A
/// faithful JS rendering of [`crate::sw::ServiceWorker`]'s logic — what
/// a real browser would execute; the Rust struct is what the simulated
/// browser executes. Its map reader, `acceptConfig`, follows
/// [`crate::EtagConfig::accept`]: the same entries, the same refusals,
/// the digest checked over the parsed map's canonical form whatever
/// order or escaping the lines arrived in
/// (`crates/catalyst/tests/sw_script.rs` runs it under `node`).
pub const SW_SCRIPT: &str = r#"// CacheCatalyst service worker.
// Serves unchanged resources from cache with zero round trips, keyed
// by the X-Etag-Config map delivered on each navigation.
'use strict';
const CACHE = 'cachecatalyst-v1';
let etagConfig = new Map();

// The map a navigation installs, read by the rules of the Rust gate
// (EtagConfig::accept): null when a digest is present and the map
// fails it, so nothing of it is acted on; an unsigned map is taken at
// face value, and an unreadable one reads as empty.
function acceptConfig(value, digest) {
  const map = parseConfig(splitEntries(value || ''));
  if (digest === null) return map || new Map();
  const claimed = parseDigest(digest.trim());
  if (claimed === null || map === null) return null;
  return fnv1a64(canonicalForm(map)) === claimed ? map : null;
}

// The text the digest covers: the parsed map in its one-line canonical
// form (EtagConfig's Display), one entry per path in UTF-8 byte order,
// each path escaped as the origin escapes it. A byte string.
function canonicalForm(map) {
  const encoder = new TextEncoder();
  const entries = [...map].map(([path, tag]) => [encoder.encode(path), tag]);
  entries.sort(([a], [b]) => compareBytes(a, b));
  return entries.map(([path, tag]) => escapePath(path) + '=' + tag).join(',');
}

function compareBytes(a, b) {
  for (let i = 0; i < a.length && i < b.length; i++) {
    if (a[i] !== b[i]) return a[i] - b[i];
  }
  return a.length - b.length;
}

// %XX-escapes the bytes EtagConfig's escape does: % , = space " and
// the control bytes.
function escapePath(bytes) {
  let out = '';
  for (const b of bytes) {
    const special = b === 0x25 || b === 0x2c || b === 0x3d || b === 0x20 || b === 0x22 ||
      b < 0x20 || b === 0x7f;
    out += special ? '%' + b.toString(16).toUpperCase().padStart(2, '0') : String.fromCharCode(b);
  }
  return out;
}

// Splits on commas outside quotes (ETags may hold commas) and trims
// each piece: Fetch joins repeated header lines with ', '.
function splitEntries(value) {
  const parts = [];
  let quoted = false, start = 0;
  for (let i = 0; i < value.length; i++) {
    const ch = value[i];
    if (ch === '"') quoted = !quoted;
    else if (ch === ',' && !quoted) { parts.push(value.slice(start, i)); start = i + 1; }
  }
  parts.push(value.slice(start));
  return parts.map((p) => p.trim()).filter((p) => p !== '');
}

const ETAG = /^(W\/)?"[\x21\x23-\x7e\u0080-\uffff]*"$/;

// path=etag pieces to a Map, or null when any piece is unreadable.
function parseConfig(pieces) {
  const map = new Map();
  for (const piece of pieces) {
    const eq = piece.indexOf('=');
    if (eq < 0) return null;
    const path = unescapePath(piece.slice(0, eq));
    const tag = piece.slice(eq + 1).trim();
    if (path === null || !ETAG.test(tag)) return null;
    map.set(path, tag);
  }
  return map;
}

// Header values reach a worker as byte strings, one code unit per
// byte: undo the %XX escapes, then decode the bytes as UTF-8.
function unescapePath(s) {
  const bytes = [];
  for (let i = 0; i < s.length; i++) {
    if (s[i] !== '%') { bytes.push(s.charCodeAt(i) & 0xff); continue; }
    const hex = s.slice(i + 1, i + 3);
    if (!/^[0-9A-Fa-f]{2}$/.test(hex)) return null;
    bytes.push(parseInt(hex, 16));
    i += 2;
  }
  try {
    return new TextDecoder('utf-8', { fatal: true }).decode(new Uint8Array(bytes));
  } catch (e) {
    return null;
  }
}

function parseDigest(text) {
  if (!/^\+?[0-9A-Fa-f]+$/.test(text)) return null;
  const value = BigInt('0x' + text.replace('+', ''));
  return value < (1n << 64n) ? value : null;
}

function fnv1a64(text) {
  let h = 0xcbf29ce484222325n;
  for (let i = 0; i < text.length; i++) {
    h ^= BigInt(text.charCodeAt(i) & 0xff);
    h = (h * 0x100000001b3n) & 0xffffffffffffffffn;
  }
  return h;
}

self.addEventListener('install', () => self.skipWaiting());
self.addEventListener('activate', (e) => e.waitUntil(clients.claim()));

self.addEventListener('fetch', (event) => {
  const url = new URL(event.request.url);
  if (url.origin !== self.location.origin) return; // same-origin only
  if (event.request.mode === 'navigate') {
    event.respondWith((async () => {
      const resp = await fetch(event.request);
      etagConfig = acceptConfig(resp.headers.get('x-etag-config'),
                                resp.headers.get('x-cc-config-digest')) || new Map();
      return resp;
    })());
    return;
  }
  event.respondWith((async () => {
    const cache = await caches.open(CACHE);
    const cached = await cache.match(event.request);
    const mapped = etagConfig.get(url.pathname);
    if (cached && mapped) {
      const tag = cached.headers.get('etag');
      if (tag && weakEq(tag, mapped)) return cached; // zero RTTs
    }
    const headers = new Headers(event.request.headers);
    const validator = cached && cached.headers.get('etag');
    if (validator) headers.set('if-none-match', validator);
    const resp = await fetch(new Request(event.request, { headers }));
    if (resp.status === 304 && cached) return cached;
    if (resp.ok && !(resp.headers.get('cache-control') || '').includes('no-store')) {
      await cache.put(event.request, resp.clone());
    }
    return resp;
  })());
});

function weakEq(a, b) {
  const strip = (t) => t.startsWith('W/') ? t.slice(2) : t;
  return strip(a) === strip(b);
}
"#;

/// Splices the registration snippet into an HTML document, right after
/// the `<head>` start tag when there is one, else at the front. The
/// document is copied once, into a buffer of its final size; its bytes
/// need not be UTF-8 (the tag search reads ASCII only).
pub fn inject_registration(html: &[u8]) -> Vec<u8> {
    let at = find_head_open(html).unwrap_or(0);
    let mut out = Vec::with_capacity(html.len() + REGISTRATION_SNIPPET.len());
    out.extend_from_slice(&html[..at]);
    out.extend_from_slice(REGISTRATION_SNIPPET.as_bytes());
    out.extend_from_slice(&html[at..]);
    out
}

/// Byte offset just past the `<head ...>` start tag, case-insensitive:
/// the element name must end at `>`, `/` or whitespace (so `<header>`
/// is not it), and a tag inside a `<!-- ... -->` comment does not count.
fn find_head_open(html: &[u8]) -> Option<usize> {
    let mut at = 0;
    while let Some(lt) = html[at..].iter().position(|&b| b == b'<') {
        let tag = &html[at + lt..];
        if tag.starts_with(b"<!--") {
            // An unclosed comment runs to the end of the document.
            let close = tag[4..].windows(3).position(|w| w == b"-->")?;
            at += lt + 4 + close + 3;
            continue;
        }
        let is_head = tag.len() > 5
            && tag[1..5].eq_ignore_ascii_case(b"head")
            && (tag[5] == b'>' || tag[5] == b'/' || tag[5].is_ascii_whitespace());
        if is_head {
            let close = tag.iter().position(|&b| b == b'>')?;
            return Some(at + lt + close + 1);
        }
        at += lt + 1;
    }
    None
}

/// Whether an HTML document already carries the registration snippet.
pub fn has_registration(html: &str) -> bool {
    html.contains("navigator.serviceWorker.register('/cc-sw.js')")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn injected(html: &str) -> String {
        String::from_utf8(inject_registration(html.as_bytes())).expect("UTF-8 in, UTF-8 out")
    }

    #[test]
    fn injects_after_head() {
        let html = "<!DOCTYPE html><html><head><title>x</title></head><body></body></html>";
        let out = injected(html);
        assert!(has_registration(&out));
        let head_pos = out.find("<head>").unwrap();
        let reg_pos = out.find("serviceWorker").unwrap();
        let title_pos = out.find("<title>").unwrap();
        assert!(head_pos < reg_pos && reg_pos < title_pos);
    }

    #[test]
    fn injects_with_head_attributes() {
        let html = r#"<head lang="en"><meta charset="utf-8"></head>"#;
        let out = injected(html);
        assert!(out.starts_with(r#"<head lang="en"><script>"#));
    }

    #[test]
    fn head_open_is_found_in_any_case_or_not_at_all() {
        for (html, want) in [
            ("<head>x", Some(6)),
            ("<HEAD lang=x><title>", Some(13)),
            ("<!doctype html><HeAd\n>", Some(22)),
            ("é<head>", Some(8)),
            ("<body>no head here</body>", None),
            ("<head never closes", None),
            ("<hea", None),
            ("<head", None),
            ("<head/>", Some(7)),
            ("<head\t>", Some(7)),
            ("", None),
        ] {
            assert_eq!(find_head_open(html.as_bytes()), want, "{html:?}");
        }
        let out = injected("<HEAD lang=x><title>t</title></HEAD>");
        assert!(out.starts_with("<HEAD lang=x><script>"), "{out}");
    }

    /// A `<head` inside a comment, or the start of a longer name, is
    /// not the head element.
    #[test]
    fn comments_and_longer_names_are_not_the_head() {
        let html = "<!DOCTYPE html><html><!-- <header> --><head><title>t</title>";
        let out = injected(html);
        assert_eq!(
            out,
            format!("<!DOCTYPE html><html><!-- <header> --><head>{REGISTRATION_SNIPPET}<title>t</title>")
        );
        let html = "<html><!-- <head> --><HEAD>x";
        assert_eq!(find_head_open(html.as_bytes()), Some(html.len() - 1));
        for html in [
            "<html><body><header>menu</header></body></html>",
            "<html><!-- <head> never closes",
            "<html><headline><heading>",
        ] {
            assert_eq!(find_head_open(html.as_bytes()), None, "{html:?}");
            assert!(injected(html).starts_with(REGISTRATION_SNIPPET), "{html:?}");
        }
    }

    #[test]
    fn bytes_that_are_not_utf8_pass_through_unchanged() {
        let html = b"<head>\xff\xfe</head>";
        let out = inject_registration(html);
        let at = "<head>".len();
        assert_eq!(&out[..at], b"<head>");
        assert_eq!(
            &out[at..at + REGISTRATION_SNIPPET.len()],
            REGISTRATION_SNIPPET.as_bytes()
        );
        assert_eq!(&out[at + REGISTRATION_SNIPPET.len()..], b"\xff\xfe</head>");
    }

    #[test]
    fn falls_back_to_prefix_without_head() {
        let html = "<body>minimal</body>";
        let out = injected(html);
        assert!(out.starts_with("<script>"));
        assert!(out.ends_with("</body>"));
    }

    #[test]
    fn injection_preserves_original_content() {
        let html = "<head></head><body>content</body>";
        let out = injected(html);
        let stripped = out.replace(REGISTRATION_SNIPPET, "");
        assert_eq!(stripped, html);
    }

    /// What lets the origin's map builder read the page it serves
    /// (registration included) instead of rendering a second copy.
    #[test]
    fn injection_adds_no_link_to_generated_pages() {
        use cachecatalyst_httpwire::Syntax;
        use cachecatalyst_webmodel::extract::hrefs;
        use cachecatalyst_webmodel::{Site, SiteSpec};
        for seed in 0..8 {
            let site = Site::generate(SiteSpec {
                seed,
                n_resources: 30,
                n_pages: 3,
                third_party_fraction: 0.2,
                fingerprinted_fraction: 0.3,
                ..SiteSpec::default()
            });
            for page in site.pages() {
                let body = site.body_at(&page, 7200).unwrap();
                let html = std::str::from_utf8(&body).unwrap();
                let found = hrefs(Syntax::Markup, html);
                assert!(!found.is_empty(), "{page} links nothing");
                assert_eq!(
                    hrefs(Syntax::Markup, &injected(html)),
                    found,
                    "seed {seed} {page}"
                );
            }
        }
    }

    #[test]
    fn sw_script_is_plausible_js() {
        assert!(SW_SCRIPT.contains("addEventListener('fetch'"));
        assert!(SW_SCRIPT.contains("x-etag-config"));
        assert!(SW_SCRIPT.contains("if-none-match"));
    }
}

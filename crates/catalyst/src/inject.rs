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
/// browser executes.
pub const SW_SCRIPT: &str = r#"// CacheCatalyst service worker.
// Serves unchanged resources from cache with zero round trips, keyed
// by the X-Etag-Config map delivered on each navigation.
'use strict';
const CACHE = 'cachecatalyst-v1';
let etagConfig = new Map();

function parseConfig(value) {
  const map = new Map();
  if (!value) return map;
  // split on commas outside quotes
  let parts = [], depth = false, start = 0;
  for (let i = 0; i < value.length; i++) {
    const ch = value[i];
    if (ch === '"') depth = !depth;
    else if (ch === ',' && !depth) { parts.push(value.slice(start, i)); start = i + 1; }
  }
  parts.push(value.slice(start));
  for (const part of parts) {
    const eq = part.indexOf('=');
    if (eq < 0) continue;
    const path = decodeURIComponent(part.slice(0, eq));
    map.set(path, part.slice(eq + 1));
  }
  return map;
}

self.addEventListener('install', () => self.skipWaiting());
self.addEventListener('activate', (e) => e.waitUntil(clients.claim()));

self.addEventListener('fetch', (event) => {
  const url = new URL(event.request.url);
  if (url.origin !== self.location.origin) return; // same-origin only
  if (event.request.mode === 'navigate') {
    event.respondWith((async () => {
      const resp = await fetch(event.request);
      etagConfig = parseConfig(resp.headers.get('x-etag-config'));
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
/// `<head>` when present, else at the front.
pub fn inject_registration(html: &str) -> String {
    if let Some(pos) = find_head_open(html) {
        let mut out = String::with_capacity(html.len() + REGISTRATION_SNIPPET.len());
        out.push_str(&html[..pos]);
        out.push_str(REGISTRATION_SNIPPET);
        out.push_str(&html[pos..]);
        out
    } else {
        format!("{REGISTRATION_SNIPPET}{html}")
    }
}

/// Byte offset just past `<head...>`, case-insensitive.
fn find_head_open(html: &str) -> Option<usize> {
    let start = html
        .as_bytes()
        .windows(5)
        .position(|w| w.eq_ignore_ascii_case(b"<head"))?;
    let close = html[start..].find('>')?;
    Some(start + close + 1)
}

/// Whether an HTML document already carries the registration snippet.
pub fn has_registration(html: &str) -> bool {
    html.contains("navigator.serviceWorker.register('/cc-sw.js')")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injects_after_head() {
        let html = "<!DOCTYPE html><html><head><title>x</title></head><body></body></html>";
        let out = inject_registration(html);
        assert!(has_registration(&out));
        let head_pos = out.find("<head>").unwrap();
        let reg_pos = out.find("serviceWorker").unwrap();
        let title_pos = out.find("<title>").unwrap();
        assert!(head_pos < reg_pos && reg_pos < title_pos);
    }

    #[test]
    fn injects_with_head_attributes() {
        let html = r#"<head lang="en"><meta charset="utf-8"></head>"#;
        let out = inject_registration(html);
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
            ("", None),
        ] {
            assert_eq!(find_head_open(html), want, "{html:?}");
        }
        let out = inject_registration("<HEAD lang=x><title>t</title></HEAD>");
        assert!(out.starts_with("<HEAD lang=x><script>"), "{out}");
    }

    #[test]
    fn falls_back_to_prefix_without_head() {
        let html = "<body>minimal</body>";
        let out = inject_registration(html);
        assert!(out.starts_with("<script>"));
        assert!(out.ends_with("</body>"));
    }

    #[test]
    fn injection_preserves_original_content() {
        let html = "<head></head><body>content</body>";
        let out = inject_registration(html);
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
                    hrefs(Syntax::Markup, &inject_registration(html)),
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

//! The service worker the origin serves to real browsers (`SW_SCRIPT`)
//! reads the map by the rules of the one Rust gate, `EtagConfig::accept`.
//!
//! The script runs under `node` with a stand-in `self` and `fetch`: each
//! case is a navigation whose response carries a head, and the worker
//! reports the map its navigation handler installed and whether its
//! reader refused the map. The heads are what the one writer makes, a
//! copy damaged by `tamper_config_headers`, an unsigned copy, a signed
//! map in another order and escaping than the writer's, non-ASCII paths
//! and tags, and garbage. Header values reach the worker as a browser
//! hands them over: byte strings, one code unit per byte. Without
//! `node` the test prints `skipped:` and passes.

use std::io::Write;
use std::process::{Command, Stdio};

use cachecatalyst_catalyst::{tamper_config_headers, EtagConfig, SW_SCRIPT};
use cachecatalyst_httpwire::hash::fnv1a64;
use cachecatalyst_httpwire::{EntityTag, HeaderMap, HeaderName, Response};
use cachecatalyst_telemetry::json_string;

/// Stands in for the worker global and for `fetch`, then drives the
/// worker's navigation handler once per case.
const PRELUDE: &str = r#"
const listeners = {};
const self = {
  addEventListener: (type, listener) => { listeners[type] = listener; },
  location: { origin: 'http://example.org' },
};
let head = new Map();
const fetch = async () => ({ headers: { get: (name) => head.has(name) ? head.get(name) : null } });
"#;

const RUN_CASES: &str = r#"
(async () => {
  for (const [name, value, digest] of CASES) {
    head = new Map();
    if (value !== null) head.set('x-etag-config', value);
    if (digest !== null) head.set('x-cc-config-digest', digest);
    let navigation;
    listeners.fetch({
      request: { url: 'http://example.org/index.html', mode: 'navigate' },
      respondWith: (response) => { navigation = response; },
    });
    await navigation;
    console.log('case ' + name);
    console.log('refused ' + (acceptConfig(value, digest) === null));
    for (const [path, tag] of etagConfig) {
      console.log(path + '\t' + Buffer.from(tag, 'latin1').toString('utf8'));
    }
  }
})().catch((e) => { console.error(e); process.exit(1); });
"#;

fn tag(s: &str) -> EntityTag {
    EntityTag::strong(s).unwrap()
}

/// A map longer than one header line, whose paths hold every character
/// the escaper handles.
fn long_map() -> EtagConfig {
    let mut config = EtagConfig::new();
    for i in 0..400 {
        let path = match i % 5 {
            0 => format!("/assets/app-{i:03}.js"),
            1 => format!("/q?a={i}&b=1,2"),
            2 => format!("/with space/{i}.css"),
            3 => format!("/quote\"{i}\".png"),
            _ => format!("/100%/{i}.woff"),
        };
        let etag = if i % 7 == 0 {
            EntityTag::weak(format!("w{i}")).unwrap()
        } else {
            tag(&format!("{i:016x}"))
        };
        config.insert(path, etag);
    }
    config
}

/// Paths and tags outside ASCII; `/\u{ff5e}` sorts before `/\u{1f600}`
/// by UTF-8 bytes, the order the origin digests, and after it by
/// UTF-16 code units.
fn non_ascii_map() -> EtagConfig {
    let mut config = EtagConfig::new();
    config.insert("/café/é.css", tag("v1"));
    config.insert("/\u{ff5e}.js", tag("v2"));
    config.insert("/\u{1f600}.png", EntityTag::weak("ünï").unwrap());
    config.insert("/plain.js", tag("v3"));
    config
}

/// The `x-cc-config-digest` value the one writer puts under `config`.
fn digest_of(config: &EtagConfig) -> String {
    let head = HeaderMap::from_entries(config.header_fields());
    head.get(HeaderName::X_CC_CONFIG_DIGEST).unwrap().to_owned()
}

/// What a browser's `Headers.get` returns: repeated lines joined with
/// `", "`, or nothing.
fn fetch_get(head: &HeaderMap, name: &str) -> Option<String> {
    head.get_combined(name).map(|v| v.into_owned())
}

/// The cases: a name and a head each.
fn cases() -> Vec<(&'static str, HeaderMap)> {
    let signed = HeaderMap::from_entries(long_map().header_fields());
    assert!(signed.get_all(HeaderName::X_ETAG_CONFIG).count() > 1);
    let mut tampered = Response::ok("<html>");
    tampered.headers = signed.clone();
    assert!(tamper_config_headers(&mut tampered, Some(7)));
    let mut swapped = Response::ok("<html>");
    swapped.headers = signed.clone();
    assert!(tamper_config_headers(&mut swapped, None));
    let mut unsigned = signed.clone();
    unsigned.remove(HeaderName::X_CC_CONFIG_DIGEST);
    let mut garbage_signed = signed.clone();
    garbage_signed.insert(HeaderName::X_ETAG_CONFIG, "not a valid map");
    let mut bad_escape = HeaderMap::new();
    bad_escape.insert(HeaderName::X_ETAG_CONFIG, "/a%ZZ=\"v\",/b=\"w\"");
    let mut bad_digest = signed.clone();
    bad_digest.insert(HeaderName::X_CC_CONFIG_DIGEST, "zz-not-hex");
    let mut bad_utf8 = HeaderMap::new();
    bad_utf8.insert(HeaderName::X_ETAG_CONFIG, "/a%C3=\"v\",/b=\"w\"");

    // Out of order, a repeated path (the last one wins), a lowercase
    // escape: the same map as `reordered_map`, in other text.
    let reordered_lines = ["/b.js=\"2\",/a%2cx=\"1\"", "/b.js=\"3\""];
    let mut reordered_map = EtagConfig::new();
    reordered_map.insert("/a,x", tag("1"));
    reordered_map.insert("/b.js", tag("3"));
    let mut reordered = HeaderMap::new();
    for line in reordered_lines {
        reordered.append(HeaderName::X_ETAG_CONFIG, line);
    }
    let mut text_signed = reordered.clone();
    reordered.insert(HeaderName::X_CC_CONFIG_DIGEST, &digest_of(&reordered_map));
    // Signed over the text as sent rather than over the map.
    let as_sent = format!("{:016x}", fnv1a64(reordered_lines.join(",").as_bytes()));
    text_signed.insert(HeaderName::X_CC_CONFIG_DIGEST, &as_sent);

    vec![
        ("signed", signed),
        ("tampered", tampered.headers),
        ("swapped", swapped.headers),
        ("unsigned", unsigned),
        ("reordered", reordered),
        ("signed-as-sent", text_signed),
        (
            "non-ascii",
            HeaderMap::from_entries(non_ascii_map().header_fields()),
        ),
        ("garbage-signed", garbage_signed),
        ("garbage-unsigned", bad_escape),
        ("garbage-digest", bad_digest),
        ("bad-utf8", bad_utf8),
        ("absent", HeaderMap::new()),
    ]
}

/// A header value as a JS byte string literal: one code unit per byte.
fn js_bytes_or_null(value: Option<String>) -> String {
    value.map_or_else(
        || "null".to_owned(),
        |v| json_string(&v.bytes().map(char::from).collect::<String>()),
    )
}

/// What the Rust side installs for `head`, in the worker's output
/// format, entries sorted.
fn expected(name: &str, head: &HeaderMap) -> Vec<String> {
    let accepted = EtagConfig::accept(head);
    let mut lines = vec![
        format!("case {name}"),
        format!("refused {}", accepted.is_none()),
    ];
    let installed = accepted.unwrap_or_default();
    lines.extend(installed.iter().map(|(path, tag)| format!("{path}\t{tag}")));
    lines[2..].sort();
    lines
}

#[test]
fn the_served_worker_installs_what_accept_returns() {
    if Command::new("node").arg("--version").output().is_err() {
        eprintln!("skipped: no node to run the served service worker under");
        return;
    }
    let cases = cases();
    let mut script = String::from(PRELUDE);
    script.push_str(SW_SCRIPT);
    script.push_str("\nconst CASES = [\n");
    for (name, head) in &cases {
        script.push_str(&format!(
            "  [{}, {}, {}],\n",
            json_string(name),
            js_bytes_or_null(fetch_get(head, HeaderName::X_ETAG_CONFIG)),
            js_bytes_or_null(fetch_get(head, HeaderName::X_CC_CONFIG_DIGEST)),
        ));
    }
    script.push_str("];\n");
    script.push_str(RUN_CASES);

    let mut node = Command::new("node")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("node runs");
    node.stdin
        .take()
        .unwrap()
        .write_all(script.as_bytes())
        .unwrap();
    let out = node.wait_with_output().unwrap();
    assert!(
        out.status.success(),
        "node failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();

    // Split the worker's report into cases, sorting each case's entries.
    let mut got: Vec<Vec<String>> = Vec::new();
    for line in stdout.lines() {
        if line.starts_with("case ") {
            got.push(Vec::new());
        }
        got.last_mut()
            .expect("output starts with a case")
            .push(line.to_owned());
    }
    for lines in &mut got {
        lines[2..].sort();
    }
    assert_eq!(got.len(), cases.len(), "{stdout}");
    for ((name, head), got) in cases.iter().zip(&got) {
        let want = expected(name, head);
        assert_eq!(got, &want, "case {name}");
    }
    // The cases cover both outcomes of the gate.
    let installed = |name: &str| got[cases.iter().position(|(n, _)| *n == name).unwrap()].len() - 2;
    assert_eq!(installed("signed"), 400);
    assert_eq!(installed("unsigned"), 400);
    assert_eq!(installed("reordered"), 2);
    assert_eq!(installed("non-ascii"), non_ascii_map().len());
    assert_eq!(installed("tampered"), 0);
    assert_eq!(installed("signed-as-sent"), 0);
}

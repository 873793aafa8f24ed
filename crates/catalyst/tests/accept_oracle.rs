//! `EtagConfig::accept` against the reader it replaced.
//!
//! The gate reads the `X-Etag-Config` lines as one list without joining
//! them and digests the map as it reads it. The oracle below is the old
//! path, kept here verbatim in substance: join the lines with `", "`,
//! split the list on unquoted commas, unescape and parse each entry,
//! then digest the canonical `to_string` form of the whole map. For
//! every head — signed, unsigned, tampered, badly signed, re-split at
//! any byte, or made of raw lines with stray quotes, commas, escapes and
//! non-ASCII text — both must return the same thing.

use cachecatalyst_catalyst::config::{tamper_config_headers, MAX_HEADER_LEN};
use cachecatalyst_catalyst::EtagConfig;
use cachecatalyst_httpwire::hash::fnv1a64;
use cachecatalyst_httpwire::{EntityTag, HeaderMap, HeaderName, Response};
use proptest::prelude::*;

/// The join → parse → `to_string` reader.
mod old {
    use super::*;

    pub fn accept(headers: &HeaderMap) -> Option<EtagConfig> {
        let parsed = match headers.get_combined(HeaderName::X_ETAG_CONFIG) {
            Some(value) => parse(&value),
            None => Ok(EtagConfig::new()),
        };
        let Some(claimed) = headers.get(HeaderName::X_CC_CONFIG_DIGEST) else {
            return Some(parsed.unwrap_or_default());
        };
        let claimed = u64::from_str_radix(claimed.trim(), 16).ok()?;
        parsed
            .ok()
            .filter(|config| fnv1a64(canonical(config).as_bytes()) == claimed)
    }

    pub fn parse(value: &str) -> Result<EtagConfig, ()> {
        let mut config = EtagConfig::new();
        for piece in split_entries(value) {
            let piece = piece.trim();
            if piece.is_empty() {
                continue;
            }
            let (path, tag) = piece.split_once('=').ok_or(())?;
            let path = unescape(path)?;
            let tag: EntityTag = tag.parse().map_err(|_| ())?;
            config.insert(path, tag);
        }
        Ok(config)
    }

    pub fn canonical(config: &EtagConfig) -> String {
        config
            .iter()
            .map(|(path, tag)| format!("{}={tag}", escape(path)))
            .collect::<Vec<_>>()
            .join(",")
    }

    fn escape(path: &str) -> String {
        let mut out = String::with_capacity(path.len());
        for c in path.chars() {
            match c {
                '%' | ',' | '=' | ' ' | '"' | '\0'..='\x1f' | '\x7f' => {
                    out.push_str(&format!("%{:02X}", c as u8));
                }
                _ => out.push(c),
            }
        }
        out
    }

    fn unescape(s: &str) -> Result<String, ()> {
        let bytes = s.as_bytes();
        let mut out = Vec::with_capacity(bytes.len());
        let mut i = 0;
        while i < bytes.len() {
            if bytes[i] == b'%' {
                let hex = s
                    .get(i + 1..i + 3)
                    .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
                    .ok_or(())?;
                out.push(u8::from_str_radix(hex, 16).map_err(|_| ())?);
                i += 3;
            } else {
                out.push(bytes[i]);
                i += 1;
            }
        }
        String::from_utf8(out).map_err(|_| ())
    }

    fn split_entries(value: &str) -> Vec<&str> {
        let mut parts = Vec::new();
        let mut in_quotes = false;
        let mut start = 0;
        for (i, b) in value.bytes().enumerate() {
            match b {
                b'"' => in_quotes = !in_quotes,
                b',' if !in_quotes => {
                    parts.push(&value[start..i]);
                    start = i + 1;
                }
                _ => {}
            }
        }
        parts.push(&value[start..]);
        parts
    }
}

/// Paths with every byte the escaper handles, and non-ASCII text it
/// passes through.
fn arb_path() -> impl Strategy<Value = String> {
    "(/[a-zA-Z0-9._%,=\" é中-]{1,12}){1,3}"
}

/// Strong and weak tags, some with commas inside.
fn arb_tag() -> impl Strategy<Value = EntityTag> {
    ("[a-zA-Z0-9+/=,._-]{1,20}", any::<bool>()).prop_map(|(opaque, weak)| {
        if weak {
            EntityTag::weak(opaque).unwrap()
        } else {
            EntityTag::strong(opaque).unwrap()
        }
    })
}

fn arb_config() -> impl Strategy<Value = EtagConfig> {
    (
        prop::collection::btree_map(arb_path(), arb_tag(), 0..24),
        0usize..400,
    )
        .prop_map(|(entries, pad)| {
            // A long common prefix pushes some maps past one line.
            let prefix = format!("/{}", "p".repeat(pad));
            let mut config = EtagConfig::new();
            for (path, tag) in entries {
                config.insert(format!("{prefix}{path}"), tag);
            }
            config
        })
}

/// What a head went through on its way to the receiver.
#[derive(Debug, Clone)]
enum Damage {
    None,
    Unsigned,
    Tampered(Option<u64>),
    NonHexDigest(String),
    WrongDigest(u64),
    /// The lines re-joined and cut again at these fractions of the list:
    /// entries, quotes and tags end up split across lines, and a tag cut
    /// in two gains the join's space. Signed, or with the digest taken
    /// off.
    Resplit {
        cuts: Vec<u16>,
        signed: bool,
    },
    /// The entries written back to front, or one of them twice.
    Reordered {
        duplicate: bool,
    },
    /// A raw line added where the fraction points, with a quote that
    /// may never close.
    StrayLine(String, u16),
}

/// Every kind of damage, each drawn from the same few numbers.
fn arb_damages() -> impl Strategy<Value = Vec<Damage>> {
    (
        any::<u64>(),
        prop::collection::vec(any::<u16>(), 1..6),
        "[g-z+ ]{1,6}|[0-9a-f]{17,20}",
        "[/a-z\"=,%2é]{0,10}",
        any::<u16>(),
    )
        .prop_map(|(n, cuts, not_hex, stray, at)| {
            vec![
                Damage::None,
                Damage::Unsigned,
                Damage::Tampered(None),
                Damage::Tampered(Some(n)),
                Damage::NonHexDigest(not_hex),
                Damage::WrongDigest(n),
                Damage::Resplit {
                    cuts: cuts.clone(),
                    signed: true,
                },
                Damage::Resplit {
                    cuts,
                    signed: false,
                },
                Damage::Reordered { duplicate: false },
                Damage::Reordered { duplicate: true },
                Damage::StrayLine(stray, at),
            ]
        })
}

fn lines(head: &HeaderMap) -> Vec<String> {
    head.get_all(HeaderName::X_ETAG_CONFIG)
        .map(str::to_owned)
        .collect()
}

/// `head` with its map lines replaced by `lines`, the digest kept.
fn with_lines(head: &HeaderMap, lines: &[String]) -> HeaderMap {
    let mut out = head.clone();
    out.remove(HeaderName::X_ETAG_CONFIG);
    for line in lines {
        out.append(HeaderName::X_ETAG_CONFIG, line);
    }
    out
}

fn damaged(config: &EtagConfig, damage: &Damage) -> HeaderMap {
    let head = HeaderMap::from_entries(config.header_fields());
    match damage {
        Damage::None => head,
        Damage::Unsigned => {
            let mut head = head;
            head.remove(HeaderName::X_CC_CONFIG_DIGEST);
            head
        }
        Damage::Tampered(salt) => {
            let mut resp = Response::ok("<html>");
            resp.headers = head;
            tamper_config_headers(&mut resp, *salt);
            resp.headers
        }
        Damage::NonHexDigest(digest) => {
            let mut head = head;
            head.insert(HeaderName::X_CC_CONFIG_DIGEST, digest);
            head
        }
        Damage::WrongDigest(digest) => {
            let mut head = head;
            head.insert(HeaderName::X_CC_CONFIG_DIGEST, &format!("{digest:x}"));
            head
        }
        Damage::Resplit { cuts, signed } => {
            let list = lines(&head).join(",");
            let mut at: Vec<usize> = cuts
                .iter()
                .map(|c| list.len() * usize::from(*c) / usize::from(u16::MAX))
                .filter(|&i| list.is_char_boundary(i))
                .collect();
            at.sort_unstable();
            at.dedup();
            let mut pieces = Vec::new();
            let mut start = 0;
            for i in at {
                pieces.push(list[start..i].to_owned());
                start = i;
            }
            pieces.push(list[start..].to_owned());
            let mut head = with_lines(&head, &pieces);
            if !signed {
                head.remove(HeaderName::X_CC_CONFIG_DIGEST);
            }
            head
        }
        Damage::Reordered { duplicate } => {
            let mut pieces: Vec<String> = config
                .iter()
                .map(|(path, tag)| {
                    let mut one = EtagConfig::new();
                    one.insert(path, tag.clone());
                    one.to_string()
                })
                .collect();
            pieces.reverse();
            if *duplicate && !pieces.is_empty() {
                pieces.push(pieces[pieces.len() / 2].clone());
                pieces.reverse();
            }
            with_lines(&head, &[pieces.join(",")])
        }
        Damage::StrayLine(line, at) => {
            let mut all = lines(&head);
            let at = all.len() * usize::from(*at) / usize::from(u16::MAX);
            all.insert(at, line.clone());
            with_lines(&head, &all)
        }
    }
}

proptest! {
    /// The gate returns what the old reader returned, on the heads the
    /// writer makes and on everything a path could do to them.
    #[test]
    fn accept_agrees_with_the_join_parse_to_string_reader(
        config in arb_config(),
        damages in arb_damages(),
    ) {
        prop_assert_eq!(config.to_string(), old::canonical(&config));
        for damage in &damages {
            let head = damaged(&config, damage);
            prop_assert_eq!(EtagConfig::accept(&head), old::accept(&head), "{:?}", damage);
            if matches!(damage, Damage::None | Damage::Unsigned) {
                prop_assert_eq!(EtagConfig::accept(&head), Some(config.clone()), "{:?}", damage);
            }
        }
    }

    /// Raw lines of stray quotes, commas, escapes and non-ASCII text,
    /// unsigned, signed with the digest the oracle computes for them,
    /// or signed with garbage.
    #[test]
    fn accept_agrees_on_raw_lines(
        raw in prop::collection::vec("[/a-zA-Z\"=,%2Fé W]{0,16}", 0..5),
        sign in 0u8..3,
    ) {
        let mut head = HeaderMap::new();
        for line in &raw {
            head.append(HeaderName::X_ETAG_CONFIG, line);
        }
        match sign {
            0 => {}
            1 => {
                let joined = head.get_combined(HeaderName::X_ETAG_CONFIG);
                let digest = joined
                    .as_deref()
                    .map_or(Ok(EtagConfig::new()), old::parse)
                    .map(|c| fnv1a64(old::canonical(&c).as_bytes()))
                    .unwrap_or(0);
                head.insert(HeaderName::X_CC_CONFIG_DIGEST, &format!("{digest:016x}"));
            }
            _ => head.insert(HeaderName::X_CC_CONFIG_DIGEST, "not hex"),
        }
        prop_assert_eq!(EtagConfig::accept(&head), old::accept(&head));
        for line in &raw {
            prop_assert_eq!(EtagConfig::parse(line).ok(), old::parse(line).ok());
        }
    }
}

/// A quote left open at the end of one line carries the entry into the
/// next, as it does in the joined list: the entry's path then holds the
/// `", "` the join put between the lines.
#[test]
fn an_open_quote_carries_an_entry_across_a_line_end() {
    let mut head = HeaderMap::new();
    head.append(HeaderName::X_ETAG_CONFIG, "/p\"q");
    head.append(HeaderName::X_ETAG_CONFIG, "/b=\"y\"");
    let accepted = EtagConfig::accept(&head).unwrap();
    assert_eq!(accepted, old::accept(&head).unwrap());
    assert_eq!(accepted.len(), 1);
    assert!(accepted.get("/p\"q, /b").is_some(), "{accepted:?}");
}

/// A map the writer had to split still reads back whole, with no
/// digest recomputed over it.
#[test]
fn a_map_past_one_line_is_read_and_verified_across_its_lines() {
    let mut config = EtagConfig::new();
    for i in 0..600 {
        config.insert(
            format!("/assets/r{i:04}.js"),
            EntityTag::strong(format!("{i:x}")).unwrap(),
        );
    }
    let head = HeaderMap::from_entries(config.header_fields());
    assert!(head.get_all(HeaderName::X_ETAG_CONFIG).count() > 1);
    assert!(head
        .get_all(HeaderName::X_ETAG_CONFIG)
        .all(|line| line.len() <= MAX_HEADER_LEN));
    assert_eq!(EtagConfig::accept(&head), Some(config));
}

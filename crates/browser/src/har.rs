//! HAR (HTTP Archive) export of load traces.
//!
//! Emits a minimal but valid HAR 1.2 document so waterfalls from the
//! simulator can be opened in standard tooling (Chrome DevTools'
//! "Import HAR", WebPageTest viewers, `har-analyzer`, …). Hand-rolled
//! JSON: the only string content is URLs and fixed enums, so the
//! telemetry crate's string escaper suffices.

use cachecatalyst_netsim::{FetchOutcome, SimTime};
use cachecatalyst_telemetry::json_string;

use crate::engine::LoadReport;

/// Renders a [`LoadReport`] as a HAR 1.2 JSON document.
///
/// Virtual time zero is mapped onto `epoch` (an RFC3339 timestamp
/// string, e.g. `"2026-07-06T00:00:00.000Z"`), since the simulation
/// has no wall clock of its own.
pub fn to_har(report: &LoadReport, epoch: &str) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\"log\":{\"version\":\"1.2\",");
    out.push_str("\"creator\":{\"name\":\"cachecatalyst\",\"version\":\"0.1.0\"},");
    out.push_str(&format!(
        "\"pages\":[{{\"startedDateTime\":{},\"id\":\"page_1\",\"title\":{},\
         \"pageTimings\":{{\"onContentLoad\":{:.3},\"onLoad\":{:.3}}}}}],",
        json_string(epoch),
        json_string(
            report
                .trace
                .fetches
                .first()
                .map(|f| f.url.as_str())
                .unwrap_or("about:blank")
        ),
        report.fcp.as_millis_f64(),
        report.plt.as_millis_f64(),
    ));
    out.push_str("\"entries\":[");
    for (i, f) in report.trace.fetches.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let blocked = ms(f.started, f.discovered);
        // Real phase timings when the engine observed the boundaries
        // (network fetches); local hits degrade to a single `wait`.
        let (send, wait, receive) = match (f.upload_done, f.response_start) {
            (Some(upload_done), Some(response_start)) => (
                ms(upload_done, f.started),
                ms(response_start, upload_done),
                ms(f.completed, response_start),
            ),
            _ => (0.0, ms(f.completed, f.started), 0.0),
        };
        let (status, status_text) = match f.outcome {
            FetchOutcome::NotModified => (304, "Not Modified"),
            _ => (200, "OK"),
        };
        let served_from_cache = !f.outcome.used_network();
        out.push_str(&format!(
            "{{\"pageref\":\"page_1\",\"startedDateTime\":{},\
             \"time\":{:.3},\
             \"request\":{{\"method\":\"GET\",\"url\":{},\"httpVersion\":\"HTTP/1.1\",\
             \"headers\":[],\"queryString\":[],\"cookies\":[],\
             \"headersSize\":-1,\"bodySize\":0}},\
             \"response\":{{\"status\":{status},\"statusText\":{},\
             \"httpVersion\":\"HTTP/1.1\",\"headers\":[],\"cookies\":[],\
             \"content\":{{\"size\":{},\"mimeType\":\"\"}},\
             \"redirectURL\":\"\",\"headersSize\":-1,\"bodySize\":{}}},\
             \"cache\":{{}},\
             \"timings\":{{\"blocked\":{blocked:.3},\"dns\":-1,\"connect\":-1,\
             \"send\":{send:.3},\"wait\":{wait:.3},\"receive\":{receive:.3},\"ssl\":-1}},\
             \"comment\":{}}}",
            json_string(epoch),
            ms(f.completed, f.discovered),
            json_string(&f.url),
            json_string(status_text),
            f.bytes_down,
            f.bytes_down,
            json_string(&format!(
                "outcome={}; servedFromCache={served_from_cache}; rtts={}; t+{:.3}ms",
                f.outcome.tag().trim(),
                f.rtts,
                f.discovered.as_millis_f64()
            )),
        ));
    }
    out.push_str("]}}");
    out
}

fn ms(later: SimTime, earlier: SimTime) -> f64 {
    later.since(earlier).as_secs_f64() * 1000.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachecatalyst_httpwire::Url;
    use cachecatalyst_netsim::NetworkConditions;
    use cachecatalyst_origin::{HeaderMode, OriginServer};
    use cachecatalyst_webmodel::example_site;
    use std::sync::Arc;

    fn report() -> LoadReport {
        let origin = Arc::new(OriginServer::new(example_site(), HeaderMode::Baseline));
        crate::Browser::baseline().load(
            &origin,
            NetworkConditions::five_g_median(),
            &Url::parse("http://example.org/index.html").unwrap(),
            0,
        )
    }

    #[test]
    fn har_contains_all_entries_and_timings() {
        let r = report();
        let har = to_har(&r, "2026-07-06T00:00:00.000Z");
        assert!(har.starts_with("{\"log\":"));
        for p in ["index.html", "a.css", "b.js", "c.js", "d.jpg"] {
            assert!(har.contains(p), "{p} missing");
        }
        assert_eq!(har.matches("\"pageref\":\"page_1\"").count(), 5);
        assert!(har.contains(&format!("\"onLoad\":{:.3}", r.plt.as_millis_f64())));
        // Cold load over keep-alive HTTP/1.1: every entry paid at
        // least the request/response round trip.
        assert_eq!(har.matches("rtts=0").count(), 0, "{har}");
    }

    /// Minimal recursive-descent JSON validator: accepts exactly the
    /// RFC 8259 grammar (minus `\uXXXX` surrogate-pair pairing) and
    /// returns the rest of the input after one value.
    fn json_value(s: &str) -> Result<&str, String> {
        let t = s.trim_start();
        match t.bytes().next() {
            Some(b'{') => json_object(t),
            Some(b'[') => json_array(t),
            Some(b'"') => json_str(t),
            Some(b't') => t.strip_prefix("true").ok_or_else(|| bad(t)),
            Some(b'f') => t.strip_prefix("false").ok_or_else(|| bad(t)),
            Some(b'n') => t.strip_prefix("null").ok_or_else(|| bad(t)),
            Some(b'-' | b'0'..=b'9') => json_number(t),
            _ => Err(bad(t)),
        }
    }

    fn bad(s: &str) -> String {
        format!("unexpected input at {:?}", &s[..s.len().min(30)])
    }

    fn json_object(s: &str) -> Result<&str, String> {
        let mut t = s.strip_prefix('{').ok_or_else(|| bad(s))?.trim_start();
        if let Some(rest) = t.strip_prefix('}') {
            return Ok(rest);
        }
        loop {
            t = json_str(t)?.trim_start();
            t = t.strip_prefix(':').ok_or_else(|| bad(t))?;
            t = json_value(t)?.trim_start();
            match t.bytes().next() {
                Some(b',') => t = t[1..].trim_start(),
                Some(b'}') => return Ok(&t[1..]),
                _ => return Err(bad(t)),
            }
        }
    }

    fn json_array(s: &str) -> Result<&str, String> {
        let mut t = s.strip_prefix('[').ok_or_else(|| bad(s))?.trim_start();
        if let Some(rest) = t.strip_prefix(']') {
            return Ok(rest);
        }
        loop {
            t = json_value(t)?.trim_start();
            match t.bytes().next() {
                Some(b',') => t = t[1..].trim_start(),
                Some(b']') => return Ok(&t[1..]),
                _ => return Err(bad(t)),
            }
        }
    }

    fn json_str(s: &str) -> Result<&str, String> {
        let t = s.strip_prefix('"').ok_or_else(|| bad(s))?;
        let mut chars = t.char_indices();
        while let Some((i, c)) = chars.next() {
            match c {
                '"' => return Ok(&t[i + 1..]),
                '\\' => match chars.next().map(|(_, e)| e) {
                    Some('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') => {}
                    Some('u') => {
                        for _ in 0..4 {
                            let (_, h) = chars.next().ok_or("truncated \\u escape")?;
                            if !h.is_ascii_hexdigit() {
                                return Err(format!("bad hex digit {h:?}"));
                            }
                        }
                    }
                    other => return Err(format!("bad escape {other:?}")),
                },
                c if (c as u32) < 0x20 => return Err(format!("raw control char {c:?}")),
                _ => {}
            }
        }
        Err("unterminated string".into())
    }

    fn json_number(s: &str) -> Result<&str, String> {
        let t = s.strip_prefix('-').unwrap_or(s);
        let digits = |s: &str| s.len() - s.trim_start_matches(|c: char| c.is_ascii_digit()).len();
        let int = digits(t);
        // No leading zeros (RFC 8259 int = "0" / digit1-9 *DIGIT).
        if int == 0 || (int > 1 && t.starts_with('0')) {
            return Err(bad(s));
        }
        let mut t = &t[int..];
        if let Some(frac) = t.strip_prefix('.') {
            let n = digits(frac);
            if n == 0 {
                return Err(bad(s));
            }
            t = &frac[n..];
        }
        if let Some(exp) = t.strip_prefix(['e', 'E']) {
            let exp = exp.strip_prefix(['+', '-']).unwrap_or(exp);
            let n = digits(exp);
            if n == 0 {
                return Err(bad(s));
            }
            t = &exp[n..];
        }
        Ok(t)
    }

    #[test]
    fn json_validator_rejects_malformed_documents() {
        for good in ["{}", "[1,2.5,-3e4]", "{\"a\":[true,null,\"x\\u00e9\"]}"] {
            let rest = json_value(good).unwrap_or_else(|e| panic!("{good}: {e}"));
            assert!(rest.trim().is_empty(), "{good}: trailing {rest:?}");
        }
        for bad in ["", "{", "[1,]", "{\"a\"}", "01", "1.", "\"\\x\"", "{1:2}"] {
            let fully_valid = matches!(json_value(bad), Ok(rest) if rest.trim().is_empty());
            assert!(!fully_valid, "{bad:?} should not validate");
        }
    }

    #[test]
    fn har_is_valid_json() {
        let har = to_har(&report(), "2026-07-06T00:00:00.000Z");
        let rest = json_value(&har).unwrap_or_else(|e| panic!("invalid HAR JSON: {e}"));
        assert!(rest.trim().is_empty(), "trailing garbage: {rest:?}");
    }

    #[test]
    fn har_timings_are_present_and_non_negative() {
        let r = report();
        let har = to_har(&r, "2026-07-06T00:00:00.000Z");
        let timings: Vec<&str> = har
            .match_indices("\"timings\":{")
            .map(|(i, _)| {
                let t = &har[i..];
                &t[..t.find('}').unwrap() + 1]
            })
            .collect();
        assert_eq!(timings.len(), r.trace.fetches.len());
        for t in timings {
            for phase in ["blocked", "send", "wait", "receive"] {
                let needle = format!("\"{phase}\":");
                let v = t.split(&needle).nth(1).unwrap_or_else(|| {
                    panic!("{phase} missing in {t}");
                });
                let num: f64 = v
                    .split([',', '}'])
                    .next()
                    .unwrap()
                    .parse()
                    .unwrap_or_else(|e| panic!("{phase} not a number in {t}: {e}"));
                assert!(num >= 0.0, "{phase} negative in {t}");
            }
            // Unknowable phases stay -1 per the HAR spec.
            for phase in ["dns", "connect", "ssl"] {
                assert!(t.contains(&format!("\"{phase}\":-1")), "{phase} in {t}");
            }
        }
        // Network entries carry a real three-phase split: at least one
        // entry has non-zero send AND receive.
        assert!(
            timings_with_split(&har) > 0,
            "no entry has a full send/wait/receive split: {har}"
        );
    }

    /// Counts timings objects whose send and receive are both > 0.
    fn timings_with_split(har: &str) -> usize {
        har.match_indices("\"timings\":{")
            .filter(|(i, _)| {
                let t = &har[*i..];
                let t = &t[..t.find('}').unwrap() + 1];
                let get = |phase: &str| -> f64 {
                    t.split(&format!("\"{phase}\":"))
                        .nth(1)
                        .and_then(|v| v.split([',', '}']).next())
                        .and_then(|v| v.parse().ok())
                        .unwrap_or(-1.0)
                };
                get("send") > 0.0 && get("receive") > 0.0
            })
            .count()
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_string("a\"b"), "\"a\\\"b\"");
        assert_eq!(json_string("a\\b"), "\"a\\\\b\"");
        assert_eq!(json_string("a\nb"), "\"a\\nb\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }
}

//! E16 — the deployed-today alternative the paper does not discuss:
//! RFC 5861 `stale-while-revalidate`.
//!
//! SWR also hides revalidation RTTs — by serving the stale copy and
//! refreshing in the background. The difference: SWR knowingly shows
//! outdated content inside its window, while CacheCatalyst is always
//! current. This experiment adds an SWR window to every TTL'd
//! response (via a decorating upstream) and compares PLT *and* the
//! staleness each policy exposes to the user.

use std::io::Write;
use std::sync::Arc;

use super::corpus_arg;
use crate::cli::{self, Args};
use crate::runner::{first_visit_time, reload_each, ClientKind, REVISIT_DELAYS};
use crate::table::render_table;
use cachecatalyst_browser::{SingleOrigin, Upstream};
use cachecatalyst_httpwire::{HeaderName, Request, Response};
use cachecatalyst_netsim::{FetchOutcome, NetworkConditions};
use cachecatalyst_origin::OriginServer;
use cachecatalyst_webmodel::Site;

/// Appends `stale-while-revalidate=<window>` to every `max-age`
/// response — what a site adopting SWR would deploy.
struct SwrUpstream {
    inner: Arc<OriginServer>,
    window_secs: u64,
}

impl Upstream for SwrUpstream {
    fn handle(&self, _host: &str, req: &Request, t: i64) -> Response {
        let mut resp = self.inner.handle(req, t);
        let cc = resp.cache_control();
        if cc.max_age.is_some() && !cc.no_store && !cc.no_cache {
            let value = format!(
                "{}, stale-while-revalidate={}",
                resp.headers.get(HeaderName::CACHE_CONTROL).unwrap_or(""),
                self.window_secs
            );
            resp.headers.insert(HeaderName::CACHE_CONTROL, &value);
        }
        resp
    }
}

struct Row {
    plt_ms: f64,
    requests: f64,
    stale_served: f64,
    samples: usize,
}

pub fn run(args: &mut Args, out: &mut dyn Write) -> cli::Result {
    let sites = corpus_arg(args, 25)?;
    let n_sites = sites.len();
    let cond = NetworkConditions::five_g_median();

    writeln!(out,
        "== E16: stale-while-revalidate vs CacheCatalyst ({n_sites} sites × {} delays, {}, churning) ==\n",
        REVISIT_DELAYS.len(),
        cond.label()
    )?;

    let mut rows = Vec::new();
    for (label, kind, swr_window) in [
        ("status quo", ClientKind::Baseline, None),
        ("status quo + SWR 1d", ClientKind::Baseline, Some(86_400)),
        ("catalyst", ClientKind::Catalyst, None),
    ] {
        let mut acc = Row {
            plt_ms: 0.0,
            requests: 0.0,
            stale_served: 0.0,
            samples: 0,
        };
        for site in &sites {
            let origin = Arc::new(OriginServer::new(site.clone(), kind.header_mode()));
            let upstream: Box<dyn Upstream> = match swr_window {
                Some(window_secs) => Box::new(SwrUpstream {
                    inner: origin,
                    window_secs,
                }),
                None => Box::new(SingleOrigin(origin)),
            };
            let t0 = first_visit_time(site);
            let browser = kind.browser();
            let visits = reload_each(&*upstream, site, browser, cond, &REVISIT_DELAYS);
            for (delay, warm) in REVISIT_DELAYS.iter().zip(visits.warm) {
                let t1 = t0 + delay.as_secs() as i64;
                acc.plt_ms += warm.plt_ms();
                acc.requests += warm.network_requests() as f64;
                acc.stale_served += count_stale(site, &warm.trace, t0, t1) as f64;
                acc.samples += 1;
            }
        }
        let n = acc.samples as f64;
        rows.push(vec![
            label.to_owned(),
            format!("{:.0}", acc.plt_ms / n),
            format!("{:.1}", acc.requests / n),
            format!("{:.2}", acc.stale_served / n),
        ]);
    }

    writeln!(
        out,
        "{}",
        render_table(
            &[
                "policy",
                "warm PLT ms",
                "warm requests",
                "stale resources shown / visit",
            ],
            &rows
        )
    )?;
    writeln!(
        out,
        "SWR buys latency by showing outdated content; CacheCatalyst buys the\n\
         same class of RTT savings while staying current — the trade-off the\n\
         paper's design removes."
    )?;
    Ok(())
}

/// Resources whose displayed version (cache/SW hit ⇒ the t0 version)
/// differs from the server-current version at the revisit.
fn count_stale(site: &Site, trace: &cachecatalyst_netsim::LoadTrace, t0: i64, t1: i64) -> usize {
    trace
        .fetches
        .iter()
        .filter(|f| {
            matches!(
                f.outcome,
                FetchOutcome::CacheHit | FetchOutcome::ServiceWorkerHit
            )
        })
        .filter(|f| {
            let path = cachecatalyst_httpwire::Url::parse(&f.url)
                .map(|u| u.path().to_owned())
                .unwrap_or_default();
            match (site.version_at(&path, t0), site.version_at(&path, t1)) {
                (Some(v0), Some(v1)) => v0 != v1,
                _ => false,
            }
        })
        .count()
}

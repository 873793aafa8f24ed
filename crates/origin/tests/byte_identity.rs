//! The origin's per-epoch heads against the construction they replaced.
//!
//! [`Reference`] is the request handler as it was before heads were
//! kept per churn epoch: it renders the body and builds the map afresh
//! on every request and assembles the response with `Response::ok` /
//! `Response::not_modified`, a `with_header` chain, the map's fields
//! appended as `EtagConfig::header_fields` writes them and the
//! `Server` / `HEAD` finish. Every
//! response `OriginServer` gives — in every header mode, for GET,
//! HEAD, both conditionals, fingerprinted URLs, a 404 and the
//! service-worker script, on both sides of churn-epoch boundaries and
//! going back in time — must encode to the same bytes.
//!
//! The origin renders a body again only when what the body reads
//! changed: its own version and its fingerprinted direct children's
//! versions (their URLs are in it). The sweep provably holds both
//! kinds of page epoch turn that rule decides — one it must serve from
//! the kept body, and one where only a fingerprinted child moved, which
//! it must render again — so a key that left something out fails here.

use cachecatalyst_catalyst::{
    build_config_with_bodies, inject_registration, AggregateCapture, ExtractOptions, SW_SCRIPT,
    SW_SCRIPT_PATH,
};
use cachecatalyst_httpwire::conditional::{evaluate, Disposition, Validators};
use cachecatalyst_httpwire::{
    codec, Body, HeaderName, HttpDate, Method, Request, Response, StatusCode, Url,
};
use cachecatalyst_origin::{HeaderMode, OriginServer};
use std::collections::HashSet;

use cachecatalyst_webmodel::{ChangeModel, HeaderPolicy, ResourceKind, Site, SiteSpec};

const MODES: [HeaderMode; 4] = [
    HeaderMode::Baseline,
    HeaderMode::Catalyst,
    HeaderMode::CatalystAggregate,
    HeaderMode::NoStore,
];

struct Reference {
    site: Site,
    mode: HeaderMode,
    opts: ExtractOptions,
    aggregate: AggregateCapture,
}

impl Reference {
    fn new(site: Site, mode: HeaderMode, cross_origin: bool) -> Reference {
        Reference {
            site,
            mode,
            opts: ExtractOptions {
                include_cross_origin: cross_origin,
            },
            aggregate: AggregateCapture::default(),
        }
    }

    fn handle(&mut self, req: &Request, t_secs: i64) -> Response {
        if req.method != Method::Get && req.method != Method::Head {
            return Response::empty(StatusCode::METHOD_NOT_ALLOWED);
        }
        let path = req.target.path();
        if path == SW_SCRIPT_PATH {
            let resp = Response::ok(SW_SCRIPT)
                .with_header(HeaderName::CONTENT_TYPE, "application/javascript")
                .with_header(HeaderName::CACHE_CONTROL, "max-age=86400")
                .with_header(HeaderName::DATE, &HttpDate(t_secs).to_imf_fixdate());
            return finish(resp, req);
        }
        let Some((resource, _)) = self.site.lookup(path) else {
            return Response::empty(StatusCode::NOT_FOUND)
                .with_header(HeaderName::DATE, &HttpDate(t_secs).to_imf_fixdate());
        };
        let resource = resource.clone();
        let etag = self.site.etag_at(path, t_secs).unwrap();
        let last_modified = resource.spec.change.last_change_at(t_secs);
        if self.mode == HeaderMode::CatalystAggregate {
            if resource.spec.kind == ResourceKind::Html {
                self.aggregate.record_visit(path);
            } else {
                let page = page_of(req).unwrap_or_else(|| self.site.base_path().to_owned());
                self.aggregate.record(&page, path);
            }
        }
        let is_page = resource.spec.kind == ResourceKind::Html && self.mode.is_catalyst();
        let validators = Validators::new(Some(&etag), Some(HttpDate(last_modified)));
        if evaluate(req, &validators) == Disposition::NotModified {
            let mut resp = Response::not_modified(Some(&etag))
                .with_header(HeaderName::DATE, &HttpDate(t_secs).to_imf_fixdate());
            if is_page {
                self.attach_config(&mut resp, path, t_secs);
            }
            let resp = resp.with_header(HeaderName::CACHE_CONTROL, &self.cc(&resource.policy));
            return finish(resp, req);
        }
        let mut resp = Response::ok(self.body_of(path, t_secs))
            .with_header(HeaderName::CONTENT_TYPE, resource.spec.kind.mime())
            .with_header(HeaderName::DATE, &HttpDate(t_secs).to_imf_fixdate())
            .with_header(
                HeaderName::LAST_MODIFIED,
                &HttpDate(last_modified).to_imf_fixdate(),
            )
            .with_header(HeaderName::ETAG, &etag.to_string())
            .with_header(HeaderName::CACHE_CONTROL, &self.cc(&resource.policy));
        if is_page {
            self.attach_config(&mut resp, path, t_secs);
        }
        finish(resp, req)
    }

    /// The body as served: catalyst pages carry the registration.
    fn body_of(&self, path: &str, t_secs: i64) -> Body {
        let rendered = self.site.body_at(path, t_secs).unwrap();
        let (resource, _) = self.site.lookup(path).unwrap();
        if resource.spec.kind == ResourceKind::Html && self.mode.is_catalyst() {
            Body::from(inject_registration(&rendered))
        } else {
            Body::from(rendered)
        }
    }

    fn attach_config(&mut self, resp: &mut Response, page: &str, t_secs: i64) {
        let mut config = build_config_with_bodies(&self.site, page, t_secs, &self.opts, &|path| {
            self.site.lookup(path)?;
            Some(self.body_of(path, t_secs))
        });
        let site = &self.site;
        if self.mode == HeaderMode::CatalystAggregate {
            config.merge(
                self.aggregate
                    .config_for(page, &|p| site.etag_at(p, t_secs)),
            );
        }
        for (name, value) in config.header_fields() {
            resp.headers.append(name.as_str(), value.as_str());
        }
    }

    fn cc(&self, policy: &HeaderPolicy) -> String {
        match self.mode {
            HeaderMode::Baseline => policy.to_cache_control().to_string(),
            HeaderMode::NoStore => "no-store".to_owned(),
            _ if matches!(policy, HeaderPolicy::NoStore) => "no-store".to_owned(),
            _ => "no-cache".to_owned(),
        }
    }
}

fn finish(mut resp: Response, req: &Request) -> Response {
    resp.headers
        .insert(HeaderName::SERVER, "cachecatalyst-origin");
    if req.method == Method::Head {
        resp.body = Body::new();
    }
    resp
}

fn page_of(req: &Request) -> Option<String> {
    let referer = req.headers.get("referer")?;
    Url::parse(referer).ok().map(|u| u.path().to_owned())
}

fn site(seed: u64) -> Site {
    Site::generate(SiteSpec {
        host: format!("bytes{seed}.example"),
        seed,
        n_resources: 18,
        n_pages: 2,
        js_discovered_fraction: 0.2,
        third_party_fraction: 0.2,
        fingerprinted_fraction: 0.5,
        ..SiteSpec::default()
    })
}

/// Every second either side of the first few content changes, and of
/// the first change of every resource a page reads, in order, then a
/// step back to where the run started.
fn times(site: &Site) -> Vec<i64> {
    let first_change = |path: &str| match site.get(path)?.spec.change {
        ChangeModel::Periodic { period, phase } => {
            let version = site.version_at(path, 0)? as i64;
            Some((version + 1) * period.as_secs().max(1) as i64 - phase.as_secs() as i64)
        }
        ChangeModel::Immutable => None,
    };
    let mut boundaries: Vec<i64> = site
        .resources()
        .filter_map(|r| first_change(&r.spec.path))
        .collect();
    boundaries.sort_unstable();
    boundaries.truncate(4);
    for page in site.pages() {
        boundaries.extend(closure(site, &page).iter().filter_map(|p| first_change(p)));
    }
    boundaries.sort_unstable();
    boundaries.dedup();
    let mut times = vec![0, 1];
    for b in boundaries {
        times.extend([b - 1, b]);
    }
    times.dedup();
    times.push(0);
    times
}

/// `root` and everything it reaches through static and dynamic
/// children: what its churn epoch folds.
fn closure(site: &Site, root: &str) -> Vec<String> {
    let mut seen = HashSet::new();
    let mut stack = vec![root.to_owned()];
    while let Some(path) = stack.pop() {
        let Some(r) = site.get(&path) else { continue };
        if seen.insert(path) {
            stack.extend(r.spec.static_children.iter().cloned());
            stack.extend(r.spec.dynamic_children.iter().cloned());
        }
    }
    seen.into_iter().collect()
}

/// The page's versions that its body reads: its own, then each
/// fingerprinted direct child's.
fn body_key(site: &Site, page: &str, t: i64) -> Vec<u64> {
    let spec = &site.get(page).unwrap().spec;
    let children = spec.static_children.iter().chain(&spec.dynamic_children);
    let fingerprinted = children
        .filter_map(|child| site.get(child))
        .filter(|child| child.spec.fingerprinted)
        .map(|child| child.spec.version_at(t));
    std::iter::once(spec.version_at(t))
        .chain(fingerprinted)
        .collect()
}

/// The two kinds of page epoch turn between consecutive sweep times:
/// (the body's inputs unchanged, a fingerprinted child moved under an
/// unchanged page version).
fn turn_kinds(site: &Site, times: &[i64]) -> (usize, usize) {
    let (mut kept, mut child_moved) = (0, 0);
    for page in site.pages() {
        let closure = closure(site, &page);
        let epoch = |t: i64| -> Vec<u64> {
            closure
                .iter()
                .map(|p| site.version_at(p, t).unwrap())
                .collect()
        };
        for pair in times.windows(2) {
            let (was, now) = (pair[0], pair[1]);
            if epoch(was) == epoch(now) {
                continue;
            }
            let (before, after) = (body_key(site, &page, was), body_key(site, &page, now));
            if before == after {
                kept += 1;
            } else if before[0] == after[0] {
                child_moved += 1;
            }
        }
    }
    (kept, child_moved)
}

/// The requests of one round at one `t`: each path bare, as `HEAD`,
/// with a matching and a stale `If-None-Match`, and with an
/// `If-Modified-Since` at and before its `Last-Modified`.
fn requests(site: &Site, t: i64) -> Vec<Request> {
    let mut paths: Vec<String> = site.resources().map(|r| r.spec.path.clone()).collect();
    for r in site.resources().filter(|r| r.spec.fingerprinted) {
        let version = r.spec.version_at(t);
        paths.push(Site::fingerprint_path(&r.spec.path, version));
        paths.push(Site::fingerprint_path(&r.spec.path, version + 1));
    }
    paths.extend(["/nope.css".to_owned(), SW_SCRIPT_PATH.to_owned()]);
    let page = format!("http://{}{}", site.spec.host, site.base_path());
    let mut out = Vec::new();
    for path in paths {
        let get = Request::get(&path)
            .with_header("host", &site.spec.host)
            .with_header("referer", &page);
        let mut head = get.clone();
        head.method = Method::Head;
        out.extend([get.clone(), head]);
        out.push(
            get.clone()
                .with_header("if-none-match", "\"0000000000000000\""),
        );
        // The validators a client holding the current version has.
        if let Some((resource, _)) = site.lookup(&path) {
            let tag = site.etag_at(&path, t).unwrap();
            out.push(get.clone().with_header("if-none-match", &tag.to_string()));
            let lm = resource.spec.change.last_change_at(t);
            for ims in [lm, lm - 1] {
                out.push(
                    get.clone()
                        .with_header("if-modified-since", &HttpDate(ims).to_imf_fixdate()),
                );
            }
        }
    }
    let mut post = Request::get(site.base_path());
    post.method = Method::Post;
    out.push(post);
    out
}

#[test]
fn every_response_encodes_to_the_bytes_of_the_old_construction() {
    let mut compared = 0;
    let mut statuses = std::collections::BTreeSet::new();
    let (mut kept, mut child_moved) = (0, 0);
    for seed in [3, 8] {
        let site = site(seed);
        let (k, c) = turn_kinds(&site, &times(&site));
        kept += k;
        child_moved += c;
        for mode in MODES {
            let cross_origin = seed == 8;
            let server = OriginServer::new(site.clone(), mode);
            let server = if cross_origin {
                server.with_cross_origin()
            } else {
                server
            };
            let mut reference = Reference::new(site.clone(), mode, cross_origin);
            for t in times(&site) {
                for req in requests(&site, t) {
                    let want = reference.handle(&req, t);
                    let got = server.handle(&req, t);
                    assert_eq!(
                        codec::encode_response(&got),
                        codec::encode_response(&want),
                        "seed {seed}, {} mode, t={t}: {:?} {} {:?}",
                        mode.label(),
                        req.method,
                        req.target.as_str(),
                        req.headers,
                    );
                    statuses.insert(got.status.as_u16());
                    compared += 1;
                }
            }
        }
    }
    assert_eq!(
        statuses.into_iter().collect::<Vec<_>>(),
        [200, 304, 404, 405]
    );
    assert!(compared > 15_000, "{compared} responses compared");
    assert!(kept > 0, "no page epoch turn left its body's inputs alone");
    assert!(
        child_moved > 0,
        "no fingerprinted child changed under an unchanged page version"
    );
}

//! Resources: the units a web page is assembled from.

use std::fmt;
use std::time::Duration;

/// The kind of a web resource, which determines its size distribution,
/// change rate and how it is discovered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ResourceKind {
    Html,
    Css,
    Js,
    Image,
    Font,
    Json,
    Other,
}

impl ResourceKind {
    pub fn all() -> [ResourceKind; 7] {
        [
            ResourceKind::Html,
            ResourceKind::Css,
            ResourceKind::Js,
            ResourceKind::Image,
            ResourceKind::Font,
            ResourceKind::Json,
            ResourceKind::Other,
        ]
    }

    /// MIME type served for this kind.
    pub fn mime(self) -> &'static str {
        match self {
            ResourceKind::Html => "text/html; charset=utf-8",
            ResourceKind::Css => "text/css",
            ResourceKind::Js => "application/javascript",
            ResourceKind::Image => "image/jpeg",
            ResourceKind::Font => "font/woff2",
            ResourceKind::Json => "application/json",
            ResourceKind::Other => "application/octet-stream",
        }
    }

    /// Conventional file extension.
    pub fn extension(self) -> &'static str {
        match self {
            ResourceKind::Html => "html",
            ResourceKind::Css => "css",
            ResourceKind::Js => "js",
            ResourceKind::Image => "jpg",
            ResourceKind::Font => "woff2",
            ResourceKind::Json => "json",
            ResourceKind::Other => "bin",
        }
    }

    /// Guesses a kind from a URL path (extension, any letter case).
    pub fn from_path(path: &str) -> ResourceKind {
        let ext = path.rsplit('.').next().unwrap_or("");
        let is = |known: &[&str]| known.iter().any(|k| ext.eq_ignore_ascii_case(k));
        if is(&["html", "htm"]) {
            ResourceKind::Html
        } else if is(&["css"]) {
            ResourceKind::Css
        } else if is(&["js", "mjs"]) {
            ResourceKind::Js
        } else if is(&["jpg", "jpeg", "png", "gif", "webp", "svg", "ico", "avif"]) {
            ResourceKind::Image
        } else if is(&["woff", "woff2", "ttf", "otf"]) {
            ResourceKind::Font
        } else if is(&["json"]) {
            ResourceKind::Json
        } else {
            ResourceKind::Other
        }
    }
}

impl fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ResourceKind::Html => "html",
            ResourceKind::Css => "css",
            ResourceKind::Js => "js",
            ResourceKind::Image => "image",
            ResourceKind::Font => "font",
            ResourceKind::Json => "json",
            ResourceKind::Other => "other",
        };
        f.write_str(s)
    }
}

/// How the browser learns that a resource is needed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Discovery {
    /// It is the page's base document (requested directly).
    Base,
    /// Statically linked from the HTML or a CSS file at `parent` —
    /// visible to anyone who parses the markup, including the server.
    Static { parent: String },
    /// Produced by executing the JavaScript at `parent` — invisible to
    /// static extraction (the paper's coverage gap, §3).
    JsExecution { parent: String },
}

impl Discovery {
    /// The path of the parent resource, if any.
    pub fn parent(&self) -> Option<&str> {
        match self {
            Discovery::Base => None,
            Discovery::Static { parent } | Discovery::JsExecution { parent } => Some(parent),
        }
    }

    /// Whether a server-side static extractor can see this edge.
    pub fn statically_visible(&self) -> bool {
        !matches!(self, Discovery::JsExecution { .. })
    }
}

/// How a resource's content evolves over time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChangeModel {
    /// Content never changes (versioned/fingerprinted assets).
    Immutable,
    /// Content changes every `period`, with a fixed `phase` offset —
    /// a deterministic stand-in for the measured churn of real sites.
    Periodic { period: Duration, phase: Duration },
}

impl ChangeModel {
    /// The content version at absolute site time `t` (seconds).
    pub fn version_at(&self, t_secs: i64) -> u64 {
        match self {
            ChangeModel::Immutable => 0,
            ChangeModel::Periodic { period, phase } => {
                let p = period.as_secs().max(1) as i64;
                let ph = phase.as_secs() as i64;
                ((t_secs + ph).max(0) / p) as u64
            }
        }
    }

    /// The instant the content last changed at or before `t_secs`
    /// (0 when it never has): the start of the version `t_secs` sees.
    pub fn last_change_at(&self, t_secs: i64) -> i64 {
        match self {
            ChangeModel::Immutable => 0,
            ChangeModel::Periodic { period, phase } => {
                let p = period.as_secs().max(1) as i64;
                let ph = phase.as_secs() as i64;
                (self.version_at(t_secs) as i64 * p - ph).max(0)
            }
        }
    }

    /// Whether the content changes in the half-open interval
    /// `(t0, t0+delta]`.
    pub fn changes_within(&self, t0_secs: i64, delta: Duration) -> bool {
        self.version_at(t0_secs) != self.version_at(t0_secs + delta.as_secs() as i64)
    }
}

/// The full static description of one resource on a site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceSpec {
    /// Absolute path on its host, e.g. `/static/app.3.js`.
    pub path: String,
    pub kind: ResourceKind,
    /// Body size in bytes (held constant across versions so that PLT
    /// differences come from protocol behaviour, not payload drift).
    pub size: u64,
    pub discovery: Discovery,
    pub change: ChangeModel,
    /// Hosted on a third-party origin (cross-origin for the page).
    pub third_party: bool,
    /// Cache-busting ("fingerprinted") asset: its URL embeds the
    /// content version (`app.v3.js`), so the path changes whenever the
    /// content does and the response can be served immutable with a
    /// year-long TTL — the modern build-pipeline practice.
    pub fingerprinted: bool,
    /// Statically-linked children (paths) embedded in this resource's
    /// markup, in document order. Only HTML/CSS have these.
    pub static_children: Vec<String>,
    /// Children discovered by executing this resource (JS only).
    pub dynamic_children: Vec<String>,
}

impl ResourceSpec {
    /// A leaf resource with no children.
    pub fn leaf(
        path: &str,
        kind: ResourceKind,
        size: u64,
        discovery: Discovery,
        change: ChangeModel,
    ) -> ResourceSpec {
        ResourceSpec {
            path: path.to_owned(),
            kind,
            size,
            discovery,
            change,
            third_party: false,
            fingerprinted: false,
            static_children: Vec::new(),
            dynamic_children: Vec::new(),
        }
    }

    pub fn version_at(&self, t_secs: i64) -> u64 {
        self.change.version_at(t_secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_from_path() {
        assert_eq!(ResourceKind::from_path("/a/b.css"), ResourceKind::Css);
        assert_eq!(ResourceKind::from_path("/x.min.JS"), ResourceKind::Js);
        assert_eq!(ResourceKind::from_path("/img/p.WebP"), ResourceKind::Image);
        assert_eq!(ResourceKind::from_path("/noext"), ResourceKind::Other);
        assert_eq!(ResourceKind::from_path("/f.woff2"), ResourceKind::Font);
    }

    #[test]
    fn periodic_versions() {
        let m = ChangeModel::Periodic {
            period: Duration::from_secs(3600),
            phase: Duration::ZERO,
        };
        assert_eq!(m.version_at(0), 0);
        assert_eq!(m.version_at(3599), 0);
        assert_eq!(m.version_at(3600), 1);
        assert_eq!(m.version_at(7200), 2);
    }

    #[test]
    fn phase_shifts_boundaries() {
        let m = ChangeModel::Periodic {
            period: Duration::from_secs(100),
            phase: Duration::from_secs(30),
        };
        assert_eq!(m.version_at(0), 0);
        assert_eq!(m.version_at(69), 0);
        assert_eq!(m.version_at(70), 1);
    }

    #[test]
    fn last_change_time_is_consistent_with_versions() {
        let change = ChangeModel::Periodic {
            period: Duration::from_secs(100),
            phase: Duration::from_secs(30),
        };
        for t in [0i64, 69, 70, 170, 1000] {
            let lc = change.last_change_at(t);
            assert!(lc <= t);
            assert_eq!(
                change.version_at(lc),
                change.version_at(t),
                "version at last-change equals version at t={t}"
            );
            if lc > 0 {
                assert_ne!(change.version_at(lc - 1), change.version_at(t));
            }
        }
        assert_eq!(ChangeModel::Immutable.last_change_at(1_000), 0);
    }

    #[test]
    fn immutable_never_changes() {
        let m = ChangeModel::Immutable;
        assert_eq!(m.version_at(0), 0);
        assert_eq!(m.version_at(1_000_000_000), 0);
        assert!(!m.changes_within(0, Duration::from_secs(u32::MAX as u64)));
    }

    #[test]
    fn changes_within_interval() {
        let m = ChangeModel::Periodic {
            period: Duration::from_secs(3600),
            phase: Duration::ZERO,
        };
        assert!(!m.changes_within(0, Duration::from_secs(3599)));
        assert!(m.changes_within(0, Duration::from_secs(3600)));
        assert!(m.changes_within(3599, Duration::from_secs(1)));
        assert!(!m.changes_within(3600, Duration::from_secs(3599)));
    }

    #[test]
    fn discovery_visibility() {
        assert!(Discovery::Base.statically_visible());
        assert!(Discovery::Static {
            parent: "/i.html".into()
        }
        .statically_visible());
        assert!(!Discovery::JsExecution {
            parent: "/b.js".into()
        }
        .statically_visible());
        assert_eq!(
            Discovery::JsExecution {
                parent: "/b.js".into()
            }
            .parent(),
            Some("/b.js")
        );
    }
}

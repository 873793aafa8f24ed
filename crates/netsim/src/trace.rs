//! Timeline traces of simulated fetches, for rendering Figure-1-style
//! waterfalls.

use cachecatalyst_telemetry::FetchOutcome;

use crate::time::SimTime;

/// One row of a page-load waterfall.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FetchTrace {
    /// Resource URL (absolute).
    pub url: String,
    /// When the browser decided it needed the resource.
    pub discovered: SimTime,
    /// When the fetch actually started (after queueing for a
    /// connection). Equal to `discovered` for cache hits.
    pub started: SimTime,
    /// When the resource was fully available.
    pub completed: SimTime,
    pub outcome: FetchOutcome,
    /// Bytes that crossed the network downstream (0 for cache hits).
    pub bytes_down: u64,
    /// Bytes that crossed the network upstream.
    pub bytes_up: u64,
    /// Network round trips this fetch paid (DNS, handshake,
    /// request/response, retransmissions); 0 for local hits.
    pub rtts: u32,
    /// When the request finished uploading (network fetches only);
    /// the `send` → `wait` boundary in HAR terms.
    pub upload_done: Option<SimTime>,
    /// When the first response byte arrived (network fetches only);
    /// the `wait` → `receive` boundary in HAR terms.
    pub response_start: Option<SimTime>,
}

impl FetchTrace {
    /// Wall-clock time from discovery to completion.
    pub fn elapsed(&self) -> std::time::Duration {
        self.completed - self.discovered
    }
}

/// A full page-load trace.
#[derive(Debug, Clone, Default)]
pub struct LoadTrace {
    pub fetches: Vec<FetchTrace>,
}

impl LoadTrace {
    /// Page load time: completion of the last resource (the `onLoad`
    /// moment in the evaluation).
    pub fn plt(&self) -> SimTime {
        self.fetches
            .iter()
            .map(|f| f.completed)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Total bytes transferred downstream.
    pub fn bytes_down(&self) -> u64 {
        self.fetches.iter().map(|f| f.bytes_down).sum()
    }

    /// Total bytes transferred upstream.
    pub fn bytes_up(&self) -> u64 {
        self.fetches.iter().map(|f| f.bytes_up).sum()
    }

    /// Number of request/response round trips that touched the network.
    pub fn network_requests(&self) -> usize {
        self.fetches
            .iter()
            .filter(|f| f.outcome.used_network())
            .count()
    }

    /// Exports the trace as CSV (`url,outcome,discovered_ms,started_ms,
    /// completed_ms,bytes_down,bytes_up,rtts`), ready for any plotting
    /// tool.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "url,outcome,discovered_ms,started_ms,completed_ms,bytes_down,bytes_up,rtts\n",
        );
        for f in &self.fetches {
            out.push_str(&format!(
                "{},{},{:.3},{:.3},{:.3},{},{},{}\n",
                f.url.replace(',', "%2C"),
                f.outcome.tag().trim(),
                f.discovered.as_millis_f64(),
                f.started.as_millis_f64(),
                f.completed.as_millis_f64(),
                f.bytes_down,
                f.bytes_up,
                f.rtts
            ));
        }
        out
    }

    /// Renders an ASCII waterfall, one row per resource, `width`
    /// columns spanning the full load.
    pub fn render_waterfall(&self, width: usize) -> String {
        let plt = self.plt().as_nanos().max(1);
        let mut out = String::new();
        let url_w = self
            .fetches
            .iter()
            .map(|f| f.url.len())
            .max()
            .unwrap_or(0)
            .min(48);
        for f in &self.fetches {
            let s = (f.started.as_nanos() as u128 * width as u128 / plt as u128) as usize;
            let e = (f.completed.as_nanos() as u128 * width as u128 / plt as u128) as usize;
            let e = e.max(s + 1).min(width);
            let mut bar = String::new();
            bar.push_str(&" ".repeat(s));
            bar.push_str(&"█".repeat(e - s));
            let url_short: String = f
                .url
                .chars()
                .rev()
                .take(url_w)
                .collect::<Vec<_>>()
                .into_iter()
                .rev()
                .collect();
            out.push_str(&format!(
                "{:>w$} {} |{}| {:>9.2}ms\n",
                url_short,
                f.outcome.tag(),
                bar,
                f.completed.as_millis_f64(),
                w = url_w
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn trace() -> LoadTrace {
        LoadTrace {
            fetches: vec![
                FetchTrace {
                    url: "http://s/index.html".into(),
                    discovered: t(0),
                    started: t(0),
                    completed: t(50),
                    outcome: FetchOutcome::FullTransfer,
                    bytes_down: 10_000,
                    bytes_up: 200,
                    rtts: 2,
                    upload_done: Some(t(10)),
                    response_start: Some(t(30)),
                },
                FetchTrace {
                    url: "http://s/a.css".into(),
                    discovered: t(50),
                    started: t(50),
                    completed: t(90),
                    outcome: FetchOutcome::NotModified,
                    bytes_down: 120,
                    bytes_up: 230,
                    rtts: 1,
                    upload_done: Some(t(55)),
                    response_start: Some(t(80)),
                },
                FetchTrace {
                    url: "http://s/b.js".into(),
                    discovered: t(50),
                    started: t(50),
                    completed: t(50),
                    outcome: FetchOutcome::ServiceWorkerHit,
                    bytes_down: 0,
                    bytes_up: 0,
                    rtts: 0,
                    upload_done: None,
                    response_start: None,
                },
            ],
        }
    }

    #[test]
    fn plt_is_last_completion() {
        assert_eq!(trace().plt(), t(90));
        assert_eq!(LoadTrace::default().plt(), SimTime::ZERO);
    }

    #[test]
    fn byte_accounting() {
        let tr = trace();
        assert_eq!(tr.bytes_down(), 10_120);
        assert_eq!(tr.bytes_up(), 430);
        assert_eq!(tr.network_requests(), 2);
    }

    #[test]
    fn outcome_network_classification() {
        assert!(FetchOutcome::FullTransfer.used_network());
        assert!(FetchOutcome::NotModified.used_network());
        assert!(!FetchOutcome::CacheHit.used_network());
        assert!(!FetchOutcome::ServiceWorkerHit.used_network());
    }

    #[test]
    fn csv_export_has_header_and_rows() {
        let csv = trace().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("url,outcome"));
        assert!(lines[1].contains("index.html"));
        // Every row has exactly 8 fields.
        for l in &lines {
            assert_eq!(l.split(',').count(), 8, "{l}");
        }
    }

    #[test]
    fn waterfall_renders_every_fetch() {
        let rendered = trace().render_waterfall(40);
        assert_eq!(rendered.lines().count(), 3);
        assert!(rendered.contains("index.html"));
        assert!(rendered.contains("304"));
        assert!(rendered.contains("sw"));
    }
}

//! The observability sinks a client reports into.
//!
//! Wiring telemetry through a topology means handing the same two
//! sinks to whichever client sits at each position: a [`Browser`]
//! (via [`Browser::with_options`](crate::Browser::with_options)), the
//! live loader, or the edge tier, which drives clients of its own
//! (`EdgeBuilder::client_options`). [`ClientOptions`] is that pair.
//! Both fields are optional; an empty `ClientOptions::new()` changes
//! nothing. Everything else about a client — cache mode, fault plan,
//! retry policy, timeouts — is a field of
//! [`EngineConfig`](crate::EngineConfig).
//!
//! [`Browser`]: crate::Browser

use std::sync::Arc;

use cachecatalyst_telemetry::span::SpanSink;
use cachecatalyst_telemetry::Recorder;

/// Shared observability configuration for all clients.
///
/// ```
/// use cachecatalyst_browser::{Browser, ClientOptions};
/// use cachecatalyst_telemetry::MemoryRecorder;
/// use std::sync::Arc;
///
/// let recorder = Arc::new(MemoryRecorder::new());
/// let opts = ClientOptions::new().recorder(recorder.clone());
/// let browser = Browser::catalyst().with_options(&opts);
/// ```
#[derive(Clone, Default)]
pub struct ClientOptions {
    /// Event sink for page-load traces and cache-decision audits.
    pub recorder: Option<Arc<dyn Recorder>>,
    /// Span sink for sampled distributed traces.
    pub spans: Option<Arc<SpanSink>>,
}

impl ClientOptions {
    /// Empty options: applying them changes nothing.
    pub fn new() -> ClientOptions {
        ClientOptions::default()
    }

    /// Attach an event sink; loads emit page-load traces through it.
    pub fn recorder(mut self, recorder: Arc<dyn Recorder>) -> ClientOptions {
        self.recorder = Some(recorder);
        self
    }

    /// Attach a span sink; sampled loads record distributed traces.
    pub fn span_sink(mut self, spans: Arc<SpanSink>) -> ClientOptions {
        self.spans = Some(spans);
        self
    }
}

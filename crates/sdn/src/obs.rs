//! A trace sink slot for this crate's `derive(Debug)` structs.

/// Optional trace sink slot embeddable in `derive(Clone, Debug)` structs
/// (trait objects have no `Debug`; this prints only whether it is set).
#[derive(Clone, Default)]
pub(crate) struct TraceHandle(pub(crate) Option<std::sync::Arc<dyn taps_obs::TraceSink>>);

impl TraceHandle {
    /// Mirrors `Option::as_deref` so `obs_event!` works on handles and
    /// plain options alike.
    pub(crate) fn as_deref(&self) -> Option<&dyn taps_obs::TraceSink> {
        self.0.as_deref()
    }
}

impl std::fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TraceHandle(set: {})", self.0.is_some())
    }
}

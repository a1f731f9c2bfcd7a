//! Benchmark harness support. The bench targets in `benches/` are
//! standalone binaries; this crate holds the few helpers they share.

/// Installs a JSONL telemetry sink when `UAE_TELEMETRY` names a path, so any
/// bench target can record structured spans/counters alongside its printed
/// report. No-op when the variable is unset. Call [`flush_telemetry`] before
/// the target exits so buffered events reach the file.
pub fn init_telemetry(run: &str) {
    let Ok(path) = std::env::var("UAE_TELEMETRY") else {
        return;
    };
    if path.trim().is_empty() {
        return;
    }
    let manifest = uae_obs::Manifest {
        run: run.to_string(),
        version: uae_obs::version_string(),
        seed: 0,
        threads: uae_tensor::num_threads() as u64,
        kernel_mode: format!("{:?}", uae_tensor::kernel_mode()),
        config: vec![("bench".into(), run.to_string())],
    };
    if let Err(e) = uae_obs::install_jsonl(std::path::Path::new(&path), manifest) {
        eprintln!("telemetry disabled: {e}");
    }
}

/// Flushes any installed telemetry sink (global statics never drop, so the
/// final buffered lines are lost without this).
pub fn flush_telemetry() {
    uae_obs::flush();
}

//! Layer `service::messages` — the JSONL codec, timed over the run's
//! actual requests and the decisions rung R1 produced for them.

use std::time::Instant;

use taps_service::{decode_line, encode_line, Request, Response};

use super::Metrics;

/// Encodes and decodes every message once; returns the metrics, the
/// encoded request and response lines (the socket probe reuses them)
/// and any round-trip mismatch.
pub fn probe(
    requests: &[Request],
    responses: &[Response],
) -> (Metrics, Vec<String>, Vec<String>, Vec<String>) {
    let mut violations = Vec::new();
    let per_msg_us = |t: Instant, n: usize| t.elapsed().as_secs_f64() * 1e6 / n.max(1) as f64;

    let t = Instant::now();
    let req_lines: Vec<String> = requests.iter().map(encode_line).collect();
    let encode_submit_us = per_msg_us(t, requests.len());
    let t = Instant::now();
    let decoded: Vec<_> = req_lines
        .iter()
        .map(|l| decode_line::<Request>(l.trim_end()))
        .collect();
    let decode_submit_us = per_msg_us(t, requests.len());
    for (want, got) in requests.iter().zip(&decoded) {
        if got.as_ref().ok() != Some(want) {
            violations.push(format!("request does not survive the codec: {want:?}"));
        }
    }

    let t = Instant::now();
    let resp_lines: Vec<String> = responses.iter().map(encode_line).collect();
    let encode_decision_us = per_msg_us(t, responses.len());
    let t = Instant::now();
    let decoded: Vec<_> = resp_lines
        .iter()
        .map(|l| decode_line::<Response>(l.trim_end()))
        .collect();
    let decode_decision_us = per_msg_us(t, responses.len());
    for (want, got) in responses.iter().zip(&decoded) {
        if got.as_ref().ok() != Some(want) {
            violations.push(format!("response does not survive the codec: {want:?}"));
        }
    }

    let mean_len = |lines: &[String]| {
        lines.iter().map(String::len).sum::<usize>() as f64 / lines.len().max(1) as f64
    };
    let metrics = vec![
        ("codec.encode_submit_us", encode_submit_us),
        ("codec.decode_submit_us", decode_submit_us),
        ("codec.encode_decision_us", encode_decision_us),
        ("codec.decode_decision_us", decode_decision_us),
        ("codec.submit_bytes", mean_len(&req_lines)),
        ("codec.decision_bytes", mean_len(&resp_lines)),
    ];
    violations.truncate(5);
    (metrics, req_lines, resp_lines, violations)
}

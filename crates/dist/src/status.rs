//! The status-probe clients: one connection, one request frame, one
//! reply back, over the same exchange as [`crate::client`].
//! [`fetch_status`] speaks the `status_request` flow and returns a
//! [`MetricsReport`]; [`fetch_dump`] speaks the `debug_dump` flow and
//! returns the daemon's flight-recorder ring (`sfence-dist status` /
//! `sfence-dist dump` are thin wrappers).

use crate::client::{open, refused};
use crate::protocol::Msg;
use sfence_harness::json::FromJson;
use sfence_obs::log::Event;
use sfence_obs::MetricsReport;
use std::time::Duration;

/// Connect to the coordinator at `addr` and fetch its live service
/// snapshot. `timeout` bounds both the connect and the read, so a
/// probe against a hung coordinator fails instead of blocking a
/// monitoring loop. `token` must match the daemon's shared secret
/// when one is configured.
pub fn fetch_status(
    addr: &str,
    timeout: Duration,
    token: Option<&str>,
) -> Result<MetricsReport, String> {
    let opening = Msg::StatusRequest {
        token: token.map(str::to_string),
    };
    match open(addr, timeout, &opening)?.next_msg() {
        Ok(Some(Msg::Status { metrics })) => MetricsReport::from_json(&metrics),
        reply => Err(refused(reply, timeout)),
    }
}

/// Connect to the coordinator at `addr` and fetch its flight
/// recorder: the bounded ring of recent lifecycle events, plus how
/// many older events the ring has already dropped. Same timeout and
/// token semantics as [`fetch_status`].
pub fn fetch_dump(
    addr: &str,
    timeout: Duration,
    token: Option<&str>,
) -> Result<(Vec<Event>, u64), String> {
    let opening = Msg::DumpRequest {
        token: token.map(str::to_string),
    };
    match open(addr, timeout, &opening)?.next_msg() {
        Ok(Some(Msg::DumpReply { events, dropped })) => Ok((Vec::from_json(&events)?, dropped)),
        reply => Err(refused(reply, timeout)),
    }
}

/// The per-campaign breakdown at the top of `sfence-dist status`:
/// one row per campaign id found in the report's labels. A daemon
/// with zero campaigns says so explicitly rather than printing an
/// empty table.
pub fn render_campaign_table(report: &MetricsReport) -> String {
    use sfence_obs::MetricValue;
    let campaigns = report.label_values("campaign");
    if campaigns.is_empty() {
        return "no active campaigns\n\n".to_string();
    }
    let gauge = |name: &str, id: &str| -> f64 {
        match report.get(name, &[("campaign", id)]).map(|m| &m.value) {
            Some(MetricValue::Gauge(g)) => *g,
            _ => 0.0,
        }
    };
    // `campaign_info` carries the experiment name as a second label;
    // find the series by scanning rather than by exact label match.
    let experiment = |id: &str| -> &str {
        report
            .metrics
            .iter()
            .find(|m| {
                m.name == "campaign_info"
                    && m.labels.iter().any(|(k, v)| k == "campaign" && v == id)
            })
            .and_then(|m| {
                m.labels
                    .iter()
                    .find(|(k, _)| k == "experiment")
                    .map(|(_, v)| v.as_str())
            })
            .unwrap_or("?")
    };
    let mut out = String::new();
    out.push_str(&format!(
        "{:<8} {:<20} {:>8} {:>7} {:>8} {:>7} {:>9} {:>10}\n",
        "campaign", "experiment", "priority", "done", "pending", "leased", "state", "cells/s"
    ));
    for id in campaigns {
        let complete = gauge("campaign_complete", id) > 0.0;
        out.push_str(&format!(
            "{:<8} {:<20} {:>8} {:>7} {:>8} {:>7} {:>9} {:>10.1}\n",
            id,
            experiment(id),
            gauge("campaign_priority", id) as u64,
            gauge("campaign_done", id) as u64,
            gauge("campaign_pending", id) as u64,
            gauge("campaign_leased", id) as u64,
            if complete { "complete" } else { "running" },
            gauge("campaign_cells_per_sec", id),
        ));
    }
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfence_obs::Registry;

    #[test]
    fn empty_report_says_no_active_campaigns() {
        let reg = Registry::new();
        let report = reg.snapshot("coordinator");
        assert_eq!(render_campaign_table(&report), "no active campaigns\n\n");
    }

    #[test]
    fn campaign_rows_render_from_labeled_gauges() {
        let mut reg = Registry::new();
        let labels = [("campaign", "c1")];
        reg.gauge(
            "campaign_info",
            &[("campaign", "c1"), ("experiment", "fig13")],
            1.0,
        );
        reg.gauge("campaign_priority", &labels, 2.0);
        reg.gauge("campaign_done", &labels, 3.0);
        reg.gauge("campaign_pending", &labels, 4.0);
        reg.gauge("campaign_leased", &labels, 1.0);
        reg.gauge("campaign_complete", &labels, 0.0);
        reg.gauge("campaign_cells_per_sec", &labels, 1.5);
        let table = render_campaign_table(&reg.snapshot("coordinator"));
        assert!(table.starts_with("campaign"), "{table}");
        assert!(table.contains("c1"), "{table}");
        assert!(table.contains("fig13"), "{table}");
        assert!(table.contains("running"), "{table}");
        assert!(!table.contains("no active campaigns"), "{table}");
    }
}

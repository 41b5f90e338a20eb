//! Figure 18: DCQCN with a PI controller at the switch.
//!
//! "All the flows converge to the same (fair) rate and the queue length is
//! stabilized to a preconfigured value, regardless of the number of flows
//! (as well as regardless of propagation delay)."

use crate::experiments::Series;
use models::dcqcn::DcqcnParams;
use models::pi::DcqcnPiFluid;

/// Configuration.
#[derive(Debug, Clone)]
pub struct Fig18Config {
    /// Flow counts.
    pub flow_counts: Vec<usize>,
    /// Queue reference (KB).
    pub q_ref_kb: f64,
    /// Duration (seconds).
    pub duration_s: f64,
}

impl Default for Fig18Config {
    fn default() -> Self {
        Fig18Config {
            flow_counts: vec![2, 10, 64],
            q_ref_kb: 100.0,
            duration_s: 0.4,
        }
    }
}

/// One flow-count panel.
#[derive(Debug, Clone)]
pub struct Fig18Panel {
    /// Flow count.
    pub n_flows: usize,
    /// Queue (KB) over time.
    pub queue_kb: Series,
    /// Flow-0 rate (Gbps) over time.
    pub rate_gbps: Series,
    /// Tail queue mean (KB).
    pub tail_queue_kb: f64,
    /// Worst relative deviation of any flow from fair share, over the tail.
    pub worst_rate_error: f64,
}

/// Result.
#[derive(Debug, Clone)]
pub struct Fig18Result {
    /// Panels.
    pub panels: Vec<Fig18Panel>,
    /// The reference (KB).
    pub q_ref_kb: f64,
}

/// Run.
pub fn run(cfg: &Fig18Config) -> Fig18Result {
    let params = DcqcnParams::default_40g();
    let gains = DcqcnPiFluid::default_gains(&params, cfg.q_ref_kb);
    // The panels are independent integrations: run them as parallel jobs
    // with ordered results.
    let panels = desim::par::par_map(cfg.flow_counts.clone(), |n| {
        let mut m = DcqcnPiFluid::new(params.clone(), gains.clone(), n);
        let tr = m.simulate(cfg.duration_s);
        let from = cfg.duration_s * 0.75;
        let fair = m.params.capacity_pps() / n as f64;
        let worst = (0..n)
            .map(|i| ((tr.mean_from(m.rc_index(i), from) - fair) / fair).abs())
            .fold(0.0, f64::max);
        let q_kb: Series = tr
            .series(0)
            .into_iter()
            .map(|(t, pkts)| (t, models::units::pkts_to_kb(pkts, m.params.packet_bytes)))
            .collect();
        let rate: Series = tr
            .series(m.rc_index(0))
            .into_iter()
            .map(|(t, pps)| (t, models::units::pps_to_gbps(pps, m.params.packet_bytes)))
            .collect();
        let tail_q = q_kb
            .iter()
            .filter(|&&(t, _)| t >= from)
            .map(|&(_, v)| v)
            .sum::<f64>()
            / q_kb.iter().filter(|&&(t, _)| t >= from).count().max(1) as f64;
        Fig18Panel {
            n_flows: n,
            queue_kb: q_kb,
            rate_gbps: rate,
            tail_queue_kb: tail_q,
            worst_rate_error: worst,
        }
    });
    Fig18Result {
        panels,
        q_ref_kb: cfg.q_ref_kb,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_pinned_and_fair_for_all_n() {
        // The PI promise: q → q_ref independent of N, rates fair.
        let res = run(&Fig18Config {
            flow_counts: vec![2, 10],
            q_ref_kb: 100.0,
            duration_s: 0.35,
        });
        for p in &res.panels {
            assert!(
                (p.tail_queue_kb - 100.0).abs() / 100.0 < 0.15,
                "N={}: queue {:.1} KB vs 100 KB",
                p.n_flows,
                p.tail_queue_kb
            );
            assert!(
                p.worst_rate_error < 0.1,
                "N={}: worst rate error {:.3}",
                p.n_flows,
                p.worst_rate_error
            );
        }
        // Same queue for different N — the contrast with Eq 14 where q*
        // grows with N.
        let dq = (res.panels[0].tail_queue_kb - res.panels[1].tail_queue_kb).abs();
        assert!(dq < 15.0, "queues should coincide across N: Δ={dq:.1} KB");
    }
}

crate::impl_to_json!(Fig18Config {
    flow_counts,
    q_ref_kb,
    duration_s
});
crate::impl_to_json!(Fig18Panel {
    n_flows,
    queue_kb,
    rate_gbps,
    tail_queue_kb,
    worst_rate_error
});
crate::impl_to_json!(Fig18Result { panels, q_ref_kb });

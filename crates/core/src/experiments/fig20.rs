//! Figure 20: protocol stability under random feedback-delay jitter.
//!
//! "We inject uniform random jitter to the feedback delay of DCQCN (τ*)
//! and TIMELY (τ′) models. With jitter of \[0,100µs\], TIMELY becomes
//! unstable compared to the same scenario without the jitter. In contrast,
//! the same level of jitter does not impact DCQCN stability." The reason
//! (§5.2): jitter only *delays* the ECN feedback, but it delays *and
//! corrupts* a delay-based feedback signal.
//!
//! We use Patched TIMELY (as in Figure 12a, the paper's jitter baseline is
//! the patched, convergent variant) and compare queue oscillation with and
//! without jitter for both protocols.

use crate::experiments::Series;
use models::dcqcn::{DcqcnFluid, DcqcnParams};
use models::jitter::Jitter;
use models::patched_timely::{PatchedTimelyFluid, PatchedTimelyParams};

/// Configuration.
#[derive(Debug, Clone)]
pub struct Fig20Config {
    /// Jitter amplitude (µs); the paper uses 100.
    pub jitter_us: f64,
    /// Jitter resampling window (µs).
    pub jitter_window_us: f64,
    /// Flows.
    pub n_flows: usize,
    /// Duration (seconds).
    pub duration_s: f64,
    /// Jitter seed.
    pub seed: u64,
}

impl Default for Fig20Config {
    fn default() -> Self {
        Fig20Config {
            jitter_us: 100.0,
            jitter_window_us: 20.0,
            n_flows: 2,
            duration_s: 0.4,
            seed: 7,
        }
    }
}

/// One protocol's jitter contrast.
#[derive(Debug, Clone)]
pub struct JitterPanel {
    /// Protocol label.
    pub protocol: String,
    /// Queue (KB) without jitter.
    pub queue_clean_kb: Series,
    /// Queue (KB) with jitter.
    pub queue_jitter_kb: Series,
    /// Normalized queue oscillation (clean, jittered).
    pub oscillation: (f64, f64),
}

/// Result.
#[derive(Debug, Clone)]
pub struct Fig20Result {
    /// DCQCN and (patched) TIMELY panels.
    pub panels: Vec<JitterPanel>,
}

/// Run both protocols with and without jitter.
pub fn run(cfg: &Fig20Config) -> Fig20Result {
    let jitter = Jitter::uniform(cfg.jitter_us * 1e-6, cfg.jitter_window_us * 1e-6, cfg.seed);
    let tail = cfg.duration_s * 0.6;
    let dcqcn = DcqcnParams::default_40g();
    let patched = PatchedTimelyParams::default_10g();

    // The four integrations — each protocol clean and jittered — are
    // independent (jitter is a pure function of seed and time): run them
    // as parallel jobs with ordered results. Each yields its queue series
    // (KB) and tail peak-to-peak queue (packets).
    let jobs = vec![
        (true, None),
        (true, Some(jitter.clone())),
        (false, None),
        (false, Some(jitter)),
    ];
    let mut runs = desim::par::par_map(jobs, |(is_dcqcn, jitter): (bool, Option<Jitter>)| {
        if is_dcqcn {
            let mut m = DcqcnFluid::new(dcqcn.clone(), cfg.n_flows);
            if let Some(j) = jitter {
                m = m.with_jitter(j);
            }
            let tr = m.simulate(cfg.duration_s);
            (m.queue_kb(&tr), tr.peak_to_peak_from(0, tail))
        } else {
            let mut m = PatchedTimelyFluid::new(patched.clone(), cfg.n_flows);
            if let Some(j) = jitter {
                m = m.with_jitter(j);
            }
            let tr = m.simulate(cfg.duration_s);
            (m.queue_kb(&tr), tr.peak_to_peak_from(0, tail))
        }
    })
    .into_iter();
    let mut panel = |protocol: &str, q_star_pkts: f64| {
        let (queue_clean_kb, p2p_clean) = runs.next().unwrap_or_default();
        let (queue_jitter_kb, p2p_jitter) = runs.next().unwrap_or_default();
        JitterPanel {
            protocol: protocol.into(),
            oscillation: (
                p2p_clean / q_star_pkts.max(1.0),
                p2p_jitter / q_star_pkts.max(1.0),
            ),
            queue_clean_kb,
            queue_jitter_kb,
        }
    };
    let q_star_dcqcn = DcqcnFluid::new(dcqcn.clone(), cfg.n_flows)
        .fixed_point()
        .q_star_pkts;
    // Patched TIMELY is the convergent baseline of Fig 12a.
    let panels = vec![
        panel("DCQCN", q_star_dcqcn),
        panel("PatchedTIMELY", patched.q_star_pkts(cfg.n_flows)),
    ];
    Fig20Result { panels }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dcqcn_resilient_timely_degraded() {
        let res = run(&Fig20Config {
            duration_s: 0.3,
            ..Default::default()
        });
        let dcqcn = &res.panels[0];
        let timely = &res.panels[1];
        let dcqcn_blowup = dcqcn.oscillation.1 / dcqcn.oscillation.0.max(0.02);
        let timely_blowup = timely.oscillation.1 / timely.oscillation.0.max(0.02);
        assert!(
            timely_blowup > 2.0 * dcqcn_blowup,
            "jitter must hurt the delay-based protocol more: \
             DCQCN ×{dcqcn_blowup:.2}, TIMELY ×{timely_blowup:.2}"
        );
        // DCQCN stays stable in absolute terms too.
        assert!(
            dcqcn.oscillation.1 < 1.0,
            "DCQCN with jitter should remain stable: {:.2}",
            dcqcn.oscillation.1
        );
    }
}

crate::impl_to_json!(Fig20Config {
    jitter_us,
    jitter_window_us,
    n_flows,
    duration_s,
    seed
});
crate::impl_to_json!(JitterPanel {
    protocol,
    queue_clean_kb,
    queue_jitter_kb,
    oscillation
});
crate::impl_to_json!(Fig20Result { panels });

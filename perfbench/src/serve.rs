//! The `serve` workload: `ServeEngine` on the protected `resnet` deployment,
//! paced well below capacity and in a burst with a fixed window of
//! outstanding requests. It is the only workload where requests cross
//! threads.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use tbnet_core::serve::{Outcome, ServeConfig, ServeEngine, ServeReport};
use tbnet_core::TwoBranchModel;
use tbnet_tee::FaultPlan;
use tbnet_tensor::par;

use crate::infer::{self, Prepared, TOLERANCE};
use crate::layers;
use crate::stats::{fast, median, print_setups, quantile, secs, Metrics, RunResult};
use crate::zoo::{self, Deployed, Zoo, TRAIN_THREADS};

/// Paced arrivals per second: batches stay near 1.
pub const RATE: f64 = 300.0;
/// Outstanding requests in the burst: batches fill.
pub const WINDOW: usize = 32;
/// Paced and burst segments alternate this many times in a run, so both
/// phases sample the whole run rather than one half of it each.
const SEGMENTS: usize = 4;
/// Requests per latency window of the paced phase.
const LATENCY_WINDOW: usize = 100;
/// Answers per throughput window of the burst phase.
const RATE_WINDOW: usize = 256;
/// Kernel threads while serving: the REE worker and the TEE consumer are
/// the two busy threads.
pub const SERVE_THREADS: usize = 1;
/// The deployment served: `resnet`.
pub const SERVED: usize = 0;

pub const THREADS: &str = "serve: set-up training 2, serving kernels 1 (REE worker + TEE consumer)";

/// `ServeConfig::default()` with the changes a healthy, steady run needs.
pub fn config() -> ServeConfig {
    ServeConfig {
        // A short linger, as in `bin/serve`: paced requests at 300/s would
        // otherwise wait out most of the default 2 ms for a batch that does
        // not fill.
        batch_linger: Duration::from_micros(500),
        // No request may be shed or expire on a healthy run: the admission
        // queue and the deadline are far beyond what the burst window and a
        // slow host episode can reach.
        queue_high_water: 4096,
        default_deadline: Duration::from_secs(60),
        // Shutdown waits as long as a request may live before it
        // force-expires what is left.
        drain_timeout: Duration::from_secs(60),
        ..ServeConfig::default()
    }
}

pub fn start(model: &TwoBranchModel) -> Result<ServeEngine, String> {
    ServeEngine::start(model, config(), FaultPlan::none()).map_err(|e| e.to_string())
}

/// One submitted request.
struct Sent {
    id: u64,
    image: usize,
    /// When the open-loop generator meant to send it (the submit time in a
    /// burst).
    due: Instant,
    submitted: Instant,
    submit_s: f64,
}

/// The requests of one segment of load.
struct Segment {
    paced: bool,
    start: Instant,
    sent: Vec<Sent>,
}

/// Paced (`Some(rate)`) or windowed burst (`None`) load for `seconds`.
fn drive(
    engine: &ServeEngine,
    prepared: &Prepared,
    rate: Option<f64>,
    seconds: f64,
) -> Result<Segment, String> {
    let n = prepared.singles.len();
    let mut sent = Vec::new();
    let start = Instant::now();
    while secs(start) < seconds {
        let k = sent.len();
        let due = match rate {
            Some(r) => {
                let due = start + Duration::from_secs_f64(k as f64 / r);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                due
            }
            None => {
                // Poll slowly enough to leave both cores to the REE worker
                // and the TEE consumer; a window drains by about one answer
                // per poll.
                while engine.in_flight() >= WINDOW {
                    std::thread::sleep(Duration::from_micros(500));
                }
                Instant::now()
            }
        };
        let image = k % n;
        let t = Instant::now();
        let id = engine
            .submit(&prepared.singles[image])
            .map_err(|e| e.to_string())?;
        sent.push(Sent {
            id,
            image,
            due,
            submitted: t,
            submit_s: secs(t),
        });
    }
    // Let the segment drain so the next one starts from an idle engine; the
    // shutdown drain still force-expires anything stuck.
    let drained = Instant::now();
    while engine.in_flight() > 0 && secs(drained) < 10.0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok(Segment {
        paced: rate.is_some(),
        start,
        sent,
    })
}

/// What the paced or the burst segments of a session measured.
#[derive(Default)]
pub struct Phase {
    /// Per answered request: latency from its due time, in ms.
    pub latency_ms: Vec<f64>,
    /// Medians of consecutive windows of [`LATENCY_WINDOW`] requests.
    pub window_medians: Vec<f64>,
    /// Answers per second over consecutive windows of [`RATE_WINDOW`]
    /// completions.
    pub window_rates: Vec<f64>,
    pub submit_us: Vec<f64>,
    pub lag_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub max_gap: f64,
}

pub struct Session {
    pub paced: Phase,
    pub burst: Phase,
    pub report: ServeReport,
    /// Every submitted id ended in exactly one outcome, and no outcome
    /// belongs to an id that was not submitted.
    pub accounted: bool,
}

/// Runs one segment of `seconds` per entry of `plan` (paced at `Some(rate)`,
/// burst at `None`) on `engine`, shuts it down and checks every outcome.
pub fn session(
    engine: ServeEngine,
    prepared: &Prepared,
    plan: &[Option<f64>],
    seconds: f64,
) -> Result<Session, String> {
    let segments = plan
        .iter()
        .map(|&rate| drive(&engine, prepared, rate, seconds))
        .collect::<Result<Vec<_>, _>>()?;
    let report = engine.shutdown();

    let submitted: usize = segments.iter().map(|s| s.sent.len()).sum();
    let mut outcomes: HashMap<u64, &Outcome> = HashMap::new();
    let mut accounted = report.completions.len() == submitted;
    for c in &report.completions {
        accounted &= outcomes.insert(c.id, &c.outcome).is_none();
    }
    let mut paced = Phase::default();
    let mut burst = Phase::default();
    for seg in &segments {
        let p = if seg.paced { &mut paced } else { &mut burst };
        let mut latency = Vec::new();
        let mut done_s = Vec::new();
        for s in &seg.sent {
            p.attempted += 1;
            p.submit_us.push(s.submit_s * 1e6);
            p.lag_ms.push((s.submitted - s.due).as_secs_f64() * 1e3);
            match outcomes.get(&s.id) {
                Some(Outcome::Answered {
                    logits, latency_ms, ..
                }) => {
                    let gap = prepared.gap(logits, &[s.image]);
                    p.max_gap = p.max_gap.max(gap);
                    p.failed += u64::from(gap.is_nan() || gap > TOLERANCE);
                    latency.push((s.submitted - s.due).as_secs_f64() * 1e3 + latency_ms);
                    done_s.push((s.submitted - seg.start).as_secs_f64() + latency_ms / 1e3);
                }
                Some(_) => p.failed += 1,
                None => accounted = false,
            }
        }
        done_s.sort_by(f64::total_cmp);
        p.window_medians
            .extend(latency.chunks_exact(LATENCY_WINDOW).map(median));
        p.window_rates.extend(
            done_s
                .chunks_exact(RATE_WINDOW)
                .map(|w| (w.len() - 1) as f64 / (w[w.len() - 1] - w[0])),
        );
        p.latency_ms.extend(latency);
    }
    Ok(Session {
        paced,
        burst,
        report,
        accounted,
    })
}

/// The paced latency figure: [`fast`] over the window medians.
pub fn paced_ms(p: &Phase) -> f64 {
    fast(&p.window_medians)
}

/// The burst throughput figure: the fast end of the window rates (their
/// 90th percentile is the 10th of the times per answer).
pub fn burst_per_s(p: &Phase) -> f64 {
    quantile(&p.window_rates, 0.9)
}

pub fn line(label: &str, p: &Phase, report: &ServeReport) -> String {
    let c = &report.counts;
    format!(
        "serve {label}: {} requests | engine totals: answered {} degraded {} shed {} expired {} \
         mean batch {:.2} overlap {:.3} | median latency {:.4} ms p99 {:.4} ms | max gap to \
         oracle {:.2e}",
        p.attempted,
        c.answered,
        c.degraded,
        c.shed,
        c.expired,
        report.mean_batch,
        report.measured_overlap,
        median(&p.latency_ms),
        quantile(&p.latency_ms, 0.99),
        p.max_gap,
    )
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<RunResult, String> {
    // Set-up is the data set, training the served deployment and starting
    // the engine. Only a traced run trains the rest of the zoo, which its
    // layer profile reads.
    let mut setups = Vec::new();
    let mut last: Option<(Zoo, Deployed, ServeEngine)> = None;
    for _ in 0..if trace { 1 } else { infer::SETUPS } {
        if let Some((_, _, engine)) = last.take() {
            engine.shutdown();
        }
        par::set_max_threads(TRAIN_THREADS);
        let t = Instant::now();
        let zoo = Zoo::generate(seed);
        let deployed = zoo::deploy(&zoo, SERVED)?;
        par::set_max_threads(SERVE_THREADS);
        let engine = start(&deployed.model)?;
        setups.push(secs(t));
        last = Some((zoo, deployed, engine));
    }
    print_setups(&setups);
    let (zoo, served, engine) = last.expect("at least one set-up");
    let model = &served.model;
    let prepared = infer::prepare(&zoo, model)?;

    let measured = if trace { seconds / 2.0 } else { seconds };
    let plan: Vec<Option<f64>> = (0..SEGMENTS).flat_map(|_| [Some(RATE), None]).collect();
    let s = session(engine, &prepared, &plan, measured / plan.len() as f64)?;
    println!("{}", line("paced", &s.paced, &s.report));
    println!("{}", line("burst", &s.burst, &s.report));
    if s.paced.window_medians.is_empty() || s.burst.window_rates.is_empty() {
        return Err(format!(
            "{seconds} s is too short to fill a {LATENCY_WINDOW}-request latency window and a \
             {RATE_WINDOW}-answer rate window"
        ));
    }
    let latency_ms = paced_ms(&s.paced);
    let per_s = burst_per_s(&s.burst);
    println!(
        "serve: paced latency {latency_ms:.4} ms | burst {per_s:.1} answers/s | accounted {}",
        s.accounted
    );

    let mut correct = s.accounted;
    let metrics = if trace {
        par::set_max_threads(TRAIN_THREADS);
        let deployed = zoo::deploy_all(&zoo)?;
        let models: Vec<TwoBranchModel> = deployed.iter().map(|d| d.model.clone()).collect();
        let references = deployed
            .iter()
            .map(Deployed::outcome)
            .collect::<Result<Vec<_>, _>>()?;
        let profile = layers::profile(&zoo, &models, &references)?;
        correct &= profile.correct;
        profile.report_serve(latency_ms);
        profile.metrics
    } else {
        let mut m = Metrics::default();
        m.push("setup_s", median(&setups), "s");
        m.push("latency_ms", latency_ms, "ms");
        m.push("images_per_s", per_s, "1/s");
        m.push("secure_mb", zoo::secure_bytes(model)? as f64 / 1e6, "MB");
        m
    };
    Ok(RunResult {
        correct,
        attempted: s.paced.attempted + s.burst.attempted,
        failed: s.paced.failed + s.burst.failed,
        metrics,
    })
}

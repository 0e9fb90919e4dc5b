//! The traced run's per-layer profile. The benchmark times calls into each
//! layer's public functions from its own code, and reads the public report
//! structs where a layer runs on the program's own threads. Every traced run
//! prints the whole profile, whatever its workload; the workload decides
//! which end-to-end figure the overhead and unattributed lines compare with.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use tbnet_core::deploy::{run_split_inference, DeploymentPlan};
use tbnet_core::{gather_channels, DataParallelTrainer, TwoBranchModel};
use tbnet_models::{ChainNet, QuantBranch, UnitSpec};
use tbnet_nn::optim::Sgd;
use tbnet_tee::channel::one_way_bounded;
use tbnet_tee::CostModel;
use tbnet_tensor::ops::PackedConv2dWeight;
use tbnet_tensor::{arena, init, par, BackendKind, Tensor};

use crate::host::allocated_bytes;
use crate::infer::{self, BATCH};
use crate::serve::{self, RATE, SERVED, SERVE_THREADS};
use crate::stats::{fast, median, quantile, secs, timed, Metrics};
use crate::zoo::{self, Outcome, PhaseTimes, Zoo, FAMILIES, IMAGE_HW, TRAIN_THREADS, WIDTHS};

/// Conv geometry classes of the zoo, one per dispatch path.
pub const GEOMS: [&str; 5] = ["3x3s1", "3x3s2", "5x5s1", "dw3x3", "1x1"];

/// Seconds of paced and of burst load in the profile's serve session.
const SERVE_PHASE_S: f64 = 2.0;
/// Wall budget of each conv entry point's timing loop.
const CONV_BUDGET_S: f64 = 0.2;

type Res<T> = Result<T, String>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The index in [`GEOMS`] of a unit's conv geometry.
fn geometry(spec: &UnitSpec) -> Res<usize> {
    match (spec.depthwise, spec.kernel, spec.stride) {
        (false, 3, 1) => Ok(0),
        (false, 3, 2) => Ok(1),
        (false, 5, 1) => Ok(2),
        (true, 3, 1) => Ok(3),
        (false, 1, 1) => Ok(4),
        other => Err(format!("unit geometry {other:?} has no class")),
    }
}

pub struct Profile {
    /// Every check of the profile held.
    pub correct: bool,
    pub metrics: Metrics,
    phases: PhaseTimes,
    phased_ms: f64,
    split_ms: f64,
    split_unattributed_ms: f64,
    unit_b32_ms: f64,
    mt_unit_b32_ms: f64,
    qunit_b32_ms: f64,
    int8_round_ms: f64,
    serve_ms: f64,
    serve_stages_ms: f64,
}

/// Runs every layer's measurements on the workload's zoo and deployments.
/// `reference` holds what the workload's own `run_pipeline` produced for
/// each family; the phase-by-phase protect job must reproduce it exactly.
pub fn profile(zoo: &Zoo, models: &[TwoBranchModel], reference: &[Outcome]) -> Res<Profile> {
    let mut p = Profile {
        correct: true,
        metrics: Metrics::default(),
        phases: PhaseTimes::default(),
        phased_ms: 0.0,
        split_ms: 0.0,
        split_unattributed_ms: 0.0,
        unit_b32_ms: 0.0,
        mt_unit_b32_ms: 0.0,
        qunit_b32_ms: 0.0,
        int8_round_ms: 0.0,
        serve_ms: 0.0,
        serve_stages_ms: 0.0,
    };
    par::set_max_threads(TRAIN_THREADS);
    p.protect_phases(zoo, reference)?;
    p.dp_steps(zoo)?;
    p.minibatches(zoo);
    p.convs()?;
    let mut models = models.to_vec();
    p.inference(zoo, &mut models)?;
    p.split(zoo, &mut models)?;
    p.tee(zoo, &models)?;
    p.serve(zoo, &models[SERVED])?;
    Ok(p)
}

impl Profile {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.correct = false;
            eprintln!("profile check failed: {}", what());
        }
    }

    /// `core.*` protect phases, in `run_pipeline`'s order.
    fn protect_phases(&mut self, zoo: &Zoo, reference: &[Outcome]) -> Res<()> {
        for (f, want) in reference.iter().enumerate() {
            let (r, dt) = timed(|| zoo::protect_phased(zoo, f));
            let (prot, times) = r?;
            self.phased_ms += dt * 1e3;
            self.phases.add(&times);
            let got = prot.outcome();
            self.check(got == *want, || {
                format!(
                    "{}: phase-by-phase protect gave {got:?}, run_pipeline {want:?}",
                    FAMILIES[f]
                )
            });
            let bad = prot.violations();
            self.check(bad.is_empty(), || bad.join("; "));
        }
        let t = self.phases;
        let m = &mut self.metrics;
        m.push("core.train.victim_s", t.victim, "s");
        m.push("core.transfer_s", t.transfer, "s");
        m.push("core.pruning_s", t.pruning, "s");
        m.push("core.finalize_s", t.finalize, "s");
        m.push("core.attack.direct_s", t.direct, "s");
        m.push("core.attack.finetune_s", t.finetune, "s");
        Ok(())
    }

    /// `core.dp_train.step_ms.{family}`: the median `DataParallelTrainer::step`
    /// on one victim batch.
    fn dp_steps(&mut self, zoo: &Zoo) -> Res<()> {
        let idx: Vec<usize> = (0..BATCH.min(zoo.data.train().len())).collect();
        let batch = zoo.data.train().gather(&idx);
        let sgd = Sgd::new(0.05, 0.9, 1e-4).map_err(err)?;
        for (f, spec) in zoo.specs.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(zoo.cfg.seed);
            let victim = ChainNet::from_spec(spec, &mut rng).map_err(err)?;
            let mut trainer = DataParallelTrainer::new(&victim, TRAIN_THREADS).map_err(err)?;
            let mut samples = Vec::new();
            for rep in 0..14 {
                let (r, dt) = timed(|| trainer.step(&batch, &sgd));
                let stats = r.map_err(err)?;
                self.check(stats.loss.is_finite(), || {
                    format!("{}: DP step loss {}", FAMILIES[f], stats.loss)
                });
                if rep >= 2 {
                    samples.push(dt * 1e3);
                }
            }
            self.metrics.push(
                format!("core.dp_train.step_ms.{}", FAMILIES[f]),
                median(&samples),
                "ms",
            );
        }
        Ok(())
    }

    /// `data.minibatches_ms`: one epoch's `ImageDataset::minibatches`.
    fn minibatches(&mut self, zoo: &Zoo) {
        let mut rng = StdRng::seed_from_u64(zoo.cfg.seed);
        let samples: Vec<f64> = (0..30)
            .map(|_| {
                let (b, dt) = timed(|| zoo.data.train().minibatches(BATCH, &mut rng));
                std::hint::black_box(b);
                dt * 1e3
            })
            .collect();
        self.metrics
            .push("data.minibatches_ms", median(&samples), "ms");
    }

    /// `tensor.conv_{fwd,bwd}_gflops.{geom}`: the `Parallel` backend's conv
    /// and depthwise entry points at the zoo's training shapes.
    fn convs(&mut self) -> Res<()> {
        let imp = BackendKind::Parallel.imp();
        let mut rng = StdRng::seed_from_u64(7);
        let (n, c, hw) = (BATCH, WIDTHS[0], IMAGE_HW);
        let x = init::randn(&[n, c, hw, hw], 1.0, &mut rng);
        let mut fwd = Metrics::default();
        let mut bwd = Metrics::default();
        for geom in GEOMS {
            let (out, k, stride, pad, depthwise) = match geom {
                "3x3s1" => (c, 3, 1, 1, false),
                "3x3s2" => (WIDTHS[1], 3, 2, 1, false),
                "5x5s1" => (c, 5, 1, 2, false),
                "dw3x3" => (c, 3, 1, 1, true),
                _ => (WIDTHS[1], 1, 1, 0, false),
            };
            let w = init::randn(&[out, if depthwise { 1 } else { c }, k, k], 0.1, &mut rng);
            let packed = PackedConv2dWeight::new(&w).map_err(err)?;
            let bias = Tensor::zeros(&[out]);
            let ho = (hw + 2 * pad - k) / stride + 1;
            let g = init::randn(&[n, out, ho, ho], 1.0, &mut rng);
            let macs = (n * out * ho * ho * k * k * if depthwise { 1 } else { c }) as f64;
            let forward = || {
                if depthwise {
                    imp.conv2d_depthwise_forward(&x, &packed, Some(&bias), stride, pad)
                } else {
                    imp.conv2d_forward_packed(&x, &packed, Some(&bias), stride, pad)
                }
            };
            let backward = || {
                if depthwise {
                    imp.conv2d_depthwise_backward(&x, &packed, &g, stride, pad, true)
                } else {
                    imp.conv2d_backward_packed(&x, &packed, &g, stride, pad, true)
                }
            };
            let tf = time_calls(|| forward().map(drop).map_err(err))?;
            let tb = time_calls(|| backward().map(drop).map_err(err))?;
            // Forward is one multiply-add per MAC; backward is two (input
            // and weight gradients).
            fwd.push(
                format!("tensor.conv_fwd_gflops.{geom}"),
                2.0 * macs / tf / 1e9,
                "GFLOP/s",
            );
            bwd.push(
                format!("tensor.conv_bwd_gflops.{geom}"),
                4.0 * macs / tb / 1e9,
                "GFLOP/s",
            );
        }
        self.metrics.extend(fwd);
        self.metrics.extend(bwd);
        Ok(())
    }

    /// `models.*` per-unit times per geometry class, and the `tensor.*`
    /// allocation and arena figures of the inference paths.
    fn inference(&mut self, zoo: &Zoo, models: &mut [TwoBranchModel]) -> Res<()> {
        let test = zoo.data.test();
        let b1 = test.gather(&[0]).images;
        let idx: Vec<usize> = (0..BATCH).map(|i| i % test.len()).collect();
        let b32 = test.gather(&idx).images;

        // Heap bytes per warmed call, summed over the zoo.
        let (mut fused_bytes, mut int8_bytes) = (0u64, 0u64);
        for m in models.iter_mut() {
            for _ in 0..2 {
                m.predict_fused(&b32).map_err(err)?;
                m.predict_int8(&b32).map_err(err)?;
            }
            let a0 = allocated_bytes();
            std::hint::black_box(m.predict_fused(&b32).map_err(err)?);
            fused_bytes += allocated_bytes() - a0;
            let a0 = allocated_bytes();
            std::hint::black_box(m.predict_int8(&b32).map_err(err)?);
            int8_bytes += allocated_bytes() - a0;
        }
        let reserved = arena::reserved_elems();
        let mut int8_s = vec![Vec::new(); models.len()];
        for _ in 0..10 {
            for (m, s) in models.iter_mut().zip(&mut int8_s) {
                std::hint::black_box(m.predict_fused(&b32).map_err(err)?);
                let (q, dt) = timed(|| m.predict_int8(&b32));
                std::hint::black_box(q.map_err(err)?);
                s.push(dt);
            }
        }
        let growth = arena::reserved_elems() as f64 - reserved as f64;
        self.int8_round_ms = int8_s.iter().map(|s| fast(s)).sum::<f64>() * 1e3;
        let m = &mut self.metrics;
        m.push("tensor.fused_alloc_bytes", fused_bytes as f64, "B");
        m.push("tensor.int8_alloc_bytes", int8_bytes as f64, "B");
        m.push("tensor.arena_growth_elems", growth, "elems");

        let mut b1_us = [0.0; GEOMS.len()];
        let mut b32_ms = [0.0; GEOMS.len()];
        let mut q32_ms = [0.0; GEOMS.len()];
        for model in models.iter_mut() {
            for (g, s, _) in unit_times(model, &b1, 100)? {
                b1_us[g] += s * 1e6;
            }
            for (g, s, secure) in unit_times(model, &b32, 15)? {
                b32_ms[g] += s * 1e3;
                if secure {
                    self.mt_unit_b32_ms += s * 1e3;
                }
            }
            for (g, s) in qunit_times(model, &b32, 15)? {
                q32_ms[g] += s * 1e3;
            }
        }
        self.unit_b32_ms = b32_ms.iter().sum();
        self.qunit_b32_ms = q32_ms.iter().sum();
        for (name, values, unit) in [
            ("models.unit_b1_us", b1_us, "us"),
            ("models.unit_b32_ms", b32_ms, "ms"),
            ("models.qunit_b32_ms", q32_ms, "ms"),
        ] {
            for (geom, v) in GEOMS.iter().zip(values) {
                self.metrics.push(format!("{name}.{geom}"), v, unit);
            }
        }
        Ok(())
    }

    /// `core.split.*`: `SplitTimings` of batch-1 `run_split_inference`,
    /// medians per deployment summed over the zoo.
    fn split(&mut self, zoo: &Zoo, models: &mut [TwoBranchModel]) -> Res<()> {
        let test = zoo.data.test();
        let mut stages = [0.0f64; 5];
        for m in models.iter_mut() {
            let mut per: [Vec<f64>; 5] = Default::default();
            let mut wall = Vec::new();
            for i in 0..80 {
                let x = test.gather(&[i % test.len()]).images;
                let (r, dt) = timed(|| run_split_inference(m, &x));
                let t = r.map_err(err)?.timings;
                wall.push(dt * 1e3);
                let staged = t.ree_ms + t.transfer_ms + t.tee_ms + t.merge_ms;
                for (v, s) in per.iter_mut().zip([
                    t.ree_ms,
                    t.transfer_ms,
                    t.tee_ms,
                    t.merge_ms,
                    t.total_ms - staged,
                ]) {
                    v.push(s);
                }
            }
            for (acc, v) in stages.iter_mut().zip(&per) {
                *acc += median(v);
            }
            self.split_ms += median(&wall);
        }
        self.split_unattributed_ms = stages[4];
        for (name, v) in ["ree", "transfer", "tee", "merge", "unattributed"]
            .iter()
            .zip(stages)
        {
            self.metrics.push(format!("core.split.{name}_ms"), v, "ms");
        }
        Ok(())
    }

    /// `tee.pricing_ms` and `tee.channel_roundtrip_us`.
    fn tee(&mut self, zoo: &Zoo, models: &[TwoBranchModel]) -> Res<()> {
        let cost = CostModel::raspberry_pi3();
        let mut pricing = 0.0;
        for (model, spec) in models.iter().zip(&zoo.specs) {
            let mut samples = Vec::new();
            for _ in 0..30 {
                let t = Instant::now();
                let plan = DeploymentPlan::new(model, spec.clone()).map_err(err)?;
                std::hint::black_box(plan.memory().map_err(err)?);
                std::hint::black_box(plan.latency(&cost).map_err(err)?);
                samples.push(secs(t) * 1e3);
            }
            pricing += median(&samples);
        }
        self.metrics.push("tee.pricing_ms", pricing, "ms");

        // One feature map of the zoo's first stage crosses REE -> TEE.
        let payload = Tensor::zeros(&[1, WIDTHS[0], IMAGE_HW, IMAGE_HW]);
        let (tx, rx) = one_way_bounded::<Tensor>(4);
        let mut samples = Vec::new();
        for _ in 0..2000 {
            let t = Instant::now();
            tx.send(payload.clone(), payload.numel() * 4);
            let got = rx.recv();
            samples.push(secs(t) * 1e6);
            self.check(got.is_some(), || "channel lost a payload".into());
        }
        self.metrics
            .push("tee.channel_roundtrip_us", median(&samples), "us");
        Ok(())
    }

    /// `core.serve.*`: a short paced and burst session on the served
    /// deployment, with serving kernels pinned as in the `serve` workload.
    fn serve(&mut self, zoo: &Zoo, model: &TwoBranchModel) -> Res<()> {
        let prepared = infer::prepare(zoo, model)?;
        par::set_max_threads(SERVE_THREADS);
        // One engine per phase, so each report's batches and stages belong
        // to that phase alone.
        let paced = serve::session(
            serve::start(model)?,
            &prepared,
            &[Some(RATE)],
            SERVE_PHASE_S,
        )?;
        let burst = serve::session(serve::start(model)?, &prepared, &[None], SERVE_PHASE_S)?;
        par::set_max_threads(TRAIN_THREADS);
        for (label, s, ph) in [
            ("paced", &paced, &paced.paced),
            ("burst", &burst, &burst.burst),
        ] {
            println!("{}", serve::line(label, ph, &s.report));
            self.check(s.accounted && ph.failed == 0, || {
                format!(
                    "serve {label}: {} failed, accounted {}",
                    ph.failed, s.accounted
                )
            });
        }
        let v = burst
            .report
            .validate_pipeline(&model.mt().spec(), &model.mr().spec())
            .map_err(err)?;
        let st = burst.report.stages;
        let ps = paced.report.stages;
        self.serve_ms = serve::paced_ms(&paced.paced);
        self.serve_stages_ms = (ps.ree_s + ps.transfer_s + ps.tee_s + ps.merge_s) * 1e3;
        let (paced_report, paced) = (&paced.report, &paced.paced);
        let m = &mut self.metrics;
        m.push("core.serve.submit_us", median(&paced.submit_us), "us");
        m.push("core.serve.generator_lag_ms", median(&paced.lag_ms), "ms");
        m.push(
            "core.serve.mean_batch.paced",
            paced_report.mean_batch,
            "count",
        );
        m.push(
            "core.serve.mean_batch.burst",
            burst.report.mean_batch,
            "count",
        );
        m.push("core.serve.stage_ms.ree", st.ree_s * 1e3, "ms");
        m.push("core.serve.stage_ms.transfer", st.transfer_s * 1e3, "ms");
        m.push("core.serve.stage_ms.tee", st.tee_s * 1e3, "ms");
        m.push("core.serve.stage_ms.merge", st.merge_s * 1e3, "ms");
        m.push("core.serve.overlap.measured", v.measured_overlap, "ratio");
        m.push("core.serve.overlap.simulated", v.simulated_overlap, "ratio");
        m.push(
            "core.serve.latency_p99_ms",
            quantile(&paced.latency_ms, 0.99),
            "ms",
        );
        Ok(())
    }

    fn overhead(&self, name: &str, traced: f64, untraced: f64) {
        println!(
            "trace: {name} traced {traced:.4} vs untraced {untraced:.4} -> tracing overhead {:.4} ({:+.1}%)",
            traced - untraced,
            (traced / untraced - 1.0) * 100.0
        );
    }

    /// Bookkeeping of a traced `protect` run.
    pub fn report_protect(&self, untraced_ms: f64) {
        self.overhead("protect zoo ms", self.phased_ms, untraced_ms);
        println!(
            "trace: protect unattributed {:.1} ms = zoo {:.1} ms - phases {:.1} ms",
            self.phased_ms - self.phases.total() * 1e3,
            self.phased_ms,
            self.phases.total() * 1e3
        );
    }

    /// Bookkeeping of a traced `infer` run.
    pub fn report_infer(&self, untraced_split_ms: f64, fused_round_ms: f64) {
        self.overhead("split b1 ms", self.split_ms, untraced_split_ms);
        println!(
            "trace: split unattributed {:.4} ms (total minus SplitTimings stages) | fused b32 \
             unattributed {:.4} ms = round {fused_round_ms:.4} ms - unit forwards {:.4} ms \
             (heads, channel gathers, handoffs)",
            self.split_unattributed_ms,
            fused_round_ms - self.unit_b32_ms,
            self.unit_b32_ms
        );
    }

    /// Bookkeeping of a traced `int8` run.
    pub fn report_int8(&self, int8_round_ms: f64) {
        self.overhead("int8 b32 round ms", self.int8_round_ms, int8_round_ms);
        let layers = self.qunit_b32_ms + self.mt_unit_b32_ms;
        println!(
            "trace: int8 b32 unattributed {:.4} ms = round {int8_round_ms:.4} ms - int8 M_R units \
             {:.4} ms - f32 M_T units {:.4} ms (heads, channel gathers, handoffs)",
            int8_round_ms - layers,
            self.qunit_b32_ms,
            self.mt_unit_b32_ms
        );
    }

    /// Bookkeeping of a traced `serve` run.
    pub fn report_serve(&self, untraced_ms: f64) {
        self.overhead("serve paced latency ms", self.serve_ms, untraced_ms);
        println!(
            "trace: serve unattributed {:.4} ms = paced latency {:.4} ms - batch stages {:.4} ms \
             (admission, linger, thread handoffs)",
            self.serve_ms - self.serve_stages_ms,
            self.serve_ms,
            self.serve_stages_ms
        );
    }
}

/// [`fast`] seconds of `call`, repeated for [`CONV_BUDGET_S`] after two
/// warm-up calls.
fn time_calls(mut call: impl FnMut() -> Res<()>) -> Res<f64> {
    call()?;
    call()?;
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5 || secs(start) < CONV_BUDGET_S {
        let (r, dt) = timed(&mut call);
        r?;
        samples.push(dt);
    }
    Ok(fast(&samples))
}

/// [`fast`] seconds of every `Unit::forward_inference` of both branches,
/// with the inputs, skips and merges `predict_fused` gives them, tagged
/// with the unit's geometry class and whether it belongs to `M_T`.
#[allow(clippy::needless_range_loop)] // i indexes both branches and the align table
fn unit_times(model: &mut TwoBranchModel, x: &Tensor, reps: usize) -> Res<Vec<(usize, f64, bool)>> {
    let n = model.unit_count();
    let align = model.align().to_vec();
    let (mut r_in, mut m_in, mut merges, mut skips) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut merged_outs: Vec<Tensor> = Vec::new();
    let (mut r, mut m) = (x.clone(), x.clone());
    for i in 0..n {
        let r_out = model.mr_mut().units_mut()[i]
            .forward_inference(&r, None, None)
            .map_err(err)?;
        let merge = match &align[i] {
            None => r_out.clone(),
            Some(idx) => gather_channels(&r_out, idx).map_err(err)?,
        };
        let skip = model.mt().units()[i]
            .spec()
            .skip_from
            .map(|j| merged_outs[j].clone());
        let out = model.mt_mut().units_mut()[i]
            .forward_inference(&m, skip.as_ref(), Some(&merge))
            .map_err(err)?;
        r_in.push(std::mem::replace(&mut r, r_out));
        m_in.push(std::mem::replace(&mut m, out.clone()));
        merges.push(merge);
        skips.push(skip);
        merged_outs.push(out);
    }
    let mut samples = vec![(Vec::new(), Vec::new()); n];
    for _ in 0..reps {
        for i in 0..n {
            let (o, dt) =
                timed(|| model.mr_mut().units_mut()[i].forward_inference(&r_in[i], None, None));
            std::hint::black_box(o.map_err(err)?);
            samples[i].0.push(dt);
            let (o, dt) = timed(|| {
                model.mt_mut().units_mut()[i].forward_inference(
                    &m_in[i],
                    skips[i].as_ref(),
                    Some(&merges[i]),
                )
            });
            std::hint::black_box(o.map_err(err)?);
            samples[i].1.push(dt);
        }
    }
    let mut times = Vec::new();
    for (i, (rs, ms)) in samples.iter().enumerate() {
        times.push((geometry(model.mr().units()[i].spec())?, fast(rs), false));
        times.push((geometry(model.mt().units()[i].spec())?, fast(ms), true));
    }
    Ok(times)
}

/// [`fast`] seconds of every `QuantBranch::forward_unit` of `M_R`, with the
/// inputs `predict_int8` gives them.
fn qunit_times(model: &TwoBranchModel, x: &Tensor, reps: usize) -> Res<Vec<(usize, f64)>> {
    let q = QuantBranch::from_chain(model.mr()).map_err(err)?;
    let mut inputs = Vec::new();
    let mut r = x.clone();
    for i in 0..q.unit_count() {
        let out = q.forward_unit(i, &r, None).map_err(err)?;
        inputs.push(std::mem::replace(&mut r, out));
    }
    let mut times = Vec::new();
    for (i, input) in inputs.iter().enumerate() {
        let mut samples = Vec::new();
        for _ in 0..reps {
            let (o, dt) = timed(|| q.forward_unit(i, input, None));
            std::hint::black_box(o.map_err(err)?);
            samples.push(dt);
        }
        times.push((geometry(model.mr().units()[i].spec())?, fast(&samples)));
    }
    Ok(times)
}

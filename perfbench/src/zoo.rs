//! The inputs every workload shares: the seeded data set, one victim per
//! conv dispatch family, the pinned training configuration, and the protect
//! job with the properties its outputs must have.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use tbnet_core::attack::{direct_use_attack, fine_tune_attack_with_workers};
use tbnet_core::deploy::{DeploymentPlan, LatencyComparison};
use tbnet_core::pipeline::{run_pipeline, PipelineConfig};
use tbnet_core::pruning::{iterative_prune_with_workers, PruneIteration};
use tbnet_core::train::{evaluate, train_victim_with_workers, TrainConfig};
use tbnet_core::transfer::{evaluate_two_branch, train_two_branch_with_workers};
use tbnet_core::{TwoBranchModel, WorkerPolicy};
use tbnet_data::{DatasetKind, SyntheticCifar};
use tbnet_models::{mobile, resnet, vgg, ChainNet, ModelSpec};
use tbnet_tee::{CostModel, MemoryReport, SecureWorld};

use crate::stats::secs;

/// Kernel threads of training and of the closed-loop inference caller.
pub const TRAIN_THREADS: usize = 2;
pub const CLASSES: usize = 5;
pub const TRAIN_PER_CLASS: usize = 8;
pub const TEST_PER_CLASS: usize = 8;
pub const IMAGE_HW: usize = 16;
pub const NOISE_STD: f32 = 0.3;
/// Output widths of the two stages of every victim.
pub const WIDTHS: [usize; 2] = [16, 32];
/// Training budgets of the protect job. They are cut to about a quarter of
/// `PipelineConfig::smoke()`'s work, so a 20 s `protect` run times each
/// family's job about 15 times; every phase and code path still runs.
pub const VICTIM_EPOCHS: usize = 2;
pub const TRANSFER_EPOCHS: usize = 1;
pub const FINETUNE_EPOCHS: usize = 1;
pub const PRUNE_ITERATIONS: usize = 2;
pub const PRUNE_RATIO: f32 = 0.15;
/// Share of the training set the fine-tune attacker holds.
pub const ATTACK_FRACTION: f64 = 0.25;
pub const ATTACK_EPOCHS: usize = 1;

pub const FAMILIES: [&str; 4] = ["resnet", "vgg", "vgg5x5", "mobile"];

/// Everything a protect job reads, made from one seed.
pub struct Zoo {
    pub data: SyntheticCifar,
    pub specs: Vec<ModelSpec>,
    pub cfg: PipelineConfig,
    pub attack: TrainConfig,
}

impl Zoo {
    pub fn generate(seed: u64) -> Zoo {
        let data = SyntheticCifar::generate(
            DatasetKind::Cifar10Like
                .config()
                .with_classes(CLASSES)
                .with_train_per_class(TRAIN_PER_CLASS)
                .with_test_per_class(TEST_PER_CLASS)
                .with_size(IMAGE_HW, IMAGE_HW)
                .with_noise_std(NOISE_STD)
                .with_seed(seed),
        );
        let hw = (IMAGE_HW, IMAGE_HW);
        let [w1, w2] = WIDTHS;
        let specs = vec![
            resnet::resnet_from_stages("resnet", &WIDTHS, 1, CLASSES, 3, hw),
            vgg::vgg_from_stages("vgg", &[(w1, 1), (w2, 1)], CLASSES, 3, hw),
            vgg::vgg5x5_from_stages("vgg5x5", &[(w1, 1), (w2, 1)], CLASSES, 3, hw),
            mobile::mobile_from_stages("mobile", &[(w1, 1), (w2, 1)], CLASSES, 3, hw),
        ];
        let mut cfg = PipelineConfig::paper_scaled(VICTIM_EPOCHS, TRANSFER_EPOCHS, FINETUNE_EPOCHS);
        cfg.prune.max_iterations = PRUNE_ITERATIONS;
        cfg.prune.ratio = PRUNE_RATIO;
        // Keep every pruning iteration, as the zoo report does: the
        // benchmark measures the protected deployment, and a seed-dependent
        // number of fine-tunes would make the work itself depend on the seed.
        cfg.prune.drop_budget = 1.0;
        cfg.workers = WorkerPolicy::Fixed(TRAIN_THREADS);
        cfg.seed = seed;
        cfg.victim.seed = seed.wrapping_add(1);
        cfg.transfer.seed = seed.wrapping_add(2);
        cfg.prune.finetune.seed = seed.wrapping_add(3);
        let mut attack = TrainConfig::paper_scaled(ATTACK_EPOCHS);
        attack.seed = seed.wrapping_add(4);
        Zoo {
            data,
            specs,
            cfg,
            attack,
        }
    }

    /// Images pushed through a training step (forward and backward) by the
    /// protect job that produced `p`, fine-tune attack included.
    pub fn trained_images(&self, p: &Protected) -> usize {
        let n = self.data.train().len();
        let cfg = &self.cfg;
        n * (cfg.victim.epochs + cfg.transfer.epochs)
            + p.history.len() * cfg.prune.finetune.epochs * n
            + self.attack.epochs * p.attack_samples
    }
}

/// A protected deployment and what the protect job found out about it.
pub struct Protected {
    pub family: &'static str,
    pub model: TwoBranchModel,
    pub victim_acc: f32,
    pub tbnet_acc: f32,
    pub history: Vec<PruneIteration>,
    pub direct_acc: f32,
    pub finetune_acc: f32,
    pub attack_samples: usize,
    /// `M_T`'s priced TEE footprint in bytes.
    pub secure_bytes: usize,
    /// The bytes `load_into_secure_world` actually loads.
    pub loaded_bytes: usize,
    pub latency: LatencyComparison,
}

/// The figures two protect jobs of one seed must agree on exactly:
/// accuracies (as bits), `M_R` and `M_T` unit widths, and secure bytes.
pub type Outcome = (u32, u32, Vec<usize>, Vec<usize>, usize);

/// A deployment trained by [`deploy`], with its accuracies.
pub struct Deployed {
    pub model: TwoBranchModel,
    pub victim_acc: f32,
    pub tbnet_acc: f32,
}

impl Deployed {
    pub fn outcome(&self) -> Res<Outcome> {
        Ok(outcome(
            &self.model,
            self.victim_acc,
            self.tbnet_acc,
            secure_bytes(&self.model)?,
        ))
    }
}

fn outcome(model: &TwoBranchModel, victim_acc: f32, tbnet_acc: f32, secure: usize) -> Outcome {
    let widths = |net: &ChainNet| net.units().iter().map(|u| u.out_channels()).collect();
    (
        victim_acc.to_bits(),
        tbnet_acc.to_bits(),
        widths(model.mr()),
        widths(model.mt()),
        secure,
    )
}

impl Protected {
    pub fn outcome(&self) -> Outcome {
        outcome(
            &self.model,
            self.victim_acc,
            self.tbnet_acc,
            self.secure_bytes,
        )
    }

    /// The properties the method must give every protected deployment;
    /// each entry is one that does not hold. The pruning drop budget is not
    /// among them: it is 1.0 here, which every iteration meets.
    pub fn violations(&self) -> Vec<String> {
        let mut bad = Vec::new();
        if !self.model.is_finalized() {
            bad.push("deployment is not finalized".to_string());
        }
        for (i, (r, t)) in self
            .model
            .mr()
            .units()
            .iter()
            .zip(self.model.mt().units())
            .enumerate()
        {
            if r.out_channels() < t.out_channels() {
                bad.push(format!(
                    "unit {i}: M_R width {} < M_T width {}",
                    r.out_channels(),
                    t.out_channels()
                ));
            }
        }
        if self.history.len() != PRUNE_ITERATIONS || !self.history.iter().all(|h| h.kept) {
            bad.push(format!(
                "pruning kept {:?}, not all {PRUNE_ITERATIONS} iterations",
                self.history.iter().map(|h| h.kept).collect::<Vec<_>>()
            ));
        }
        if self.secure_bytes != self.loaded_bytes {
            bad.push(format!(
                "priced secure bytes {} != loaded bytes {}",
                self.secure_bytes, self.loaded_bytes
            ));
        }
        let accs = [
            self.victim_acc,
            self.tbnet_acc,
            self.direct_acc,
            self.finetune_acc,
        ];
        if accs.iter().any(|a| !(0.0..=1.0).contains(a)) {
            bad.push(format!("accuracy out of [0, 1]: {accs:?}"));
        }
        let speedup = self.latency.reduction_factor();
        if !(speedup.is_finite() && speedup > 0.0) {
            bad.push(format!("latency pricing gave speed-up {speedup}"));
        }
        bad
    }

    pub fn line(&self) -> String {
        format!(
            "{:<7} victim {:.3} tbnet {:.3} | direct-use {:.3} fine-tune {:.3} | M_T {} B | \
             priced speed-up x{:.2} | prune kept {:?}",
            self.family,
            self.victim_acc,
            self.tbnet_acc,
            self.direct_acc,
            self.finetune_acc,
            self.secure_bytes,
            self.latency.reduction_factor(),
            self.history.iter().map(|h| h.kept).collect::<Vec<_>>()
        )
    }
}

/// Wall time of each protect phase of one job, in seconds.
#[derive(Default, Clone, Copy)]
pub struct PhaseTimes {
    pub victim: f64,
    pub transfer: f64,
    pub pruning: f64,
    pub finalize: f64,
    pub direct: f64,
    pub finetune: f64,
    pub pricing: f64,
}

impl PhaseTimes {
    pub fn add(&mut self, o: &PhaseTimes) {
        self.victim += o.victim;
        self.transfer += o.transfer;
        self.pruning += o.pruning;
        self.finalize += o.finalize;
        self.direct += o.direct;
        self.finetune += o.finetune;
        self.pricing += o.pricing;
    }

    pub fn total(&self) -> f64 {
        self.victim
            + self.transfer
            + self.pruning
            + self.finalize
            + self.direct
            + self.finetune
            + self.pricing
    }
}

type Res<T> = Result<T, String>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Trains family `f`'s deployment with `run_pipeline` (steps 0-6), the part
/// of the protect job that inference and serving need.
pub fn deploy(zoo: &Zoo, f: usize) -> Res<Deployed> {
    let a = run_pipeline(&zoo.specs[f], &zoo.data, &zoo.cfg).map_err(err)?;
    Ok(Deployed {
        model: a.model,
        victim_acc: a.victim_acc,
        tbnet_acc: a.tbnet_acc,
    })
}

/// Trains every family's deployment.
pub fn deploy_all(zoo: &Zoo) -> Res<Vec<Deployed>> {
    (0..FAMILIES.len()).map(|f| deploy(zoo, f)).collect()
}

/// The protect job of family `f`: `run_pipeline`, both attacks and the
/// deployment pricing.
pub fn protect(zoo: &Zoo, f: usize) -> Res<Protected> {
    let a = run_pipeline(&zoo.specs[f], &zoo.data, &zoo.cfg).map_err(err)?;
    attack_and_price(
        zoo,
        f,
        a.model,
        a.victim_acc,
        a.tbnet_acc,
        a.prune_history,
        &mut PhaseTimes::default(),
    )
}

/// The same job with `run_pipeline` taken apart into its phases, called in
/// its order with the same configuration, each phase timed.
pub fn protect_phased(zoo: &Zoo, f: usize) -> Res<(Protected, PhaseTimes)> {
    let (spec, data, cfg) = (&zoo.specs[f], &zoo.data, &zoo.cfg);
    let mut times = PhaseTimes::default();
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    let t = Instant::now();
    let mut victim = ChainNet::from_spec(spec, &mut rng).map_err(err)?;
    train_victim_with_workers(&mut victim, data.train(), &cfg.victim, cfg.workers).map_err(err)?;
    let victim_acc = evaluate(&mut victim, data.test()).map_err(err)?;
    times.victim = secs(t);

    let t = Instant::now();
    let mut model = TwoBranchModel::from_victim(&victim, &mut rng).map_err(err)?;
    train_two_branch_with_workers(&mut model, data.train(), &cfg.transfer, cfg.workers)
        .map_err(err)?;
    times.transfer = secs(t);

    let t = Instant::now();
    let outcome = iterative_prune_with_workers(
        &mut model,
        data.train(),
        data.test(),
        victim_acc,
        &cfg.prune,
        cfg.workers,
    )
    .map_err(err)?;
    times.pruning = secs(t);

    let t = Instant::now();
    model
        .finalize_with_rollback(outcome.rollback_mr, outcome.rollback_mr_book)
        .map_err(err)?;
    let tbnet_acc = evaluate_two_branch(&mut model, data.test()).map_err(err)?;
    times.finalize = secs(t);

    let p = attack_and_price(
        zoo,
        f,
        model,
        victim_acc,
        tbnet_acc,
        outcome.history,
        &mut times,
    )?;
    Ok((p, times))
}

fn attack_and_price(
    zoo: &Zoo,
    f: usize,
    model: TwoBranchModel,
    victim_acc: f32,
    tbnet_acc: f32,
    history: Vec<PruneIteration>,
    times: &mut PhaseTimes,
) -> Res<Protected> {
    let data = &zoo.data;

    let t = Instant::now();
    let direct_acc = direct_use_attack(&model, data.test()).map_err(err)?;
    times.direct = secs(t);

    let t = Instant::now();
    let ft = fine_tune_attack_with_workers(
        &model,
        data.train(),
        data.test(),
        ATTACK_FRACTION,
        &zoo.attack,
        WorkerPolicy::Fixed(TRAIN_THREADS),
    )
    .map_err(err)?;
    times.finetune = secs(t);

    let t = Instant::now();
    let plan = DeploymentPlan::new(&model, zoo.specs[f].clone()).map_err(err)?;
    let memory = plan.memory().map_err(err)?;
    let latency = plan.latency(&CostModel::raspberry_pi3()).map_err(err)?;
    times.pricing = secs(t);

    let mut world = SecureWorld::from_cost_model(&CostModel::raspberry_pi3());
    let loaded_bytes = plan.load_into_secure_world(&mut world).map_err(err)?;
    Ok(Protected {
        family: FAMILIES[f],
        model,
        victim_acc,
        tbnet_acc,
        history,
        direct_acc,
        finetune_acc: ft.accuracy,
        attack_samples: ft.samples_used,
        secure_bytes: memory.tbnet.total(),
        loaded_bytes,
        latency,
    })
}

/// `M_T`'s priced TEE footprint in bytes.
pub fn secure_bytes(model: &TwoBranchModel) -> Res<usize> {
    Ok(MemoryReport::for_secure_branch(&model.mt().spec())
        .map_err(err)?
        .total())
}

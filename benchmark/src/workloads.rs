//! The five named workloads: how each is built from a seed, which driver
//! runs it, and how its answers are checked against the `(δ, ε, p)`
//! contract. The program under test receives only the generated world and
//! queries; the seed never reaches it.

use digest_audit::QueryAudit;
use digest_core::{
    ContinuousQuery, DigestEngine, EngineConfig, EstimatorKind, MuxConfig, NoopMuxObserver,
    Precision, QueryMux, SchedulerKind,
};
use digest_db::{Expr, P2PDatabase};
use digest_net::Graph;
use digest_sampling::SamplingConfig;
use digest_sim::{run, run_mux, run_observed, RunConfig, RunReport};
use digest_telemetry::MemorySink;
use digest_workload::{
    MemoryConfig, MemoryWorkload, TemperatureConfig, TemperatureWorkload, Workload,
};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Default `--seed`. The README names a second, held-out seed for checking
/// a claim on inputs nobody sized anything against; nothing here uses it.
pub const DEFAULT_SEED: u64 = 20_080_402;

/// One `(δ, ε, p)` contract.
type Contract = (f64, f64, f64);

/// Contracts the `mux32` members cycle through.
const MUX_CONTRACTS: [Contract; 4] = [
    (2.0, 1.0, 0.95),
    (1.0, 0.5, 0.99),
    (4.0, 1.0, 0.90),
    (2.0, 0.5, 0.95),
];
const MUX_MEMBERS: usize = 32;

/// A named workload. The table in `README.md` says why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    SoloLoose,
    SoloTight,
    Mux32,
    Churn100k,
    Audited,
}

pub const ALL: [Kind; 5] = [
    Kind::SoloLoose,
    Kind::SoloTight,
    Kind::Mux32,
    Kind::Churn100k,
    Kind::Audited,
];

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::SoloLoose => "solo_loose",
            Kind::SoloTight => "solo_tight",
            Kind::Mux32 => "mux32",
            Kind::Churn100k => "churn_100k",
            Kind::Audited => "audited",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        ALL.into_iter().find(|k| k.name() == name)
    }

    /// Ticks one driver call simulates (`--quick`: a quarter of that).
    pub fn ticks(self, quick: bool) -> u64 {
        let full = match self {
            Kind::SoloLoose => 1_080,
            Kind::SoloTight => 4_320,
            Kind::Mux32 => 120,
            Kind::Churn100k => 60,
            Kind::Audited => 360,
        };
        if quick {
            full / 4
        } else {
            full
        }
    }

    /// Worlds generated per run. The count metrics are totals over one
    /// driver call on each, so more worlds mean less spread between seeds;
    /// sized so that one pass over them takes 12–15 s on the 2-core host
    /// the baseline was taken on.
    pub fn worlds(self) -> usize {
        match self {
            Kind::SoloLoose => 14,
            Kind::SoloTight => 9,
            Kind::Mux32 => 12,
            Kind::Churn100k => 11,
            Kind::Audited => 12,
        }
    }

    fn contract(self) -> Contract {
        match self {
            Kind::SoloLoose | Kind::Audited => (8.0, 2.0, 0.95),
            Kind::SoloTight => (1.0, 0.75, 0.99),
            Kind::Churn100k => (4.0, 1.0, 0.95),
            Kind::Mux32 => MUX_CONTRACTS[0],
        }
    }

    fn world(self, seed: u64) -> World {
        match self {
            Kind::SoloLoose | Kind::Mux32 | Kind::Audited => {
                let mut cfg = TemperatureConfig::paper_scale();
                cfg.seed = cfg.seed.wrapping_add(seed);
                World::Temperature(TemperatureWorkload::new(cfg))
            }
            Kind::SoloTight => {
                let mut cfg = TemperatureConfig::reduced(1_060, 10, 53, 4_320);
                cfg.seed = cfg.seed.wrapping_add(seed);
                World::Temperature(TemperatureWorkload::new(cfg))
            }
            Kind::Churn100k => {
                let base = MemoryConfig::paper_scale();
                World::Memory(MemoryWorkload::new(MemoryConfig {
                    units: 200_000,
                    nodes: 100_000,
                    attachment: 3,
                    seconds_per_tick: 1,
                    update_prob: 0.01,
                    leave_prob: 2e-5,
                    join_rate: 2.0,
                    ticks: 60,
                    seed: base.seed.wrapping_add(seed),
                    ..base
                }))
            }
        }
    }

    /// Builds the world, the system under test and, for `audited`, the
    /// observer and event sink. This whole call is what `setup_s` times.
    pub fn setup(self, seed: u64, ticks: u64) -> Prepared {
        // A fresh run's telemetry state, as `digest-cli` starts one: the
        // counters read after a traced call then cover that call alone, and
        // the event stream of a repeated call repeats byte for byte.
        digest_telemetry::reset_run_state();
        let world = self.world(seed);
        let system = if self == Kind::Mux32 {
            System::Mux(mux_fleet(&world, true))
        } else {
            let engine = DigestEngine::new(
                avg_query(&world, self.contract()),
                EngineConfig {
                    scheduler: SchedulerKind::Pred(3),
                    estimator: EstimatorKind::Repeated,
                    sampling: SamplingConfig::recommended(world.graph().node_count()),
                    ..EngineConfig::default()
                },
            )
            .expect("PRED3+RPT engine config");
            System::Engine(engine)
        };
        let observation = (self == Kind::Audited).then(|| {
            let System::Engine(engine) = &system else {
                unreachable!("audited is a solo workload")
            };
            let audit = QueryAudit::new(engine.query(), 0).expect("valid audit config");
            let sink = MemorySink::new();
            digest_telemetry::install_sink(Box::new(sink.clone()));
            Observation { audit, sink }
        });
        Prepared {
            kind: self,
            ticks,
            world,
            system,
            observation,
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }
}

fn avg_query(world: &World, (delta, epsilon, p): Contract) -> ContinuousQuery {
    ContinuousQuery::avg(
        Expr::first_attr(world.db().schema()),
        Precision::new(delta, epsilon, p).expect("the contracts above are valid"),
    )
}

/// The `mux32` fleet on one `QueryMux`: 32 AVG queries over the same
/// attribute (one shared panel key), contracts cycling so round sizing sees
/// heterogeneous `(ε, p)`. `sharing: false` is the one-engine-per-query
/// baseline the `core.mux.message_ratio` probe divides by.
pub fn mux_fleet(world: &World, sharing: bool) -> QueryMux {
    let mut mux = QueryMux::new(MuxConfig {
        sharing,
        ..MuxConfig::default()
    })
    .expect("default mux config");
    for i in 0..MUX_MEMBERS {
        mux.register(avg_query(world, MUX_CONTRACTS[i % MUX_CONTRACTS.len()]))
            .expect("AVG members register");
    }
    mux
}

/// One workload instance, ready for its driver call.
pub struct Prepared {
    pub kind: Kind,
    pub ticks: u64,
    pub world: World,
    pub system: System,
    pub observation: Option<Observation>,
    pub rng: ChaCha8Rng,
}

// One instance per driver call, never in a collection: size is no concern.
#[allow(clippy::large_enum_variant)]
pub enum System {
    Engine(DigestEngine),
    Mux(QueryMux),
}

/// The `audited` workload's observer and installed event sink.
pub struct Observation {
    pub audit: QueryAudit,
    pub sink: MemorySink,
}

impl Prepared {
    pub fn run_config(&self) -> RunConfig {
        RunConfig {
            ticks: self.ticks,
            respect_duration: true,
            sampling_workers: Some(1),
        }
    }

    /// The one driver call `run_s` times: `sim::run`, `run_observed` or
    /// `run_mux`, as the workload table says. One report per member query.
    pub fn drive(&mut self) -> digest_core::Result<Vec<RunReport>> {
        let config = self.run_config();
        let (delta, epsilon, _) = self.kind.contract();
        match (&mut self.system, &mut self.observation) {
            (System::Mux(mux), _) => run_mux(
                &mut self.world,
                mux,
                config,
                &mut self.rng,
                &mut NoopMuxObserver,
            ),
            (System::Engine(engine), Some(obs)) => run_observed(
                &mut self.world,
                engine,
                config,
                delta,
                epsilon,
                &mut self.rng,
                &mut obs.audit,
            )
            .map(|r| vec![r]),
            (System::Engine(engine), None) => run(
                &mut self.world,
                engine,
                config,
                delta,
                epsilon,
                &mut self.rng,
            )
            .map(|r| vec![r]),
        }
    }

    /// Each member query's `p`, in report order.
    pub fn confidences(&self) -> Vec<f64> {
        match &self.system {
            System::Engine(engine) => vec![engine.query().precision.confidence],
            System::Mux(mux) => mux
                .query_ids()
                .into_iter()
                .filter_map(|id| mux.query(id).map(|q| q.precision.confidence))
                .collect(),
        }
    }

    /// Uninstalls the event sink, if this workload installed one, and
    /// returns how many events it collected.
    pub fn finish(self) -> usize {
        match self.observation {
            Some(obs) => {
                digest_telemetry::take_sink();
                obs.sink.len()
            }
            None => 0,
        }
    }
}

/// Either generated world behind the one `Workload` the drivers take.
/// Every method forwards, defaulted ones too, so the drivers see exactly
/// the wrapped workload's behaviour.
pub enum World {
    Temperature(TemperatureWorkload),
    Memory(MemoryWorkload),
}

macro_rules! forward {
    ($self:ident, $w:ident => $body:expr) => {
        match $self {
            World::Temperature($w) => $body,
            World::Memory($w) => $body,
        }
    };
}

impl Workload for World {
    fn name(&self) -> &str {
        forward!(self, w => w.name())
    }
    fn graph(&self) -> &Graph {
        forward!(self, w => w.graph())
    }
    fn db(&self) -> &P2PDatabase {
        forward!(self, w => w.db())
    }
    fn expr(&self) -> &Expr {
        forward!(self, w => w.expr())
    }
    fn current_tick(&self) -> u64 {
        forward!(self, w => w.current_tick())
    }
    fn duration(&self) -> u64 {
        forward!(self, w => w.duration())
    }
    fn advance(&mut self, rng: &mut dyn RngCore) {
        forward!(self, w => w.advance(rng))
    }
    fn next_activity(&self) -> Option<u64> {
        forward!(self, w => w.next_activity())
    }
    fn advance_to(&mut self, tick: u64, rng: &mut dyn RngCore) {
        forward!(self, w => w.advance_to(tick, rng))
    }
    fn exact_aggregate(&self) -> f64 {
        forward!(self, w => w.exact_aggregate())
    }
    fn sigma_ref(&self) -> f64 {
        forward!(self, w => w.sigma_ref())
    }
    fn rho_ref(&self) -> f64 {
        forward!(self, w => w.rho_ref())
    }
}

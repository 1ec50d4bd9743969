//! A `QueryMux` under query churn: a Poisson arrival/departure stream
//! (`TrafficGenerator`: skewed δ/ε tiers, predicate overlap classes)
//! registers and deregisters members between ticks the way a serving
//! frontend would. Every admitted query must be served, hold its own
//! audited contract while it lives, and vanish from the rounds once it
//! departs.

use digest::audit::QueryAudit;
use digest::core::{ContinuousQuery, MuxConfig, Precision, QueryMux, TickContext};
use digest::db::{Expr, Predicate};
use digest::workload::{
    PredicateClass, QuerySpec, TemperatureConfig, TemperatureWorkload, TrafficConfig, TrafficEvent,
    TrafficGenerator, Workload,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, BTreeSet};

fn materialize(spec: &QuerySpec, w: &impl Workload) -> ContinuousQuery {
    let schema = w.db().schema();
    let query = ContinuousQuery::avg(
        Expr::first_attr(schema),
        Precision::new(spec.delta, spec.epsilon, spec.confidence).unwrap(),
    );
    match spec.predicate {
        PredicateClass::Unfiltered => query,
        PredicateClass::AboveMean => {
            query.with_predicate(Predicate::parse("temperature > 60", schema).unwrap())
        }
        PredicateClass::UpperTail => {
            query.with_predicate(Predicate::parse("temperature > 70", schema).unwrap())
        }
    }
}

#[test]
fn mux_serves_every_arrival_and_forgets_every_departure() {
    const TICKS: u64 = 120;
    let mut workload = TemperatureWorkload::new(TemperatureConfig {
        seed: 1,
        ..TemperatureConfig::reduced(1_000, 8, 10, TICKS)
    });
    let mut mux = QueryMux::new(MuxConfig::default()).unwrap();
    let mut generator = TrafficGenerator::new(TrafficConfig {
        arrival_rate: 0.4,
        mean_lifetime: 40.0,
        max_concurrent: 24,
        base_delta: 4.0,
        base_epsilon: 3.0,
        predicate_fraction: 0.25,
    });
    let mut rng = ChaCha8Rng::seed_from_u64(20080402 ^ 0x7EA);

    let mut live: BTreeMap<u64, u64> = BTreeMap::new(); // serial -> mux id
    let mut audits: BTreeMap<u64, QueryAudit> = BTreeMap::new();
    let mut departed: BTreeSet<u64> = BTreeSet::new();
    let mut served: BTreeSet<u64> = BTreeSet::new();
    let mut shared_rounds = 0u64;

    let origin = workload.graph().nodes().next().unwrap();
    for tick in 0..TICKS {
        workload.advance(&mut rng);
        for event in generator.advance(&mut rng) {
            match event {
                TrafficEvent::Arrive(spec) => {
                    let query = materialize(&spec, &workload);
                    let id = mux.register(query.clone()).unwrap();
                    audits.insert(id, QueryAudit::new(&query, id).unwrap());
                    live.insert(spec.serial, id);
                }
                TrafficEvent::Depart(serial) => {
                    if let Some(id) = live.remove(&serial) {
                        mux.deregister(id);
                        departed.insert(id);
                    }
                }
            }
        }
        assert_eq!(mux.len(), live.len());
        if mux.is_empty() {
            continue;
        }
        let ctx = TickContext {
            tick,
            graph: workload.graph(),
            db: workload.db(),
            origin,
        };
        let outcomes = mux.on_tick_mux(&ctx, &mut rng).unwrap();
        // Exactly the live members answer, in id order: no departed id
        // ever reappears in a round.
        let answered: Vec<u64> = outcomes.iter().map(|o| o.query).collect();
        assert_eq!(answered, mux.query_ids(), "tick {tick}");
        assert!(answered.iter().all(|id| !departed.contains(id)));
        for o in &outcomes {
            let exact = mux.query(o.query).unwrap().oracle(ctx.db).unwrap();
            audits
                .get_mut(&o.query)
                .unwrap()
                .observe_with_round(&ctx, &o.outcome, exact, o.round);
            if o.outcome.snapshot_executed {
                served.insert(o.query);
                shared_rounds += u64::from(o.round.is_some());
            }
        }
    }

    assert!(audits.len() >= 20, "only {} arrivals", audits.len());
    assert!(departed.len() >= 5, "only {} departures", departed.len());
    assert!(
        shared_rounds > 0,
        "no occasion was served from a shared round"
    );
    let registered: BTreeSet<u64> = audits.keys().copied().collect();
    assert_eq!(
        served, registered,
        "some admitted query never got an occasion"
    );
    for (id, audit) in &audits {
        let report = audit.report();
        assert!(report.occasions > 0);
        assert!(
            report.violation_rate <= report.violation_bound(),
            "query {id}: ε-violation rate {} above its bound {} over {} occasions",
            report.violation_rate,
            report.violation_bound(),
            report.occasions
        );
    }
}

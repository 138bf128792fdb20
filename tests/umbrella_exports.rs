//! The umbrella crate's re-exports (`spinner::core`, `spinner::graph`,
//! `spinner::pregel`, `spinner::metrics`, `spinner::baselines`) must
//! resolve and interoperate: types produced through one re-export are
//! accepted by functions reached through another.

use spinner::{baselines, core, graph, metrics, pregel};

#[test]
fn reexports_resolve_and_interoperate() {
    let directed = graph::generators::erdos_renyi(500, 2_000, 7);
    let g = graph::conversion::to_weighted_undirected(&directed);

    let k = 4u32;
    let r = core::partition(&g, &core::SpinnerConfig::new(k).with_seed(1));
    assert_eq!(r.labels.len(), g.num_vertices() as usize);
    assert!(r.labels.iter().all(|&l| l < k));

    let phi = metrics::phi(&g, &r.labels);
    assert!((0.0..=1.0).contains(&phi));
    assert_eq!(
        metrics::partition_loads(&g, &r.labels, k).iter().sum::<u64>(),
        g.total_weight()
    );

    let hash = baselines::hash_partition(g.num_vertices(), k, 7);
    assert_eq!(hash.len(), r.labels.len());

    let placement = pregel::Placement::from_labels_balanced(&r.labels, k as usize);
    assert_eq!(placement.num_workers(), k as usize);
}

#[test]
fn umbrella_paths_name_the_same_types_as_the_crates() {
    // A config built via the umbrella path is exactly the underlying
    // crate's type, not a wrapper.
    let cfg: spinner_core::SpinnerConfig = spinner::core::SpinnerConfig::new(3);
    assert_eq!(cfg.k, 3);
    let label: spinner_core::Label = spinner::core::NO_LABEL;
    assert_eq!(label, spinner_core::NO_LABEL);
}

#[test]
fn prelude_names_the_same_types_and_covers_the_common_path() {
    use spinner::prelude::*;

    // Prelude items are the canonical types, not shadows.
    let cfg: spinner_core::SpinnerConfig = SpinnerConfig::new(2).with_seed(3);
    let g: spinner_graph::DirectedGraph =
        GraphBuilder::new(60).add_edges((0..60).map(|v| (v, (v + 1) % 60))).build();

    // Build → stream → serve, entirely through the prelude surface.
    let session = StreamSession::new(g, cfg);
    let report: &WindowReport = &session.windows()[0];
    assert!(report.phi().is_finite());
    let node = ServingNode::new(session);
    let reader: RoutingReader = node.reader();
    let hit: Lookup = reader.lookup(0).expect("bootstrap epoch published");
    let worker: WorkerId = hit.worker();
    assert_eq!(worker, node.session().placement().as_slice()[0]);

    // The serving crate is also reachable as `spinner::serving`.
    let _table: spinner::serving::RoutingTable = RoutingTable::new();
}

#[test]
fn prelude_covers_the_fault_tolerance_path() {
    use spinner::prelude::*;
    use std::time::Duration;

    // Build a small session and persist it through a storage medium that
    // dies at the first WAL append — all through prelude names.
    let g = GraphBuilder::new(40).add_edges((0..40).map(|v| (v, (v + 1) % 40))).build();
    let session = StreamSession::new(g, SpinnerConfig::new(2).with_seed(5));
    let disk: MemStorage = MemStorage::new();
    let plan: FaultPlan = FaultPlan::new().fail(2, Fault::Full).fail(3, Fault::Full);
    let faulty: FaultyStorage<MemStorage> = FaultyStorage::new(disk.clone(), plan);
    let mut node = ServingNode::with_storage(session, Box::new(faulty))
        .expect("bootstrap checkpoint")
        .with_retry_policy(RetryPolicy {
            attempts: 2,
            base_backoff: Duration::ZERO,
            max_degraded_windows: 4,
        });
    assert_eq!(node.health(), Health::Healthy);
    let report =
        node.ingest(StreamEvent::Delta(GraphDelta::default())).expect("degrade, not die");
    assert_eq!(report.health(), Health::Degraded);

    // `Storage` itself is nameable for generic code.
    fn wal_bytes<S: Storage>(s: &mut S) -> usize {
        s.read(spinner::serving::StoreFile::Wal).ok().flatten().map_or(0, |b| b.len())
    }
    let mut medium = disk.clone();
    assert_eq!(wal_bytes(&mut medium), 0, "both append attempts failed");
}

#[test]
fn prelude_covers_the_transport_resilience_path() {
    use spinner::prelude::*;

    // Prelude names are the canonical pregel types, not shadows.
    let _: spinner_pregel::RetryConfig = RetryConfig::default();
    let health: spinner_pregel::LaneHealth = LaneHealth::default();
    assert_eq!(health, LaneHealth::Healthy);

    // Script a recoverable fault plan and drive a chaos window through the
    // session surface, entirely via prelude names.
    let plan: spinner_pregel::TransportFaultPlan =
        TransportFaultPlan::new().fail(0, 1, 0, TransportFault::Drop);
    let mut cfg = SpinnerConfig::new(2).with_seed(9);
    cfg.num_workers = 2;
    cfg.transport = TransportKind::Ring;
    let g = GraphBuilder::new(40).add_edges((0..40).map(|v| (v, (v + 1) % 40))).build();
    let mut session = StreamSession::new(g, cfg);
    session.inject_transport_faults(plan);
    // A resize migrates, so its window ships frames for the plan to hit.
    let report = session.apply(StreamEvent::Resize { k: 3 });
    assert!(!report.is_recovery(), "a dropped frame is retransmitted, not escalated");
    let (injected, remaining) = session.transport_chaos_counts();
    assert_eq!((injected, remaining), (1, 0), "the scripted fault fired");
}

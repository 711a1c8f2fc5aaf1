//! Unit tests for the experiment harness itself.

#[cfg(test)]
mod unit {
    use crate::faults::{failure_order, inject_departure, inject_failure, inject_reboot};
    use crate::report::{Cell, Table};
    use crate::run::ClassBytes;
    use crate::{AppKind, Deployment, Platform, ScenarioConfig, Scheme};
    use dsps::node::NodeActor;
    use simkernel::SimTime;
    use simnet::cellular::CellularNet;
    use simnet::wifi::WifiMedium;
    use simnet::LinkState::{Active, Dead, Gone};

    #[test]
    fn failure_order_covers_every_slot_once() {
        let dep = Deployment::build(ScenarioConfig {
            regions: 1,
            seed: 1,
            ..ScenarioConfig::default()
        });
        let order = failure_order(&dep, 0);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..8).collect::<Vec<_>>());
        // Idle slots come last; sources just before them.
        assert_eq!(&order[6..], &[6, 7], "idle last");
        assert!(order[4] == 0 || order[4] == 1, "sources after compute");
    }

    #[test]
    fn rep2_deployment_has_disjoint_flows_per_phone() {
        let dep = Deployment::build(ScenarioConfig {
            scheme: Scheme::Rep2,
            regions: 1,
            seed: 1,
            ..ScenarioConfig::default()
        });
        let handles = &dep.regions[0];
        let n = handles.graph.op_count() / 2;
        // Every phone hosts ops of exactly one flow.
        for slot in 0..8u32 {
            let flows: std::collections::BTreeSet<bool> = handles
                .placement
                .ops_on(slot)
                .iter()
                .map(|op| op.index() >= n)
                .collect();
            assert!(flows.len() <= 1, "slot {slot} mixes flows");
        }
        // Flow 0 on the first half of phones, flow 1 on the second.
        for (op, &s) in handles.placement.op_slot().iter().enumerate() {
            if op < n {
                assert!(s < 4);
            } else {
                assert!(s >= 4);
            }
        }
    }

    #[test]
    fn server_deployment_wires_uplink() {
        let dep = Deployment::build(ScenarioConfig {
            platform: Platform::Server {
                uplink_bps: 64_000.0,
            },
            regions: 2,
            seed: 1,
            ..ScenarioConfig::default()
        });
        assert!(dep.eth.is_some());
        for r in &dep.regions {
            assert!(r.uplink.is_some());
            assert_eq!(r.nodes.len(), 4, "4 servers per region");
        }
    }

    /// Regression: on the server platform a region's sink output
    /// reaches the next region's `S0` over Ethernet, and the node
    /// runtime accepted inter-region input from cellular deliveries
    /// only, so region 1 never saw an upstream tuple.
    #[test]
    fn server_regions_feed_the_next_region() {
        for app in [AppKind::Bcp, AppKind::SignalGuru] {
            let mut dep = Deployment::build(ScenarioConfig {
                app,
                platform: Platform::Server {
                    uplink_bps: 64_000.0,
                },
                regions: 2,
                seed: 1,
                ..ScenarioConfig::default()
            });
            dep.start();
            dep.run_until(SimTime::from_secs(120));
            let r1 = &dep.regions[1];
            let s0 = r1.graph.op_by_name("S0").expect("S0");
            let host = dep.sim.actor::<NodeActor>(r1.placement.actor_of(s0));
            assert!(
                host.inner.metrics.source_inputs > 0,
                "{}: region 1's S0 got no upstream tuple",
                app.label()
            );
        }
    }

    /// The three fault injectors' link semantics, read back from the
    /// WiFi medium and the cellular network.
    #[test]
    fn fault_injectors_set_wifi_and_cellular_links() {
        let mut dep = Deployment::build(ScenarioConfig {
            regions: 1,
            seed: 1,
            ..ScenarioConfig::default()
        });
        let nodes = dep.regions[0].nodes.clone();
        let at = SimTime::from_secs;
        inject_failure(&mut dep, 0, 0, at(1));
        inject_departure(&mut dep, 0, 1, at(1));
        inject_failure(&mut dep, 0, 2, at(1));
        inject_reboot(&mut dep, 0, 2, at(3));
        let links = |dep: &Deployment, n: usize| {
            let wifi = dep.sim.actor::<WifiMedium>(dep.regions[0].wifi);
            let cell = dep.sim.actor::<CellularNet>(dep.cell);
            (wifi.link_state(nodes[n]), cell.link_state(nodes[n]))
        };
        dep.run_until(at(2));
        assert_eq!(links(&dep, 0), (Dead, Dead), "failure");
        assert_eq!(links(&dep, 1), (Gone, Active), "departure keeps cellular");
        assert_eq!(links(&dep, 2), (Dead, Dead), "failure before the reboot");
        dep.run_until(at(4));
        assert_eq!(links(&dep, 2), (Active, Active), "reboot");
        assert_eq!(links(&dep, 0), (Dead, Dead), "no reboot, still dead");
    }

    /// Regression: a one-phone dist-n region has no checkpoint peer, and
    /// `peers_of` asserted at least two slots, so the phone panicked on
    /// its first checkpoint tick. It checkpoints locally and ships
    /// nothing instead.
    #[test]
    fn one_phone_dist_region_checkpoints_without_peers() {
        use simkernel::SimDuration;
        let cfg = ScenarioConfig {
            scheme: Scheme::Dist(1),
            regions: 1,
            phones: 1,
            ckpt_offset: SimDuration::from_secs(5),
            ckpt_period: SimDuration::from_secs(10),
            warmup: SimDuration::ZERO,
            duration: SimDuration::from_secs(30),
            ..ScenarioConfig::default()
        };
        let r = crate::run(&cfg, |_| {});
        assert_eq!(r.ckpt_repl_bytes, 0, "no peer to ship a copy to");
    }

    #[test]
    fn class_bytes_total_sums_all_classes() {
        let c = ClassBytes {
            data: 1,
            replication: 2,
            checkpoint: 3,
            preservation: 4,
            control: 5,
            recovery: 6,
        };
        assert_eq!(c.total(), 21);
    }

    #[test]
    fn scheme_labels_match_paper() {
        assert_eq!(Scheme::Ms.label(), "ms-8");
        assert_eq!(Scheme::Dist(3).label(), "dist-3");
        assert_eq!(AppKind::SignalGuru.label(), "SignalGuru");
    }

    #[test]
    fn table_cells_render_bands() {
        let mut t = Table::new("x", vec!["a".into(), "b".into()]);
        t.row("r", vec![Cell::Num(f64::INFINITY), Cell::Pct(0.5)]);
        let s = t.render();
        assert!(s.contains("inf"));
        assert!(s.contains("50%"));
    }

    #[test]
    fn run_jobs_preserves_order() {
        // More jobs than workers, so every worker pulls several.
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        let n = 4 * workers + 3;
        let expected: Vec<usize> = (0..n).map(|i| i * i).collect();
        for parallel in [true, false] {
            let jobs: Vec<_> = (0..n).map(|i| move || i * i).collect();
            assert_eq!(crate::run_jobs(parallel, jobs), expected);
        }
    }
}

//! The thin global coordinator: cross-region concerns only.
//!
//! Lives on shard 0 with a fat cellular endpoint (it models the fixed
//! controller server's backhaul). All per-region mutable state lives in
//! the [`super::RegionController`]s; the coordinator keeps just enough
//! of a mirror — each region's current placement and stop flag — to
//! resolve inter-region wiring:
//!
//! * **Inter-region wiring.** Every accepted [`RegionStatus`] report
//!   re-resolves the wiring of the reported region and of every region
//!   upstream of it (upstreams may live in other groups, which is
//!   exactly why this cannot stay in a region controller).
//! * **Install brokering.** Bulk operator-code installs are shipped
//!   over the coordinator's fat endpoint so recovery timing does not
//!   serialize behind a region controller's thin uplink; the tagged
//!   completion is reported back as an [`InstallOutcome`].
//! * **Side-effect relays.** WiFi link flips and sensor re-pairing are
//!   zero-cost direct events into region shards; the coordinator delays
//!   them by the kernel lookahead so the region-controller → coordinator
//!   → region event chain stays legal under conservative sharding.

use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::sync::Arc;

use dsps::graph::{OpId, QueryGraph};
use dsps::node::{InterRegionLink, UpdateInterRegion};
use simkernel::{impl_actor_any, Actor, ActorId, Ctx, EventBox, SimDuration};
use simnet::stats::TrafficClass;
use simnet::{net_send, payload, SetLink, TxFailed};

use super::msgs::{
    InstallOutcome, InstallOutcomeKind, RegionStatus, RelaySensorRedirect, RelayWifiLink,
    ShipInstall,
};
use super::Start;
use crate::msgs::wire;

/// Static description of one region as the coordinator sees it.
pub struct RegionWiring {
    /// The region's query network.
    pub graph: Arc<QueryGraph>,
    /// Downstream regions: (region index, source op fed there).
    pub downstream: Vec<(usize, OpId)>,
    /// Phone actor per slot (the region's shared table).
    pub slot_actors: Arc<Vec<ActorId>>,
    /// Initial operator → slot assignment.
    pub op_slot: Vec<u32>,
}

struct CoordRegion {
    wiring: RegionWiring,
    stopped: bool,
}

/// The global control-plane coordinator actor (shard 0).
pub struct Coordinator {
    cell: ActorId,
    /// Minimum delay stamped on direct sends into region shards.
    /// Deployments set this to the cellular downlink latency (rtt/2):
    /// relays model commands pushed over cellular without modelling
    /// the payload bytes, and a parallel kernel may use the same
    /// floor as a per-destination cross-shard bound.
    relay_delay: SimDuration,
    regions: Vec<CoordRegion>,
    /// Region controller owning each region (fan-out table for install
    /// outcomes).
    ctl_of_region: Vec<ActorId>,
    next_tag: u64,
    /// Outstanding shipped installs: tag → (region, slot).
    install_tags: BTreeMap<u64, (usize, u32)>,
}

impl Coordinator {
    /// Build the coordinator over all regions (global indices).
    pub fn new(
        cell: ActorId,
        relay_delay: SimDuration,
        wiring: Vec<RegionWiring>,
        ctl_of_region: Vec<ActorId>,
    ) -> Self {
        Coordinator {
            cell,
            relay_delay,
            regions: wiring
                .into_iter()
                .map(|wiring| CoordRegion {
                    wiring,
                    stopped: false,
                })
                .collect(),
            ctl_of_region,
            next_tag: 1,
            install_tags: BTreeMap::new(),
        }
    }

    /// Resolve the data destinations downstream of `region`, skipping
    /// stopped regions transitively (bypass, §III-D/E).
    fn resolve_downstream(&self, region: usize) -> Vec<(usize, OpId)> {
        let mut out = Vec::new();
        let mut stack: Vec<(usize, OpId)> = self.regions[region].wiring.downstream.clone();
        let mut seen = BTreeSet::new();
        while let Some((r, op)) = stack.pop() {
            if !seen.insert((r, op)) {
                continue;
            }
            if self.regions[r].stopped {
                stack.extend(self.regions[r].wiring.downstream.clone());
            } else {
                out.push((r, op));
            }
        }
        out.sort_unstable_by_key(|&(r, op)| (r, op.0));
        out
    }

    /// Install fresh inter-region links on `region`'s sink nodes.
    fn rewire_inter_region(&self, region: usize, ctx: &mut Ctx) {
        let downstream = self.resolve_downstream(region);
        let rt = &self.regions[region];
        if rt.stopped {
            return;
        }
        let mut per_slot: BTreeMap<u32, Vec<InterRegionLink>> = BTreeMap::new();
        for &sink in &rt.wiring.graph.sinks() {
            let slot = rt.wiring.op_slot[sink.index()];
            if slot == u32::MAX {
                continue;
            }
            let links: Vec<InterRegionLink> = downstream
                .iter()
                .map(|&(dr, dst_op)| {
                    let drt = &self.regions[dr].wiring;
                    let dst_slot = drt.op_slot[dst_op.index()];
                    InterRegionLink {
                        src_op: sink,
                        dst_actor: drt.slot_actors[dst_slot as usize],
                        dst_op,
                        net: self.cell,
                    }
                })
                .collect();
            per_slot.entry(slot).or_default().extend(links);
        }
        for (slot, links) in per_slot {
            let dst = rt.wiring.slot_actors[slot as usize];
            let update = payload(UpdateInterRegion { links });
            let class = TrafficClass::Control;
            net_send(ctx, self.cell, dst, class, wire::MEMBERSHIP, 0, update);
        }
    }

    /// Regions that feed `region`.
    fn upstream_regions(&self, region: usize) -> Vec<usize> {
        (0..self.regions.len())
            .filter(|&r| {
                self.regions[r]
                    .wiring
                    .downstream
                    .iter()
                    .any(|&(d, _)| d == region)
            })
            .collect()
    }

    /// Accept a region's authoritative placement/stop report and
    /// re-resolve the wiring it can affect: the region's own sink links
    /// and every upstream region's (a stop/restart changes where
    /// upstream data flows; a placement change moves link endpoints).
    fn on_region_status(&mut self, st: RegionStatus, ctx: &mut Ctx) {
        {
            let rt = &mut self.regions[st.region];
            rt.wiring.op_slot = st.op_slot.as_ref().clone();
            rt.stopped = st.stopped;
        }
        self.rewire_inter_region(st.region, ctx);
        for up in self.upstream_regions(st.region) {
            self.rewire_inter_region(up, ctx);
        }
    }

    /// Ship a region controller's bulk install over the fat endpoint,
    /// tracking the tagged completion.
    fn on_ship_install(&mut self, s: ShipInstall, ctx: &mut Ctx) {
        let tag = self.next_tag;
        self.next_tag += 1;
        self.install_tags.insert(tag, (s.region, s.slot));
        let (class, install) = (TrafficClass::Recovery, payload(s.install));
        net_send(ctx, self.cell, s.dst, class, s.bytes, tag, install);
    }

    /// Report a shipped install's completion back to the owning region
    /// controller (delayed: the controller lives on a region shard).
    fn report_outcome(&mut self, tag: u64, kind: InstallOutcomeKind, ctx: &mut Ctx) {
        let Some((region, slot)) = self.install_tags.remove(&tag) else {
            return;
        };
        let ctl = self.ctl_of_region[region];
        ctx.send_in(self.relay_delay, ctl, InstallOutcome { region, slot, kind });
    }
}

impl Actor for Coordinator {
    fn on_event(&mut self, ev: EventBox, ctx: &mut Ctx) {
        simkernel::match_event!(ev,
            _s: Start => {
                for region in 0..self.regions.len() {
                    self.rewire_inter_region(region, ctx);
                }
            },
            st: RegionStatus => { self.on_region_status(st, ctx); },
            s: ShipInstall => { self.on_ship_install(s, ctx); },
            w: RelayWifiLink => {
                let delay = self.relay_delay;
                ctx.send_in(delay, w.wifi, SetLink { node: w.node, state: w.state });
            },
            r: RelaySensorRedirect => {
                let delay = self.relay_delay;
                ctx.send_in(delay, r.sensor, r.redirect);
            },
            d: simnet::TxDone => {
                self.report_outcome(d.tag, InstallOutcomeKind::Delivered, ctx);
            },
            f: TxFailed => {
                self.report_outcome(f.tag, InstallOutcomeKind::Failed, ctx);
            },
            s: simnet::TxSevered => {
                self.report_outcome(s.tag, InstallOutcomeKind::Severed, ctx);
            },
            @else _other => {}
        );
    }

    fn name(&self) -> String {
        "ms-coordinator".into()
    }

    impl_actor_any!();
}

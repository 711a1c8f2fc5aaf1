//! The thin global coordinator: what needs every region, and only that.
//!
//! Lives on shard 0 with a fat cellular endpoint (it models the fixed
//! controller server's backhaul). All per-region mutable state, side
//! effects included, lives in the [`super::RegionController`]s; the
//! coordinator keeps just enough of a mirror — each region's current
//! placement and stop flag — to resolve inter-region wiring:
//!
//! * **Inter-region wiring.** Every accepted [`RegionStatus`] report
//!   re-runs [`resolve_inter_region`] for the reported region and for
//!   every region upstream of it (upstreams belong to other region
//!   controllers, which is exactly why this cannot stay in a region
//!   controller). The deployment builder installs the same function's
//!   result at build time, so nothing is re-sent at startup.
//! * **Install brokering.** Bulk operator-code installs are shipped
//!   over the coordinator's fat endpoint so recovery timing does not
//!   serialize behind a region controller's thin uplink; a tagged send
//!   that failed or was severed is reported back as an
//!   [`InstallOutcome`], delayed by the cellular downlink latency.

use std::collections::BTreeMap;

use dsps::node::UpdateInterRegion;
use dsps::placement::{resolve_inter_region, RegionWiring};
use simkernel::{impl_actor_any, Actor, ActorId, Ctx, EventBox, SimDuration};
use simnet::stats::TrafficClass;
use simnet::{net_send, payload, TxFailed};

use super::msgs::{InstallOutcome, InstallOutcomeKind, RegionStatus, ShipInstall};
use crate::msgs::wire;

/// The global control-plane coordinator actor (shard 0).
pub struct Coordinator {
    cell: ActorId,
    /// Delay of an [`InstallOutcome`] on its way back into a region
    /// shard: the cellular downlink latency (rtt/2), which a parallel
    /// kernel may also use as a per-destination cross-shard bound.
    relay_delay: SimDuration,
    regions: Vec<RegionWiring>,
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
        regions: Vec<RegionWiring>,
        ctl_of_region: Vec<ActorId>,
    ) -> Self {
        Coordinator {
            cell,
            relay_delay,
            regions,
            ctl_of_region,
            next_tag: 1,
            install_tags: BTreeMap::new(),
        }
    }

    /// Install fresh inter-region links on `region`'s sink nodes.
    fn rewire_inter_region(&self, region: usize, ctx: &mut Ctx) {
        let slot_actors = &self.regions[region].slot_actors;
        for (slot, links) in resolve_inter_region(&self.regions, region, self.cell) {
            let dst = slot_actors[slot as usize];
            let update = payload(UpdateInterRegion { links });
            let class = TrafficClass::Control;
            net_send(ctx, self.cell, dst, class, wire::MEMBERSHIP, 0, update);
        }
    }

    /// Accept a region's authoritative placement/stop report and
    /// re-resolve the wiring it can affect: the region's own sink links
    /// and every upstream region's (a stop/restart changes where
    /// upstream data flows; a placement change moves link endpoints).
    fn on_region_status(&mut self, st: RegionStatus, ctx: &mut Ctx) {
        let rt = &mut self.regions[st.region];
        rt.op_slot = st.op_slot;
        rt.stopped = st.stopped;
        self.rewire_inter_region(st.region, ctx);
        for up in 0..self.regions.len() {
            if self.regions[up]
                .downstream
                .iter()
                .any(|&(d, _)| d == st.region)
            {
                self.rewire_inter_region(up, ctx);
            }
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

    /// Report a shipped install that never arrived back to the owning
    /// region controller (delayed: the controller lives on a region
    /// shard).
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
            st: RegionStatus => { self.on_region_status(st, ctx); },
            s: ShipInstall => { self.on_ship_install(s, ctx); },
            d: simnet::TxDone => { self.install_tags.remove(&d.tag); },
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

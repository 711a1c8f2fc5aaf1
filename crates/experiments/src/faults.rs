//! Fault injection: failures (fail-stop crashes), departures (GPS-out
//! mobility), and reboots.
//!
//! A failure kills the phone actor and marks its WiFi/cellular links
//! dead — detection is then *emergent*: upstream neighbors observe
//! failed sends, the controller observes missed pings. A departure
//! breaks only the WiFi link and tells the phone its GPS says it left;
//! the phone itself notifies the controller (§III-E).

use dsps::node::Kill;
use simkernel::{SimDuration, SimTime};
use simnet::{LinkState, SetLink};

use crate::scenario::Deployment;

/// Schedule `(region, slot)`'s link-state change at `at`: the WiFi
/// medium always, the cellular link only when `cell` is given (a
/// departing phone keeps its cellular uplink). Single point all three
/// injectors go through, so their link semantics can't drift apart.
fn sever_links(
    dep: &mut Deployment,
    region: usize,
    slot: u32,
    at: SimTime,
    wifi: LinkState,
    cell: Option<LinkState>,
) {
    let node = dep.regions[region].nodes[slot as usize];
    let medium = dep.regions[region].wifi;
    dep.sim
        .schedule_at(at, medium, SetLink { node, state: wifi });
    if let Some(state) = cell {
        dep.sim.schedule_at(at, dep.cell, SetLink { node, state });
    }
}

/// Schedule a fail-stop crash of `(region, slot)` at `at`.
pub fn inject_failure(dep: &mut Deployment, region: usize, slot: u32, at: SimTime) {
    let node = dep.regions[region].nodes[slot as usize];
    dep.sim.schedule_at(at, node, Kill);
    sever_links(
        dep,
        region,
        slot,
        at,
        LinkState::Dead,
        Some(LinkState::Dead),
    );
}

/// Schedule a departure of `(region, slot)` at `at`: WiFi breaks, the
/// phone stays reachable over cellular and reports itself.
pub fn inject_departure(dep: &mut Deployment, region: usize, slot: u32, at: SimTime) {
    let node = dep.regions[region].nodes[slot as usize];
    sever_links(dep, region, slot, at, LinkState::Gone, None);
    dep.sim.schedule_at(at, node, mobistreams::msgs::Depart);
}

/// Schedule a reboot of a previously failed phone at `at` (flash
/// intact; re-registers with the controller as an idle node).
pub fn inject_reboot(dep: &mut Deployment, region: usize, slot: u32, at: SimTime) {
    let node = dep.regions[region].nodes[slot as usize];
    sever_links(
        dep,
        region,
        slot,
        at,
        LinkState::Active,
        Some(LinkState::Active),
    );
    dep.sim.schedule_at(at, node, dsps::node::Reboot);
}

/// The order in which slots are hit by Fig 9's n-node bursts: compute
/// and sink slots first (detected fast via upstream reports), then
/// source slots (ping-detected), then idle. Deterministic so every
/// scheme faces the same burst.
pub fn failure_order(dep: &Deployment, region: usize) -> Vec<u32> {
    let handles = &dep.regions[region];
    let sources = handles.placement.source_slots(&handles.graph);
    let hosting = handles.placement.hosting_slots();
    let slots = handles.placement.slots();
    let mut order = Vec::new();
    // 1. hosting, non-source.
    for s in 0..slots {
        if hosting.contains(&s) && !sources.contains(&s) {
            order.push(s);
        }
    }
    // 2. source slots.
    for s in 0..slots {
        if sources.contains(&s) {
            order.push(s);
        }
    }
    // 3. idle.
    for s in 0..slots {
        if !hosting.contains(&s) {
            order.push(s);
        }
    }
    order
}

/// Schedule Fig 9's burst at `at`: the first `n` slots of every
/// region's [`failure_order`] depart, or fail and reboot 60 s later.
pub fn inject_burst(dep: &mut Deployment, n: u32, at: SimTime, departures: bool) {
    for region in 0..dep.cfg.regions {
        for slot in failure_order(dep, region).into_iter().take(n as usize) {
            if departures {
                inject_departure(dep, region, slot, at);
            } else {
                inject_failure(dep, region, slot, at);
                inject_reboot(dep, region, slot, at + SimDuration::from_secs(60));
            }
        }
    }
}

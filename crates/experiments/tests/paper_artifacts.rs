//! Every paper artifact at smoke scale, pinned: Table I, Figs 8–10 and
//! the ablations (88 simulations: one seed, a 120 s warm-up, a 60 s
//! window, Fig 9 up to n = 2) must render the exact full-precision
//! JSON recorded in `tests/data/paper_artifacts_smoke.json`, table by
//! table and in `msx all` order.

use experiments::{ExpOptions, ARTIFACTS};
use simkernel::SimDuration;

const PIN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/data/paper_artifacts_smoke.json"
);

#[test]
fn paper_artifacts_match_the_smoke_pin() {
    let opts = ExpOptions {
        seeds: 1,
        warmup: SimDuration::from_secs(120),
        window: SimDuration::from_secs(60),
    };
    let tables: Vec<_> = ARTIFACTS
        .into_iter()
        .flat_map(|(_, run)| run(opts, 2))
        .collect();
    let observed = serde_json::to_string_pretty(&tables).expect("tables serialize") + "\n";
    let pinned = std::fs::read_to_string(PIN).expect("the smoke pin is checked in");
    if observed != pinned {
        println!("{observed}");
        panic!(
            "paper artifacts differ from {PIN}; the observed JSON is printed above \
             (copy it there only if the change is meant to move them)"
        );
    }
}

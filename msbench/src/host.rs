//! The host block recorded with every result: a timing means little
//! without the machine it was taken on.

use serde_json::{json, Value};

fn first_line(path: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines().next().map(|l| l.trim().to_string())
}

/// `nproc`, CPU model, frequency governor (if readable) and the load
/// average at the time of the call.
pub fn host_block() -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        });
    let governor = first_line("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor");
    let loadavg = first_line("/proc/loadavg");
    json!({
        "nproc": nproc,
        "cpu_model": cpu_model,
        "governor": governor,
        "loadavg": loadavg,
    })
}

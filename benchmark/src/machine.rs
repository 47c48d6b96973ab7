//! Machine stamp and process memory, read from the operating system.

use crate::api::Json;
use std::process::Command;

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    read("/proc/self/status")
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Size in bytes of one cache of cpu0 (`index` as under sysfs), 0 if unknown.
fn cache_bytes(index: usize) -> u64 {
    let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
    let Some(size) = read(&format!("{dir}/size")) else {
        return 0;
    };
    let size = size.trim();
    let (digits, mult) = match size.chars().last() {
        Some('K') => (&size[..size.len() - 1], 1 << 10),
        Some('M') => (&size[..size.len() - 1], 1 << 20),
        Some('G') => (&size[..size.len() - 1], 1 << 30),
        _ => (size, 1),
    };
    digits.parse::<u64>().map_or(0, |n| n * mult)
}

/// `(L2 bytes, L3 bytes)` of cpu0; sysfs lists L1d, L1i, L2, L3 as index 0–3.
pub fn l2_l3_bytes() -> (u64, u64) {
    (cache_bytes(2), cache_bytes(3))
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Where and with what the numbers were taken.
pub fn stamp() -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (l2, l3) = l2_l3_bytes();
    let cpu = read("/proc/cpuinfo")
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    Json::Obj(vec![
        ("nproc".into(), Json::Num(nproc as f64)),
        ("cpu".into(), Json::Str(cpu)),
        ("l2_bytes".into(), Json::Num(l2 as f64)),
        ("l3_bytes".into(), Json::Num(l3 as f64)),
        ("rustc".into(), Json::Str(command_line("rustc", &["-V"]))),
        (
            "git_commit".into(),
            Json::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
    ])
}

//! Host-noise accounting from `/proc`: the process's CPU seconds, the share of
//! the machine's CPU time the hypervisor stole during the run, and the peak
//! resident set. A run slowed by steal shows it here instead of reading as a
//! regression.

use std::time::Instant;

/// Linux reports `/proc/*/stat` CPU times in `USER_HZ` ticks, which is 100 on
/// every mainstream architecture.
const TICKS_PER_SEC: f64 = 100.0;

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

/// User + system CPU seconds of this process, all threads included.
fn process_cpu_secs() -> f64 {
    let stat = read("/proc/self/stat");
    // Fields after the parenthesised command name start at field 3 (`state`);
    // utime and stime are fields 14 and 15.
    let after_comm = &stat[stat.rfind(')').expect("/proc/self/stat has a comm field") + 2..];
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    let tick = |i: usize| -> f64 { fields[i - 3].parse().expect("numeric CPU tick field") };
    (tick(14) + tick(15)) / TICKS_PER_SEC
}

/// Machine-wide (steal, total) CPU ticks from the aggregate `cpu` line.
fn machine_ticks() -> (u64, u64) {
    let stat = read("/proc/stat");
    let line = stat.lines().next().expect("/proc/stat has a cpu line");
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8) // user nice system idle iowait irq softirq steal (guest is inside user)
        .map(|t| t.parse().expect("numeric /proc/stat tick"))
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = read("/proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("/proc/self/status reports VmHWM");
    kib / 1024.0
}

/// A `/proc` snapshot taken at the start of a run.
pub struct HostSample {
    wall: Instant,
    cpu_secs: f64,
    steal: u64,
    total: u64,
}

/// What the host did between a [`HostSample`] and now.
pub struct HostNoise {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub steal_share: f64,
}

impl HostSample {
    pub fn now() -> Self {
        let (steal, total) = machine_ticks();
        Self {
            wall: Instant::now(),
            cpu_secs: process_cpu_secs(),
            steal,
            total,
        }
    }

    pub fn since(&self) -> HostNoise {
        let (steal, total) = machine_ticks();
        HostNoise {
            wall_s: self.wall.elapsed().as_secs_f64(),
            cpu_s: process_cpu_secs() - self.cpu_secs,
            steal_share: crate::stats::ratio(
                steal.saturating_sub(self.steal) as f64,
                total.saturating_sub(self.total) as f64,
            ),
        }
    }
}

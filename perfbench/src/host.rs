//! Host shape, provenance and process memory, recorded with every result
//! so runs on different hosts or different code are never compared.

use std::path::Path;
use std::sync::OnceLock;

/// Words in the kernel's `cpu_set_t` (1024 CPUs).
const CPU_SET_WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs the process was started with, read before pinning.
struct HostShape {
    affinity: String,
    available_parallelism: usize,
    pinned_cpu: Option<usize>,
}

static HOST: OnceLock<HostShape> = OnceLock::new();

/// Confines the process to one CPU, the lowest-numbered one it may run on,
/// and returns that CPU (`None` where the affinity cannot be read or set).
/// Call it before any thread starts: threads inherit the mask.
///
/// On a shared virtual machine a thread that wakes a parked thread on
/// another virtual CPU waits until the hypervisor schedules that CPU, and
/// how long that takes follows the load of other tenants, not the program.
/// On one CPU every hand-off is a local context switch and the CPU never
/// idles while a client waits, so the figures measure the program's work
/// and its thread hand-offs.
pub fn pin_to_one_cpu() -> Option<usize> {
    host_shape().pinned_cpu
}

fn host_shape() -> &'static HostShape {
    HOST.get_or_init(|| HostShape {
        affinity: proc_status("Cpus_allowed_list:").unwrap_or_default(),
        available_parallelism: std::thread::available_parallelism().map_or(0, |n| n.get()),
        pinned_cpu: pin(),
    })
}

#[cfg(target_os = "linux")]
fn pin() -> Option<usize> {
    let mut mask = [0u64; CPU_SET_WORDS];
    // SAFETY: `mask` is a writable buffer of the size passed.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..CPU_SET_WORDS * 64).find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; CPU_SET_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of the size passed.
    let set = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    (set == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
fn pin() -> Option<usize> {
    None
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Hands the allocator's free memory back to the kernel (glibc only; a
/// no-op elsewhere), so the next allocations fault in fresh pages as a new
/// process's would.
pub fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: malloc_trim only releases memory no allocation owns.
    unsafe {
        malloc_trim(0);
    }
}

/// The CPU [`pin_to_one_cpu`] confined the process to, if it did.
pub fn pinned_cpu() -> Option<usize> {
    HOST.get().and_then(|h| h.pinned_cpu)
}

/// A `/proc/self/status` field, without its label.
fn proc_status(key: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|l| l.strip_prefix(key).map(|v| v.trim().to_string()))
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    proc_status("VmHWM:")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Number of CPUs in an affinity list such as `0-3,6`.
fn count_cpus(list: &str) -> usize {
    list.split(',')
        .filter(|r| !r.is_empty())
        .map(|r| match r.split_once('-') {
            Some((a, b)) => match (a.trim().parse::<usize>(), b.trim().parse::<usize>()) {
                (Ok(a), Ok(b)) if b >= a => b - a + 1,
                _ => 0,
            },
            None => 1,
        })
        .sum()
}

/// The commit the sources came from: `GRAMC_COMMIT` if set, else read from
/// `.git` in the working directory (no subprocess), else `unknown`.
fn commit() -> String {
    if let Ok(c) = std::env::var("GRAMC_COMMIT") {
        return c;
    }
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    match head.trim().strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.trim().is_empty() => head.trim().to_string(),
        None => "unknown".into(),
    }
}

/// FNV-1a over every file under `dirs` (sorted paths, contents): a
/// fingerprint of the code that was built, usable where no git metadata
/// exists.
fn source_fingerprint(dirs: &[&str]) -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for d in dirs {
        walk(Path::new(d), &mut files);
    }
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for f in &files {
        eat(f.to_string_lossy().as_bytes());
        eat(&std::fs::read(f).unwrap_or_default());
    }
    format!("{h:016x}")
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The provenance block as a JSON object. `nproc`, `available_parallelism`
/// and `cpu_affinity` describe the CPUs the process started with;
/// `pinned_cpu` the one it ran on.
pub fn provenance_json(workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
    let host = host_shape();
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_default();
    let threads = std::env::var("GRAMC_THREADS").unwrap_or_default();
    format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {trace}, \
         \"nproc\": {}, \"available_parallelism\": {}, \"cpu_affinity\": {}, \
         \"pinned_cpu\": {}, \"gramc_threads\": {}, \"linalg_threads\": {}, \"cpu_model\": {}, \
         \"commit\": {}, \"source_fnv\": {}}}",
        json_str(workload),
        count_cpus(&host.affinity),
        host.available_parallelism,
        json_str(&host.affinity),
        host.pinned_cpu.map_or("null".into(), |c| c.to_string()),
        json_str(&threads),
        gramc_linalg::parallel::max_threads(),
        json_str(&cpu_model),
        json_str(&commit()),
        json_str(&source_fingerprint(&["crates", "perfbench/src"])),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn affinity_lists_count() {
        assert_eq!(count_cpus("0-1"), 2);
        assert_eq!(count_cpus("0-3,6,8-9"), 7);
        assert_eq!(count_cpus(""), 0);
    }
}

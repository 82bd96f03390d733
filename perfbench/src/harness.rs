//! Hosting and plumbing shared by the workloads: the self-hosted server,
//! the wire form of requests, response checks, and run conditions.

use sirum::dataflow::EngineConfig;
use sirum::net::client::{ClientResponse, HttpClient};
use sirum::net::metrics::NetMetrics;
use sirum::net::router::{Router, RouterConfig};
use sirum::net::server::{Server, ServerConfig};
use sirum::service::SirumService;
use sirum::table::Table;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Concurrent mining jobs the served pool runs (the service default).
pub const POOL_WORKERS: usize = 2;

/// Per-run scratch space inside the working directory: spill files and
/// the span dump. Removed (except the span dump) when dropped.
#[derive(Debug)]
pub struct WorkDir {
    root: PathBuf,
    spill: PathBuf,
}

impl WorkDir {
    pub fn create() -> std::io::Result<WorkDir> {
        let root = std::env::current_dir()?.join(".perfbench");
        let spill = root.join(format!("spill-{}", std::process::id()));
        std::fs::create_dir_all(&spill)?;
        Ok(WorkDir { root, spill })
    }

    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Engine configuration every engine of the run uses: the default
    /// in-memory engine, spilling inside the working directory.
    pub fn engine_config(&self, memory_budget: Option<usize>) -> EngineConfig {
        let mut config = EngineConfig::in_memory().with_spill_dir(self.spill.clone());
        config.memory_budget = memory_budget;
        config
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        // Best effort: a directory left behind holds only spill files,
        // and `.perfbench/` is ignored by git.
        let _ = std::fs::remove_dir_all(&self.spill);
    }
}

/// The real serving stack on loopback: `SirumService` → `Router` →
/// `Server`, bound to an ephemeral port.
pub struct Hosted {
    pub server: Server,
    pub service: SirumService,
}

impl Hosted {
    pub fn start(config: EngineConfig) -> Result<Hosted, String> {
        let service = SirumService::builder()
            .engine_config(config)
            .pool_workers(POOL_WORKERS)
            .build()
            .map_err(|e| format!("service: {e}"))?;
        let router = Router::new(
            service.clone(),
            Arc::new(NetMetrics::new()),
            RouterConfig::default(),
        );
        let server = Server::bind("127.0.0.1:0", router, ServerConfig::default())
            .map_err(|e| format!("bind: {e}"))?;
        Ok(Hosted { server, service })
    }

    pub fn client(&self) -> HttpClient {
        HttpClient::new(self.server.local_addr()).timeout(Duration::from_secs(60))
    }

    pub fn router(&self) -> &Router {
        self.server.router()
    }
}

/// The exact bytes [`HttpClient`] puts on the wire for a request, so
/// replays parse what the server parsed.
pub fn wire_request(method: &str, path: &str, body: Option<(&[u8], &str)>) -> Vec<u8> {
    let mut head = format!("{method} {path} HTTP/1.1\r\nhost: sirum\r\n");
    if let Some((body, content_type)) = body {
        head.push_str(&format!(
            "content-type: {content_type}\r\ncontent-length: {}\r\n",
            body.len()
        ));
    }
    head.push_str("\r\n");
    let mut bytes = head.into_bytes();
    if let Some((body, _)) = body {
        bytes.extend_from_slice(body);
    }
    bytes
}

/// The `POST /mine` body every workload sends.
pub fn mine_body(table: &str, k: usize, sample_size: usize, seed: u64) -> String {
    format!("{{\"table\":\"{table}\",\"k\":{k},\"sample_size\":{sample_size},\"seed\":{seed}}}")
}

/// A table as CSV bytes.
pub fn csv_bytes(table: &Table) -> Vec<u8> {
    let mut out = Vec::with_capacity(table.num_rows() * 8 * (table.num_dims() + 1));
    sirum::table::csv::write_csv(table, &mut out).expect("writing to a Vec cannot fail");
    out
}

/// Seed of the `i`-th derived stream of `seed` (SplitMix64), so every
/// request seed is a pure function of the workload seed. Kept to 48 bits:
/// JSON numbers are exact integers only up to 2^53.
pub fn derive_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i.wrapping_add(1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) >> 16
}

/// The `"result"` object of a finished `/mine` job response.
pub fn result_json(body: &str) -> Option<&str> {
    let at = body.find(",\"result\":")?;
    body.get(at + ",\"result\":".len()..body.len().checked_sub(1)?)
}

/// A rendered mining result without its wall-clock `timings` object: the
/// part that must be bit-identical between two runs of one request.
pub fn without_timings(result: &str) -> &str {
    match result.find(",\"timings\":") {
        Some(at) => &result[..at],
        None => result,
    }
}

/// Check a `/mine` reply: 2xx, finished, and (when `cold`) not served
/// from the cache. Returns the result object.
pub fn check_mine(response: &ClientResponse, cold: bool) -> Result<String, String> {
    if !(200..300).contains(&response.status) {
        return Err(format!("/mine answered {}", response.status));
    }
    let body = response.text();
    if !body.contains("\"state\":\"done\"") {
        return Err(format!("/mine did not finish inline: {body}"));
    }
    if cold && !body.contains("\"from_cache\":false") {
        return Err("a cold /mine was served from the cache".into());
    }
    result_json(&body)
        .map(str::to_string)
        .ok_or_else(|| "/mine reply carries no result".into())
}

/// Peak resident set (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit of the working directory, read from `.git` without leaving
/// it; `unknown` outside a git checkout.
pub fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (rev, name) = line.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A CPU set as the kernel's `cpu_set_t` lays it out: 1024 bits.
type CpuMask = [u64; 16];

extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The calling thread held on the CPU it ran on, with every thread it
/// starts meanwhile (threads inherit their creator's CPU set). Dropping
/// it lets the calling thread run anywhere again; the threads it started
/// stay where they are.
pub struct Pinned {
    pub cpu: usize,
    before: CpuMask,
}

impl Pinned {
    pub fn to_current_cpu() -> Result<Pinned, String> {
        let mut before: CpuMask = [0; 16];
        // SAFETY: the mask is a writable buffer of exactly the size given.
        let got = unsafe { sched_getaffinity(0, size_of::<CpuMask>(), before.as_mut_ptr()) };
        // SAFETY: no arguments, no memory touched.
        let cpu = unsafe { sched_getcpu() };
        if got != 0 || cpu < 0 || cpu as usize >= 1024 {
            return Err(format!(
                "cannot read this thread's CPU: {}",
                std::io::Error::last_os_error()
            ));
        }
        let cpu = cpu as usize;
        let mut only: CpuMask = [0; 16];
        only[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: the mask is a readable buffer of exactly the size given.
        if unsafe { sched_setaffinity(0, size_of::<CpuMask>(), only.as_ptr()) } != 0 {
            return Err(format!(
                "cannot pin to CPU {cpu}: {}",
                std::io::Error::last_os_error()
            ));
        }
        Ok(Pinned { cpu, before })
    }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        // SAFETY: the mask is a readable buffer of exactly the size given.
        // Best effort: a thread left pinned only runs its probes slower.
        let _ = unsafe { sched_setaffinity(0, size_of::<CpuMask>(), self.before.as_ptr()) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_extraction_and_timing_strip() {
        let body = r#"{"job":3,"state":"done","result":{"rules":[1],"timings":{"total":0.5}}}"#;
        let result = result_json(body).unwrap();
        assert_eq!(result, r#"{"rules":[1],"timings":{"total":0.5}}"#);
        assert_eq!(without_timings(result), r#"{"rules":[1]"#);
    }

    #[test]
    fn derived_seeds_are_distinct_and_repeatable() {
        let seeds: std::collections::BTreeSet<u64> = (0..1000).map(|i| derive_seed(7, i)).collect();
        assert_eq!(seeds.len(), 1000);
        assert_eq!(derive_seed(7, 3), derive_seed(7, 3));
        assert_ne!(derive_seed(7, 3), derive_seed(8, 3));
    }
}

//! Run isolation and run metadata.

use std::path::{Path, PathBuf};

/// Directory, inside the checkout, under which each run gets a fresh
/// private directory for `TMPDIR`, spill files and model artifacts.
const SCRATCH_ROOT: &str = ".bench_tmp";

/// Directory, inside the checkout, where traced runs write their spans.
pub const TRACE_DIR: &str = ".bench_out";

/// A fresh benchmark-owned directory that is the process's `TMPDIR`.
#[derive(Debug)]
pub struct Scratch {
    root: PathBuf,
}

impl Scratch {
    /// Creates `.bench_tmp/<workload>-<seed>-<pid>` and points `TMPDIR` at
    /// it. Call before any thread starts.
    pub fn create(workload: &str, seed: u64) -> std::io::Result<Self> {
        let root = std::env::current_dir()?
            .join(SCRATCH_ROOT)
            .join(format!("{workload}-{seed}-{}", std::process::id()));
        if root.exists() {
            std::fs::remove_dir_all(&root)?;
        }
        std::fs::create_dir_all(&root)?;
        std::env::set_var("TMPDIR", &root);
        Ok(Self { root })
    }

    /// A subdirectory, created on first use.
    pub fn dir(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = self.root.join(name);
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }

    /// Counts the files the program left behind, then removes the
    /// directory. Everything the benchmark wrote itself has been removed
    /// by then, so every remaining file is a leak.
    pub fn finish(self) -> std::io::Result<usize> {
        let leaked = count_files(&self.root)?;
        std::fs::remove_dir_all(&self.root)?;
        // Other runs may share the parent; it goes only once empty.
        let _ = std::fs::remove_dir(self.root.parent().expect("scratch has a parent"));
        Ok(leaked)
    }
}

fn count_files(dir: &Path) -> std::io::Result<usize> {
    let mut n = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if entry.file_type()?.is_dir() {
            n += count_files(&entry.path())?;
        } else {
            n += 1;
        }
    }
    Ok(n)
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Returns freed heap memory to the operating system, so that a phase that
/// follows starts from the same resident base whatever the phase before it
/// left in the allocator's free lists. `peak_rss_mb` then reads one
/// phase's peak rather than a sum of leftovers.
pub fn release_free_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` takes no pointers and only walks the
        // allocator's own arenas under their locks; any thread may call it
        // at any time.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// CPU time `clock` has consumed so far, in seconds.
fn cpu_seconds(clock: i32) -> f64 {
    use std::os::raw::c_long;
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two C longs on
    // Linux) for the duration of the call, which writes nothing else.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU time of the whole process so far (`CLOCK_PROCESS_CPUTIME_ID`), in
/// seconds. Time the hypervisor gives to other guests is not charged to
/// it, unlike wall-clock time.
pub fn process_cpu_seconds() -> f64 {
    cpu_seconds(2)
}

/// CPU time of the calling thread so far (`CLOCK_THREAD_CPUTIME_ID`), in
/// seconds.
pub fn thread_cpu_seconds() -> f64 {
    cpu_seconds(3)
}

/// The aggregate `cpu` line of `/proc/stat`, in clock ticks.
pub fn cpu_ticks() -> Option<Vec<u64>> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().next()?.strip_prefix("cpu ")?;
    line.split_whitespace().map(|v| v.parse().ok()).collect()
}

/// Share of CPU time the hypervisor gave to other guests between two
/// [`cpu_ticks`] readings (the `steal` column): a host-contention gauge
/// for reading run-to-run noise.
pub fn steal_share(before: &[u64], after: &[u64]) -> Option<f64> {
    let delta: Vec<u64> = after
        .iter()
        .zip(before)
        .map(|(a, b)| a.saturating_sub(*b))
        .collect();
    let total: u64 = delta.iter().sum();
    Some(*delta.get(7)? as f64 / total.max(1) as f64)
}

/// FNV-1a over the sources the benchmark builds from (the workspace
/// manifests, every file under `crates/` and the benchmark's own sources),
/// in path order. The checkout carries no git metadata, so this stands in
/// for the commit id.
pub fn source_fingerprint() -> String {
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    for dir in ["crates", "enqbench/src"] {
        collect_files(Path::new(dir), &mut files);
    }
    files.sort();
    let mut bytes = Vec::new();
    for file in &files {
        if let Ok(content) = std::fs::read(file) {
            bytes.extend_from_slice(file.to_string_lossy().as_bytes());
            bytes.extend_from_slice(&content);
        }
    }
    format!("{:016x}", enq_store::fnv1a64(&bytes))
}

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_files(&path, out);
        } else {
            out.push(path);
        }
    }
}

/// The metadata line printed before the result: core count, compute
/// backend, worker threads, source fingerprint and the run's arguments.
pub fn metadata(workload: &str, seed: u64, seconds: u64, trace: bool, extra: &str) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"meta\": {{\"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {seconds}, \
         \"trace\": {trace}, \"nproc\": {nproc}, \"simd_backend\": \"{}\", \
         \"default_threads\": {}, \"commit\": \"src-{}\"{extra}}}}}",
        enq_simd::active().name(),
        enq_parallel::default_threads(),
        source_fingerprint(),
    )
}

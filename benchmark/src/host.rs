//! What the operating system reports about this process and this machine.

fn field<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .map(|rest| rest.trim_start().trim_start_matches(':').trim())
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = field(&status, "VmHWM")?
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// CPU seconds (user + system, all threads) this process has used.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may hold spaces; the numbered fields start after
    // its closing parenthesis.
    let rest = &stat[stat.rfind(')')? + 2..];
    let mut fields = rest.split_whitespace().skip(11);
    let ticks: f64 = fields.next()?.parse::<f64>().ok()? + fields.next()?.parse::<f64>().ok()?;
    // USER_HZ: 100 on every Linux configuration this runs on.
    Some(ticks / 100.0)
}

pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| field(&info, "model name").map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// CPU affinity masks cover 1024 CPUs, as glibc's `cpu_set_t` does.
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs the calling thread may run on, if the system tells.
#[cfg(target_os = "linux")]
fn allowed_cpus() -> Option<CpuSet> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a live, writable buffer of exactly the
    // `size_of_val(&set)` bytes passed as its length; pid 0 names the
    // calling thread; the call touches nothing else.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&set), set.as_mut_ptr()) };
    (rc == 0).then_some(set)
}

/// Restrict the calling thread — and every thread it spawns from now
/// on — to `set`. False if the system refused.
#[cfg(target_os = "linux")]
fn run_on(set: &CpuSet) -> bool {
    // SAFETY: `set` is a live buffer of exactly the `size_of_val(set)`
    // bytes passed as its length and is only read; pid 0 names the
    // calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(set), set.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn allowed_cpus() -> Option<CpuSet> {
    None
}

#[cfg(not(target_os = "linux"))]
fn run_on(_: &CpuSet) -> bool {
    false
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Keep the C allocator to one arena. Which arena glibc hands a new
/// rank thread depends on when earlier threads exited, and that timing
/// made `peak_rss_mib` of one and the same program bimodal (26 or 33 MiB
/// on `sparse_osc`). With one task runnable at a time a second arena
/// buys nothing. Call before the first thread is spawned.
pub fn one_malloc_arena() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        const M_ARENA_MAX: i32 = -8;
        // SAFETY: `mallopt` takes two integers by value and only sets
        // allocator parameters; no thread but this one exists yet, and
        // an unknown parameter is refused by return value.
        if unsafe { mallopt(M_ARENA_MAX, 1) } != 1 {
            eprintln!("hostbench: could not limit malloc arenas; peak_rss_mib may vary run to run");
        }
    }
}

/// Run everything on one CPU, and step off it for the measurements that
/// are about several.
///
/// Under `Backend::Event` one task is runnable at a time, so a second
/// CPU adds nothing but the cost of waking it: a condvar handoff between
/// CPUs of this sandbox costs several times one within a CPU, and where
/// the kernel places each new rank thread decides which of the two a
/// repetition gets. Pinned, every repetition gets the same.
pub struct Pinning {
    all: CpuSet,
    one: CpuSet,
    pinned: bool,
}

impl Pinning {
    /// Pin the calling thread, and the threads it will spawn, to the
    /// first CPU it may use. Where the system does not allow it the
    /// benchmark runs unpinned and says so.
    pub fn pin() -> Pinning {
        let all = allowed_cpus().unwrap_or([0; 16]);
        let one = first_cpu(&all);
        let pinned = one != [0; 16] && run_on(&one);
        if !pinned {
            eprintln!(
                "hostbench: could not pin to one CPU; timings will depend on thread placement"
            );
        }
        Pinning { all, one, pinned }
    }

    /// Run `f` free to use every allowed CPU.
    pub fn unpinned<T>(&self, f: impl FnOnce() -> T) -> T {
        if self.pinned {
            run_on(&self.all);
        }
        let out = f();
        if self.pinned {
            run_on(&self.one);
        }
        out
    }
}

/// The first CPU of `set` alone.
fn first_cpu(set: &CpuSet) -> CpuSet {
    let mut one: CpuSet = [0; 16];
    if let Some((i, w)) = set.iter().enumerate().find(|(_, w)| **w != 0) {
        one[i] = 1 << w.trailing_zeros();
    }
    one
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_this_process() {
        assert!(peak_rss_mib().unwrap() > 0.5);
        assert!(cpu_seconds().unwrap() >= 0.0);
        assert!(nproc() >= 1);
    }

    #[test]
    fn first_cpu_picks_the_lowest_allowed() {
        let mut set: CpuSet = [0; 16];
        set[1] = 0b1100;
        let one = first_cpu(&set);
        assert_eq!(one[1], 0b100);
        assert_eq!(one.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
        assert_eq!(first_cpu(&[0; 16]), [0; 16]);
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn affinity_round_trips_on_a_scratch_thread() {
        std::thread::spawn(|| {
            let all = allowed_cpus().expect("affinity readable");
            assert!(run_on(&first_cpu(&all)));
            assert_eq!(allowed_cpus().unwrap(), first_cpu(&all));
            assert!(run_on(&all));
        })
        .join()
        .unwrap();
    }

    #[test]
    fn field_strips_key_and_colon() {
        assert_eq!(field("a: 1\nVmHWM:\t  2048 kB\n", "VmHWM"), Some("2048 kB"));
        assert_eq!(field("model name\t: X", "model name"), Some("X"));
        assert_eq!(field("x", "VmHWM"), None);
    }
}

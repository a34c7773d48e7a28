//! Runs a child process to completion and reports its wall time, exit
//! status and peak resident memory.

use std::fs::File;
use std::io;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Outcome of one child process.
#[derive(Debug, Clone)]
pub struct ChildRun {
    /// Spawn to reap, in seconds.
    pub wall_s: f64,
    /// Exit code; `None` when a signal ended the process.
    pub code: Option<i32>,
    /// Peak resident set size of the child (VmHWM), KiB.
    pub maxrss_kib: u64,
    /// The child's standard error.
    pub stderr: String,
}

impl ChildRun {
    /// Whether the process exited with code 0.
    pub fn ok(&self) -> bool {
        self.code == Some(0)
    }
}

/// Layout of `struct rusage` on 64-bit Linux: two `timeval`s, then
/// fourteen `long`s of which `ru_maxrss` is the first.
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
}

/// Runs `cmd` with standard output sent to `stdout` and standard error
/// kept in `stderr_path`, waits for it, and returns its timing and peak
/// memory.
///
/// The child is reaped with `wait4` so its own `ru_maxrss` is read,
/// not a maximum over every child this process ever had.
pub fn run(cmd: &mut Command, stdout: Stdio, stderr_path: &Path) -> io::Result<ChildRun> {
    let err = File::create(stderr_path)?;
    let start = Instant::now();
    let child = cmd
        .stdin(Stdio::null())
        .stdout(stdout)
        .stderr(err)
        .spawn()?;
    let pid = i32::try_from(child.id()).map_err(|_| io::Error::other("pid out of range"))?;
    let mut status = 0i32;
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `usage` are live, writable and laid out
        // as the C types `wait4` expects; `pid` is our unreaped child,
        // and `child` is never waited on through std afterwards.
        let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            break;
        }
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    drop(child);
    let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    Ok(ChildRun {
        wall_s,
        code,
        maxrss_kib: u64::try_from(usage.maxrss).unwrap_or(0),
        stderr: std::fs::read_to_string(stderr_path).unwrap_or_default(),
    })
}

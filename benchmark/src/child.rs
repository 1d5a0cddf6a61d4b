//! Run one child process and measure it from outside: wall time from
//! spawn to exit, CPU time and peak resident set from `wait4`, and a
//! 64-bit digest plus byte count of its standard output, which is
//! streamed and discarded rather than stored.

use std::fs::File;
use std::io::{self, Read};
use std::os::unix::process::ExitStatusExt;
use std::path::Path;
use std::process::{Command, ExitStatus, Stdio};
use std::time::Instant;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the rusage layout below is the 64-bit Linux one");

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals and fourteen longs, of
/// which only `ru_maxrss` (kilobytes) is read.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// Resource use of one reaped child.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reaped {
    /// How the child ended.
    pub status: ExitStatus,
    /// User CPU seconds.
    pub user_s: f64,
    /// System CPU seconds.
    pub sys_s: f64,
    /// Peak resident set size in KiB.
    pub peak_rss_kib: u64,
}

/// Wait for child `pid` and return its exit status and resource use. The
/// caller must not also `wait` on the `std::process::Child`: the process
/// is reaped here.
pub fn reap(pid: u32) -> io::Result<Reaped> {
    let mut status = 0i32;
    let mut ru = Rusage::default();
    loop {
        // SAFETY: `status` and `ru` are live, writable and laid out as the
        // kernel expects (see the struct comments); `wait4` writes nothing
        // beyond them and keeps no pointer after it returns.
        let rc = unsafe { wait4(pid as i32, &mut status, 0, &mut ru) };
        if rc >= 0 {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    Ok(Reaped {
        status: ExitStatus::from_raw(status),
        user_s: secs(&ru.utime),
        sys_s: secs(&ru.stime),
        peak_rss_kib: ru.maxrss.max(0) as u64,
    })
}

/// How many trailing bytes of output are kept back from the digest until
/// the stream ends, so the last line can be left out of it. The CLI's
/// last line is under 200 bytes and the summary before it under 2 KiB.
const HOLD_BACK: usize = 8 * 1024;
/// Leading bytes of output kept for parsing (`Connections: N`).
const HEAD_KEEP: usize = 256;

/// Streaming digest of a child's standard output.
///
/// The digest is a word-at-a-time multiply-xor hash; it is independent of
/// how the stream is chunked. It only has to tell two outputs apart, not
/// resist an adversary.
pub struct OutputDigest {
    hash: u64,
    word: [u8; 8],
    fill: usize,
    hashed: u64,
    bytes: u64,
    lines: u64,
    head: Vec<u8>,
    pending: Vec<u8>,
}

impl Default for OutputDigest {
    fn default() -> OutputDigest {
        OutputDigest::new()
    }
}

impl OutputDigest {
    /// An empty digest.
    pub fn new() -> OutputDigest {
        OutputDigest {
            hash: 0x7461_6d70_6572_6268,
            word: [0; 8],
            fill: 0,
            hashed: 0,
            bytes: 0,
            lines: 0,
            head: Vec::new(),
            pending: Vec::new(),
        }
    }

    fn mix(&mut self, w: u64) {
        self.hash = (self.hash ^ w)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(29);
    }

    fn hash_bytes(&mut self, mut data: &[u8]) {
        self.hashed += data.len() as u64;
        if self.fill > 0 {
            let take = (8 - self.fill).min(data.len());
            self.word[self.fill..self.fill + take].copy_from_slice(&data[..take]);
            self.fill += take;
            data = &data[take..];
            if self.fill < 8 {
                return;
            }
            self.mix(u64::from_le_bytes(self.word));
            self.fill = 0;
        }
        let mut words = data.chunks_exact(8);
        for w in &mut words {
            self.mix(u64::from_le_bytes(w.try_into().expect("chunks_exact(8)")));
        }
        let rest = words.remainder();
        self.word[..rest.len()].copy_from_slice(rest);
        self.fill = rest.len();
    }

    /// Feed the next chunk of output.
    pub fn update(&mut self, chunk: &[u8]) {
        self.bytes += chunk.len() as u64;
        self.lines += chunk.iter().filter(|&&b| b == b'\n').count() as u64;
        if self.head.len() < HEAD_KEEP {
            let take = (HEAD_KEEP - self.head.len()).min(chunk.len());
            self.head.extend_from_slice(&chunk[..take]);
        }
        self.pending.extend_from_slice(chunk);
        if self.pending.len() > 8 * HOLD_BACK {
            let cut = self.pending.len() - HOLD_BACK;
            let mut ready = std::mem::take(&mut self.pending);
            self.hash_bytes(&ready[..cut]);
            ready.drain(..cut);
            self.pending = ready;
        }
    }

    /// End of stream. With `skip_last_line` the final line (the CLI's
    /// scheduling-dependent perf line) stays out of the digest.
    pub fn finish(mut self, skip_last_line: bool) -> Output {
        let tail = std::mem::take(&mut self.pending);
        let body = tail.strip_suffix(b"\n").unwrap_or(&tail);
        let keep = match (skip_last_line, body.iter().rposition(|&b| b == b'\n')) {
            (true, Some(nl)) => nl + 1,
            (true, None) => 0,
            (false, _) => tail.len(),
        };
        self.hash_bytes(&tail[..keep]);
        // Fold in the trailing partial word and the length, so outputs
        // that differ only in trailing zero bytes still differ.
        let last = self.word;
        let fill = self.fill;
        let mut w = [0u8; 8];
        w[..fill].copy_from_slice(&last[..fill]);
        self.mix(u64::from_le_bytes(w));
        let hashed = self.hashed;
        self.mix(hashed);
        Output {
            digest: self.hash,
            bytes: self.bytes,
            lines: self.lines,
            head: String::from_utf8_lossy(&self.head).into_owned(),
            tail: String::from_utf8_lossy(&tail).into_owned(),
        }
    }
}

/// What is left of a child's standard output after streaming.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Output {
    /// 64-bit digest of the digested part.
    pub digest: u64,
    /// Total bytes written by the child.
    pub bytes: u64,
    /// Total newline count.
    pub lines: u64,
    /// The first bytes of output.
    pub head: String,
    /// The last bytes of output (at least the final two CLI lines).
    pub tail: String,
}

/// One measured run of a child process.
#[derive(Debug, Clone, PartialEq)]
pub struct ChildRun {
    /// Spawn to exit, seconds.
    pub wall_s: f64,
    /// Exit status and resource use.
    pub reaped: Reaped,
    /// Digest, size and edges of standard output.
    pub out: Output,
    /// Standard error, whole.
    pub stderr: String,
}

/// Spawn `bin args…`, stream its stdout through an [`OutputDigest`], send
/// its stderr to the file `stderr_path` (read back afterwards; a file
/// cannot fill up and stall the child the way an unread pipe can), and
/// reap it with [`reap`].
pub fn run_child(
    bin: &Path,
    args: &[String],
    stderr_path: &Path,
    skip_last_line: bool,
) -> io::Result<ChildRun> {
    let stderr_file = File::create(stderr_path)?;
    let start = Instant::now();
    let mut child = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::from(stderr_file))
        .spawn()?;
    let mut stdout = child.stdout.take().expect("stdout was piped");
    let mut digest = OutputDigest::new();
    let mut buf = vec![0u8; 64 * 1024];
    let read_result = loop {
        match stdout.read(&mut buf) {
            Ok(0) => break Ok(()),
            Ok(n) => digest.update(&buf[..n]),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => break Err(e),
        }
    };
    // Closing our end lets a child that is still writing die of SIGPIPE
    // instead of blocking, so the reap below always returns.
    drop(stdout);
    let reaped = reap(child.id())?;
    let wall_s = start.elapsed().as_secs_f64();
    read_result?;
    Ok(ChildRun {
        wall_s,
        reaped,
        out: digest.finish(skip_last_line),
        stderr: std::fs::read_to_string(stderr_path)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("target/test-scratch");
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir.join(name)
    }

    fn sh(script: &str, stderr_name: &str, skip: bool) -> ChildRun {
        let args = ["-c".to_owned(), script.to_owned()];
        run_child(Path::new("/bin/sh"), &args, &scratch(stderr_name), skip).expect("run sh")
    }

    #[test]
    fn digest_does_not_depend_on_chunking() {
        let data: Vec<u8> = (0..200_000u32).map(|i| (i * 7 + i / 251) as u8).collect();
        let whole = {
            let mut d = OutputDigest::new();
            d.update(&data);
            d.finish(false)
        };
        for chunk in [1usize, 3, 8, 13, 4096, 70_000] {
            let mut d = OutputDigest::new();
            for c in data.chunks(chunk) {
                d.update(c);
            }
            let out = d.finish(false);
            assert_eq!(
                (out.digest, out.bytes, out.lines),
                (whole.digest, whole.bytes, whole.lines),
                "chunk size {chunk}"
            );
        }
        let mut other = data.clone();
        other[123_456] ^= 1;
        let mut d = OutputDigest::new();
        d.update(&other);
        assert_ne!(d.finish(false).digest, whole.digest);
    }

    #[test]
    fn last_line_can_be_left_out_of_the_digest() {
        let digest_of = |text: &str, skip: bool| {
            let mut d = OutputDigest::new();
            d.update(text.as_bytes());
            d.finish(skip)
        };
        let a = digest_of("verdict 1\nverdict 2\n{\"stalls\":3}\n", true);
        let b = digest_of("verdict 1\nverdict 2\n{\"stalls\":99}\n", true);
        assert_eq!(a.digest, b.digest);
        assert_ne!(a.tail, b.tail);
        assert_eq!(a.lines, 3);
        let c = digest_of("verdict 1\nverdict X\n{\"stalls\":3}\n", true);
        assert_ne!(a.digest, c.digest);
        assert_ne!(
            digest_of("one\ntwo\n", false).digest,
            digest_of("one\ntwo\n", true).digest
        );
    }

    #[test]
    fn a_trivial_child_is_measured_and_digested() {
        let run = sh(
            "printf 'hello\\nworld\\n'; echo oops >&2",
            "trivial.err",
            false,
        );
        assert!(run.reaped.status.success());
        assert_eq!(run.out.bytes, 12);
        assert_eq!(run.out.lines, 2);
        assert_eq!(run.out.head, "hello\nworld\n");
        assert_eq!(run.stderr, "oops\n");
        assert!(run.wall_s > 0.0);
        // Even /bin/sh has a resident set of a few hundred KiB.
        assert!(run.reaped.peak_rss_kib > 100, "{:?}", run.reaped);
        let again = sh("printf 'hello\\nworld\\n'", "trivial2.err", false);
        assert_eq!(again.out.digest, run.out.digest);
    }

    #[test]
    fn exit_code_and_cpu_time_come_from_wait4() {
        let run = sh(
            "i=0; while [ $i -lt 200000 ]; do i=$((i+1)); done; exit 3",
            "busy.err",
            false,
        );
        assert_eq!(run.reaped.status.code(), Some(3));
        assert!(
            run.reaped.user_s + run.reaped.sys_s > 0.0,
            "{:?}",
            run.reaped
        );
        assert!(run.reaped.user_s + run.reaped.sys_s <= run.wall_s * 2.0 + 0.1);
    }

    #[test]
    fn large_output_is_streamed_not_stored() {
        // 4 MiB through a 64 KiB pipe: the child can only finish if the
        // harness keeps reading.
        let run = sh("head -c 4194304 /dev/zero", "large.err", false);
        assert!(run.reaped.status.success());
        assert_eq!(run.out.bytes, 4 * 1024 * 1024);
        assert!(run.out.tail.len() <= 9 * HOLD_BACK);
    }
}

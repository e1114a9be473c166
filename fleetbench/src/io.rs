//! A pass-through [`StoreIo`] that counts and times every call.
//!
//! Every method forwards to the wrapped implementation, `append_file`
//! included, so `FsIo`'s real append path stays in use.

use crate::stats::now;
use crate::trace::Tracer;
use mob_base::DecodeResult;
use mob_storage::StoreIo;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Running totals of the I/O a store did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoTotals {
    /// Bytes passed to `write_file` and `append_file`.
    pub bytes_written: u64,
    /// Bytes returned by `read_file`.
    pub bytes_read: u64,
    /// `sync` calls.
    pub syncs: u64,
    /// Time inside `sync`.
    pub sync_time: Duration,
    /// Time inside any call.
    pub busy: Duration,
}

impl std::ops::Add for IoTotals {
    type Output = IoTotals;

    fn add(self, other: IoTotals) -> IoTotals {
        IoTotals {
            bytes_written: self.bytes_written + other.bytes_written,
            bytes_read: self.bytes_read + other.bytes_read,
            syncs: self.syncs + other.syncs,
            sync_time: self.sync_time + other.sync_time,
            busy: self.busy + other.busy,
        }
    }
}

impl std::ops::Sub for IoTotals {
    type Output = IoTotals;

    fn sub(self, earlier: IoTotals) -> IoTotals {
        IoTotals {
            bytes_written: self.bytes_written - earlier.bytes_written,
            bytes_read: self.bytes_read - earlier.bytes_read,
            syncs: self.syncs - earlier.syncs,
            sync_time: self.sync_time.saturating_sub(earlier.sync_time),
            busy: self.busy.saturating_sub(earlier.busy),
        }
    }
}

/// Shared read handle on a [`TimedIo`]'s totals, kept by the benchmark
/// while the store owns the wrapper.
#[derive(Clone, Debug, Default)]
pub struct IoMeter(Arc<Mutex<IoTotals>>);

impl IoMeter {
    /// The totals so far.
    pub fn totals(&self) -> IoTotals {
        *self.0.lock().expect("io meter lock poisoned")
    }
}

/// The timing wrapper.
pub struct TimedIo<I> {
    inner: I,
    meter: IoMeter,
    tracer: Tracer,
}

impl<I: StoreIo> TimedIo<I> {
    /// Wrap `inner`, reporting into `meter` and, when on, `tracer`.
    pub fn new(inner: I, meter: &IoMeter, tracer: &Tracer) -> TimedIo<I> {
        TimedIo {
            inner,
            meter: meter.clone(),
            tracer: tracer.clone(),
        }
    }

    fn timed<R>(
        &self,
        span: &str,
        call: impl FnOnce(&I) -> R,
        account: impl FnOnce(&mut IoTotals, &R, Duration),
    ) -> R {
        self.tracer.enter(span);
        let start = now();
        let out = call(&self.inner);
        let took = now().saturating_sub(start);
        self.tracer.exit();
        let mut t = self.meter.0.lock().expect("io meter lock poisoned");
        t.busy += took;
        account(&mut t, &out, took);
        out
    }
}

impl<I: StoreIo> StoreIo for TimedIo<I> {
    fn read_file(&self, name: &str) -> DecodeResult<Vec<u8>> {
        self.timed(
            "io.read",
            |io| io.read_file(name),
            |t, r, _| {
                if let Ok(bytes) = r {
                    t.bytes_read += bytes.len() as u64;
                }
            },
        )
    }

    fn write_file(&self, name: &str, bytes: &[u8]) -> DecodeResult<()> {
        self.timed(
            "io.write",
            |io| io.write_file(name, bytes),
            |t, _, _| t.bytes_written += bytes.len() as u64,
        )
    }

    fn append_file(&self, name: &str, bytes: &[u8]) -> DecodeResult<()> {
        self.timed(
            "io.append",
            |io| io.append_file(name, bytes),
            |t, _, _| t.bytes_written += bytes.len() as u64,
        )
    }

    fn sync(&self, name: &str) -> DecodeResult<()> {
        self.timed(
            "io.sync",
            |io| io.sync(name),
            |t, _, took| {
                t.syncs += 1;
                t.sync_time += took;
            },
        )
    }

    fn rename(&self, from: &str, to: &str) -> DecodeResult<()> {
        self.timed("io.rename", |io| io.rename(from, to), |_, _, _| {})
    }

    fn remove(&self, name: &str) -> DecodeResult<()> {
        self.timed("io.remove", |io| io.remove(name), |_, _, _| {})
    }

    fn exists(&self, name: &str) -> bool {
        self.timed("io.exists", |io| io.exists(name), |_, _, _| {})
    }

    fn list(&self) -> DecodeResult<Vec<String>> {
        self.timed("io.list", |io| io.list(), |_, _, _| {})
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mob_storage::MemIo;

    #[test]
    fn counts_bytes_and_forwards() {
        let meter = IoMeter::default();
        let io = TimedIo::new(MemIo::new(), &meter, &Tracer::off());
        io.write_file("a", b"12345").unwrap();
        io.append_file("a", b"67").unwrap();
        io.sync("a").unwrap();
        assert_eq!(io.read_file("a").unwrap(), b"1234567");
        let t = meter.totals();
        assert_eq!((t.bytes_written, t.bytes_read, t.syncs), (7, 7, 1));
        assert_eq!((t - t).bytes_written, 0);
        assert_eq!((t + t).syncs, 2);
    }
}

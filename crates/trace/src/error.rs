//! Typed failures for trace encoding and decoding.
//!
//! Every way a trace file can be wrong maps to a distinct variant so
//! callers (and tests) can distinguish "not a trace at all" from "a trace
//! that was cut short". Decoding never panics on hostile bytes.

use std::any::Any;
use std::error::Error;
use std::fmt;
use std::io;

/// Why reading or writing a trace failed.
#[derive(Debug)]
pub enum TraceError {
    /// An underlying I/O operation failed.
    Io(io::Error),
    /// The file does not start with the `ALCT` magic.
    BadMagic([u8; 4]),
    /// The file's format version is outside the range this reader
    /// understands. Carries enough context to tell the user exactly where
    /// the reader gave up: `chunk_index` is 0 when the header itself was
    /// rejected, or the index of the chunk being decoded otherwise.
    UnsupportedVersion {
        /// Version declared by the file.
        found: u16,
        /// Oldest version this reader accepts.
        min_supported: u16,
        /// Newest version this reader accepts.
        max_supported: u16,
        /// Chunk index at which the version was rejected (0 = header).
        chunk_index: u64,
    },
    /// The embedded source program is not valid UTF-8.
    CorruptSource(std::str::Utf8Error),
    /// The stream ended where the format promised more bytes.
    Truncated(&'static str),
    /// A structurally invalid value was decoded (context in the message).
    Malformed(&'static str),
    /// An event lead byte carried an undefined kind tag.
    BadEventTag(u8),
    /// A chunk declared a payload larger than the sanity limit, which on a
    /// corrupt file would otherwise trigger a giant allocation.
    ChunkTooLarge(u64),
    /// A v3 chunk's payload did not match its stored CRC-32: positive
    /// evidence of corruption (bit rot, torn write) rather than truncation.
    ChecksumMismatch {
        /// CRC stored in the chunk head.
        expected: u32,
        /// CRC computed over the payload as read.
        actual: u32,
        /// Index of the offending chunk (0-based, footer counts as one).
        chunk_index: u64,
    },
    /// A worker thread panicked while reading or decoding a chunk: a defect
    /// in the decoder (or in a caller-supplied decode step), not in the
    /// trace. The panic is caught on the worker, so the replay fails with
    /// this error instead of aborting the process or hanging its peers.
    WorkerPanicked(Box<WorkerPanic>),
}

/// What [`TraceError::WorkerPanicked`] carries. It is boxed so that the
/// error, part of every decoded event's `Result`, stays two words wide.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerPanic {
    /// Index of the event-bearing chunk the worker was handling.
    pub chunk_index: u64,
    /// The panic payload, stringified (`&str` / `String` payloads
    /// verbatim, anything else as `<non-string panic payload>`).
    pub payload: String,
}

impl TraceError {
    /// Wraps a payload caught by `catch_unwind` on a worker handling chunk
    /// `chunk_index`.
    pub(crate) fn worker_panicked(chunk_index: u64, payload: Box<dyn Any + Send>) -> Self {
        let payload = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "<non-string panic payload>".to_string()
        };
        TraceError::WorkerPanicked(Box::new(WorkerPanic {
            chunk_index,
            payload,
        }))
    }

    /// A worker that stopped without reporting chunk `chunk_index`.
    pub(crate) fn worker_lost(chunk_index: u64, why: &str) -> Self {
        TraceError::WorkerPanicked(Box::new(WorkerPanic {
            chunk_index,
            payload: why.to_string(),
        }))
    }
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace I/O error: {e}"),
            TraceError::BadMagic(m) => {
                write!(f, "not an Alchemist trace (bad magic {m:02x?})")
            }
            TraceError::UnsupportedVersion {
                found,
                min_supported,
                max_supported,
                chunk_index,
            } => {
                write!(
                    f,
                    "unsupported trace format version {found} \
                     (supported {min_supported}..={max_supported}) at chunk {chunk_index}"
                )
            }
            TraceError::CorruptSource(e) => {
                write!(f, "embedded source is not UTF-8: {e}")
            }
            TraceError::Truncated(what) => write!(f, "truncated trace: {what}"),
            TraceError::Malformed(what) => write!(f, "malformed trace: {what}"),
            TraceError::BadEventTag(tag) => write!(f, "undefined event tag {tag}"),
            TraceError::ChunkTooLarge(n) => {
                write!(f, "chunk payload of {n} bytes exceeds the sanity limit")
            }
            TraceError::ChecksumMismatch {
                expected,
                actual,
                chunk_index,
            } => {
                write!(
                    f,
                    "corrupt trace: chunk {chunk_index} CRC mismatch \
                     (stored {expected:08x}, computed {actual:08x})"
                )
            }
            TraceError::WorkerPanicked(p) => {
                write!(
                    f,
                    "internal error: decode worker panicked on chunk {}: {}",
                    p.chunk_index, p.payload
                )
            }
        }
    }
}

impl Error for TraceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            TraceError::CorruptSource(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_name_the_problem() {
        assert!(TraceError::BadMagic(*b"GZIP")
            .to_string()
            .contains("bad magic"));
        let v = TraceError::UnsupportedVersion {
            found: 9,
            min_supported: 1,
            max_supported: 2,
            chunk_index: 0,
        }
        .to_string();
        assert!(v.contains("version 9"));
        assert!(v.contains("1..=2"));
        assert!(v.contains("chunk 0"));
        assert!(TraceError::Truncated("chunk payload")
            .to_string()
            .contains("chunk payload"));
        assert!(TraceError::BadEventTag(7).to_string().contains('7'));
        let c = TraceError::ChecksumMismatch {
            expected: 0xdead_beef,
            actual: 0x0bad_f00d,
            chunk_index: 3,
        }
        .to_string();
        assert!(c.contains("deadbeef"));
        assert!(c.contains("0badf00d"));
        assert!(c.contains("chunk 3"));
        let p = TraceError::worker_panicked(5, Box::new("boom")).to_string();
        assert!(p.contains("panicked on chunk 5: boom"), "{p}");
        let p = TraceError::worker_panicked(6, Box::new(7u8)).to_string();
        assert!(p.contains("<non-string panic payload>"), "{p}");
    }

    #[test]
    fn the_error_stays_small() {
        // Every decoded event travels in a `Result<_, TraceError>`.
        assert!(std::mem::size_of::<TraceError>() <= 24);
    }

    #[test]
    fn io_errors_convert() {
        let e: TraceError = io::Error::new(io::ErrorKind::UnexpectedEof, "eof").into();
        assert!(matches!(e, TraceError::Io(_)));
        assert!(e.source().is_some());
    }
}

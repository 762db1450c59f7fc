//! Client-side calls: one connection per request, frames per
//! [`crate::proto`].
//!
//! Endpoints use the daemon's syntax: `tcp:<addr>` for TCP, anything else
//! is a Unix socket path.

use crate::daemon::ServeError;
use crate::proto::{read_frame, write_frame, Frame, JobResults, StatusReport};
use crate::spec::CampaignSpec;
use chaser::Json;
use std::io::{self, BufReader, Read, Write};

/// One bidirectional connection to a daemon (either socket family).
#[derive(Debug)]
pub(crate) enum Stream {
    /// Unix-domain socket.
    Unix(std::os::unix::net::UnixStream),
    /// TCP socket.
    Tcp(std::net::TcpStream),
}

impl Stream {
    pub(crate) fn try_clone(&self) -> io::Result<Stream> {
        Ok(match self {
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
        })
    }

    /// Shuts down the socket (not just this handle): a read blocked on
    /// a shut read half returns EOF, and the peer sees EOF once the write
    /// half is shut.
    pub(crate) fn shutdown(&self, how: std::net::Shutdown) -> io::Result<()> {
        match self {
            Stream::Unix(s) => s.shutdown(how),
            Stream::Tcp(s) => s.shutdown(how),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

/// Connects to `endpoint` (`tcp:<addr>` or a Unix socket path).
pub(crate) fn connect(endpoint: &str) -> io::Result<Stream> {
    if let Some(addr) = endpoint.strip_prefix("tcp:") {
        Ok(Stream::Tcp(std::net::TcpStream::connect(addr)?))
    } else {
        Ok(Stream::Unix(std::os::unix::net::UnixStream::connect(
            endpoint,
        )?))
    }
}

fn request(endpoint: &str, frame: &Frame) -> Result<(Stream, BufReader<Stream>), ServeError> {
    let mut stream = connect(endpoint)?;
    write_frame(&mut stream, frame)?;
    let reader = BufReader::new(stream.try_clone()?);
    Ok((stream, reader))
}

fn next_frame(reader: &mut BufReader<Stream>) -> Result<Frame, ServeError> {
    read_frame(reader)?
        .ok_or_else(|| ServeError::Protocol("daemon closed the connection".to_string()))
}

/// Submits `spec` and streams the job until it reaches a terminal state.
/// `on_row` observes every streamed journal row `(job, row)`; the
/// returned frame is [`Frame::Done`], [`Frame::Checkpointed`] or
/// [`Frame::Failed`].
///
/// # Errors
///
/// [`ServeError::Rejected`] when admission refuses the spec, otherwise
/// I/O or protocol failures.
pub fn submit(
    endpoint: &str,
    spec: &CampaignSpec,
    mut on_row: impl FnMut(u64, &Json),
) -> Result<Frame, ServeError> {
    let (_stream, mut reader) = request(endpoint, &Frame::Submit { spec: spec.clone() })?;
    match next_frame(&mut reader)? {
        Frame::Accepted { .. } => {}
        Frame::Rejected { reason } => return Err(ServeError::Rejected(reason)),
        other => return Err(ServeError::Protocol(format!("unexpected reply {other:?}"))),
    }
    loop {
        match next_frame(&mut reader)? {
            Frame::Row { job, row } => on_row(job, &row),
            terminal @ (Frame::Done { .. } | Frame::Checkpointed { .. } | Frame::Failed { .. }) => {
                return Ok(terminal)
            }
            other => return Err(ServeError::Protocol(format!("unexpected frame {other:?}"))),
        }
    }
}

/// Fetches the daemon's status snapshot.
///
/// # Errors
///
/// I/O or protocol failures.
pub fn status(endpoint: &str) -> Result<StatusReport, ServeError> {
    let (_stream, mut reader) = request(endpoint, &Frame::Status)?;
    match next_frame(&mut reader)? {
        Frame::StatusReport(report) => Ok(report),
        other => Err(ServeError::Protocol(format!("unexpected reply {other:?}"))),
    }
}

/// Fetches a finished job's merged CSV artifacts.
///
/// # Errors
///
/// [`ServeError::Rejected`] when the job is unknown or not done yet.
pub fn results(endpoint: &str, job: u64) -> Result<JobResults, ServeError> {
    let (_stream, mut reader) = request(endpoint, &Frame::Results { job })?;
    match next_frame(&mut reader)? {
        Frame::ResultsReport(r) => Ok(r),
        Frame::Rejected { reason } => Err(ServeError::Rejected(reason)),
        other => Err(ServeError::Protocol(format!("unexpected reply {other:?}"))),
    }
}

/// Drains the daemon: stop admitting, checkpoint in-flight shards, shut
/// down. Returns `(finished, checkpointed)` job counts.
///
/// # Errors
///
/// I/O or protocol failures.
pub fn drain(endpoint: &str) -> Result<(u64, u64), ServeError> {
    let (_stream, mut reader) = request(endpoint, &Frame::Drain)?;
    match next_frame(&mut reader)? {
        Frame::Drained {
            finished,
            checkpointed,
        } => Ok((finished, checkpointed)),
        other => Err(ServeError::Protocol(format!("unexpected reply {other:?}"))),
    }
}

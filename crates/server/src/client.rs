//! A small blocking client for the wire protocol (used by `pwam-load`,
//! the integration tests and the examples).

use crate::protocol::{
    decode_response, encode_request, read_frame, write_frame, AnswerResponse, QueryRequest, Request, Response,
};
use std::io;
use std::net::{TcpStream, ToSocketAddrs};

/// One connection to a `pwam-serve` instance.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connect to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream })
    }

    /// Send one request and wait for its response.
    pub fn request(&mut self, req: &Request) -> io::Result<Response> {
        write_frame(&mut self.stream, &encode_request(req))?;
        let payload = read_frame(&mut self.stream)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection"))?;
        decode_response(&payload).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    /// Run a query.
    pub fn query(&mut self, q: QueryRequest) -> io::Result<Response> {
        self.request(&Request::Query(Box::new(q)))
    }

    /// Open an all-solutions cursor; returns its id.  Server-side errors
    /// (rejection, compile failure) surface as `InvalidData` — use
    /// [`Client::request`] directly to inspect the error kind.
    pub fn query_open(&mut self, q: QueryRequest) -> io::Result<u64> {
        match self.request(&Request::QueryOpen(Box::new(q)))? {
            Response::CursorOpened { cursor } => Ok(cursor),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected cursor-opened, got {other:?}"),
            )),
        }
    }

    /// Step a cursor to its next answer.  `Ok(Some(answer))` at an answer,
    /// `Ok(None)` once the stream is exhausted (the cursor is auto-closed).
    pub fn query_next(&mut self, cursor: u64) -> io::Result<Option<AnswerResponse>> {
        match self.request(&Request::QueryNext { cursor })? {
            Response::Answer(a) if a.success => Ok(Some(a)),
            Response::Answer(_) => Ok(None),
            other => {
                Err(io::Error::new(io::ErrorKind::InvalidData, format!("expected an answer, got {other:?}")))
            }
        }
    }

    /// Discard a cursor before exhausting it.
    pub fn query_close(&mut self, cursor: u64) -> io::Result<()> {
        match self.request(&Request::QueryClose { cursor })? {
            Response::CursorClosed => Ok(()),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected cursor-closed, got {other:?}"),
            )),
        }
    }

    /// Fetch the Prometheus-style metrics exposition.
    pub fn metrics(&mut self) -> io::Result<String> {
        match self.request(&Request::Metrics)? {
            Response::Metrics { text } => Ok(text),
            other => {
                Err(io::Error::new(io::ErrorKind::InvalidData, format!("expected metrics, got {other:?}")))
            }
        }
    }

    /// Fetch the flight recorder's newest `limit` lifecycle events (all
    /// retained events when `None`), one per line, oldest first.
    pub fn events(&mut self, limit: Option<u64>) -> io::Result<String> {
        match self.request(&Request::Events { limit })? {
            Response::Events { text } => Ok(text),
            other => {
                Err(io::Error::new(io::ErrorKind::InvalidData, format!("expected events, got {other:?}")))
            }
        }
    }

    /// Liveness check.
    pub fn ping(&mut self) -> io::Result<()> {
        match self.request(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(io::Error::new(io::ErrorKind::InvalidData, format!("expected pong, got {other:?}"))),
        }
    }

    /// Ask the server to shut down.
    pub fn shutdown(&mut self) -> io::Result<()> {
        match self.request(&Request::Shutdown)? {
            Response::Bye => Ok(()),
            other => Err(io::Error::new(io::ErrorKind::InvalidData, format!("expected bye, got {other:?}"))),
        }
    }
}

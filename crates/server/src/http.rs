//! A minimal, dependency-free HTTP/1.1 layer.
//!
//! The compat shims preclude async runtimes, so the server speaks HTTP the
//! way the rest of the repository speaks IPC: hand-rolled on `std`, blocking
//! reads, thread-per-connection.  This module owns the pieces that are pure
//! protocol — request parsing off a [`BufRead`], response serialisation, the
//! [`ServerError`] → status-code mapping every transport shares — and leaves
//! routing and job logic to `server`.

use gxplug_ipc::wire::ServerError;
use std::io::{self, BufRead, Write};

/// Content type of binary wire-frame bodies.
pub const FRAME_CONTENT_TYPE: &str = "application/x-gxplug-frame";

/// Largest request body the server accepts (a submit frame is tiny; result
/// payloads only ever travel server → client).
pub const MAX_BODY: usize = 1 << 20; // 1 MiB

/// One parsed HTTP/1.1 request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method, upper-case as received (`GET`, `POST`, ...).
    pub method: String,
    /// Request target path, query string stripped.
    pub path: String,
    /// Raw query string (without the `?`), empty when absent.
    pub query: String,
    /// Header name/value pairs; names lower-cased at parse time.
    pub headers: Vec<(String, String)>,
    /// The request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// The first value of a header, by lower-case name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(key, _)| key == name)
            .map(|(_, value)| value.as_str())
    }

    /// `true` when the client asked for a plain-text answer (`Accept:
    /// text/plain`) instead of binary wire frames.
    pub fn wants_text(&self) -> bool {
        self.header("accept")
            .is_some_and(|accept| accept.contains("text/plain"))
    }

    /// `true` when the peer asked to keep the connection open (HTTP/1.1
    /// default unless `Connection: close`).
    pub fn keep_alive(&self) -> bool {
        !self
            .header("connection")
            .is_some_and(|c| c.eq_ignore_ascii_case("close"))
    }
}

/// Why a request could not be parsed off the socket.
#[derive(Debug)]
pub enum RequestError {
    /// The peer closed the connection before (or mid-) request.  Not an
    /// error worth answering — the handler just drops the connection.
    ConnectionClosed,
    /// The read timed out (keep-alive idle); the handler polls its stop
    /// flag and tries again.
    TimedOut,
    /// The bytes are not valid HTTP; the handler answers 400 and closes.
    Malformed(&'static str),
    /// The declared body exceeds [`MAX_BODY`].
    BodyTooLarge,
    /// Any other transport failure.
    Io(io::Error),
}

impl From<io::Error> for RequestError {
    fn from(error: io::Error) -> Self {
        match error.kind() {
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => RequestError::TimedOut,
            io::ErrorKind::UnexpectedEof
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe => RequestError::ConnectionClosed,
            _ => RequestError::Io(error),
        }
    }
}

/// Reads one request off a buffered stream.  Blocks until a full request
/// arrives, the peer hangs up, or the stream's read timeout fires.
pub fn read_request(reader: &mut impl BufRead) -> Result<Request, RequestError> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(RequestError::ConnectionClosed);
    }
    let line = line.trim_end();
    let mut parts = line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or(RequestError::Malformed("empty request line"))?
        .to_string();
    let target = parts
        .next()
        .ok_or(RequestError::Malformed("request line lacks a target"))?;
    match parts.next() {
        Some(version) if version.starts_with("HTTP/1.") => {}
        _ => return Err(RequestError::Malformed("not an HTTP/1.x request")),
    }
    let (path, query) = match target.split_once('?') {
        Some((path, query)) => (path.to_string(), query.to_string()),
        None => (target.to_string(), String::new()),
    };

    let mut headers = Vec::new();
    loop {
        let mut header_line = String::new();
        if reader.read_line(&mut header_line)? == 0 {
            return Err(RequestError::ConnectionClosed);
        }
        let header_line = header_line.trim_end();
        if header_line.is_empty() {
            break;
        }
        let (name, value) = header_line
            .split_once(':')
            .ok_or(RequestError::Malformed("header line lacks a colon"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let content_length = headers
        .iter()
        .find(|(name, _)| name == "content-length")
        .map(|(_, value)| {
            value
                .parse::<usize>()
                .map_err(|_| RequestError::Malformed("unparseable content-length"))
        })
        .transpose()?
        .unwrap_or(0);
    if content_length > MAX_BODY {
        return Err(RequestError::BodyTooLarge);
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(RequestError::from)?;

    Ok(Request {
        method,
        path,
        query,
        headers,
        body,
    })
}

/// One HTTP response under construction.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code (200, 404, ...).
    pub status: u16,
    /// Content type of the body.
    pub content_type: &'static str,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// A response with the given status and a binary wire-frame body.
    pub fn frame(status: u16, body: Vec<u8>) -> Self {
        Self {
            status,
            content_type: FRAME_CONTENT_TYPE,
            body,
        }
    }

    /// A response with the given status and a plain-text body.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into().into_bytes(),
        }
    }

    /// Serialises the response onto a stream.
    pub fn write_to(&self, writer: &mut impl Write) -> io::Result<()> {
        write!(
            writer,
            "HTTP/1.1 {} {}\r\n",
            self.status,
            reason_phrase(self.status)
        )?;
        write!(writer, "Content-Type: {}\r\n", self.content_type)?;
        write!(writer, "Content-Length: {}\r\n", self.body.len())?;
        writer.write_all(b"\r\n")?;
        writer.write_all(&self.body)?;
        writer.flush()
    }
}

/// The canonical reason phrase of the statuses this server emits.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        401 => "Unauthorized",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        426 => "Upgrade Required",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// The status code each [`ServerError`] maps to — the single place every
/// transport's error → HTTP translation lives.
pub fn status_of(error: &ServerError) -> u16 {
    match error {
        ServerError::Unauthorized => 401,
        ServerError::QuotaExceeded { .. } => 429,
        ServerError::QueueFull | ServerError::ShutDown => 503,
        ServerError::NotFound => 404,
        ServerError::BadRequest(_)
        | ServerError::UnknownAlgorithm(_)
        | ServerError::Protocol(_) => 400,
        ServerError::Cancelled => 409,
        ServerError::JobPanicked | ServerError::JobFailed(_) | ServerError::Lost => 500,
    }
}

/// Splits a `key=value&key=value` body (the curl-friendly submission form)
/// into pairs.  No percent-decoding: the vocabulary is algorithm names,
/// numbers and comma-separated ids, none of which need escaping.
pub fn parse_form(body: &str) -> Vec<(&str, &str)> {
    body.split('&')
        .filter(|pair| !pair.is_empty())
        .filter_map(|pair| pair.split_once('='))
        .map(|(key, value)| (key.trim(), value.trim()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Request, RequestError> {
        read_request(&mut BufReader::new(raw.as_bytes()))
    }

    #[test]
    fn parses_a_request_with_query_headers_and_body() {
        let request = parse(
            "POST /v1/jobs?verbose=1 HTTP/1.1\r\n\
             Host: localhost\r\n\
             Authorization: Bearer tok-a\r\n\
             Content-Length: 4\r\n\
             \r\n\
             ping",
        )
        .unwrap();
        assert_eq!(request.method, "POST");
        assert_eq!(request.path, "/v1/jobs");
        assert_eq!(request.query, "verbose=1");
        assert_eq!(request.header("authorization"), Some("Bearer tok-a"));
        assert_eq!(request.body, b"ping");
        assert!(request.keep_alive());
    }

    #[test]
    fn connection_close_and_accept_are_honoured() {
        let request =
            parse("GET /metrics HTTP/1.1\r\nAccept: text/plain\r\nConnection: close\r\n\r\n")
                .unwrap();
        assert!(request.wants_text());
        assert!(!request.keep_alive());
    }

    #[test]
    fn malformed_requests_are_typed() {
        assert!(matches!(
            parse("NOT-HTTP\r\n\r\n"),
            Err(RequestError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET /x SPDY/3\r\n\r\n"),
            Err(RequestError::Malformed(_))
        ));
        assert!(matches!(parse(""), Err(RequestError::ConnectionClosed)));
        assert!(matches!(
            parse("GET / HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n"),
            Err(RequestError::BodyTooLarge)
        ));
    }

    #[test]
    fn responses_serialise_with_length_and_reason() {
        let mut out = Vec::new();
        Response::text(429, "slow down").write_to(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Content-Length: 9\r\n"));
        assert!(text.ends_with("\r\n\r\nslow down"));
    }

    #[test]
    fn every_server_error_has_a_status() {
        assert_eq!(status_of(&ServerError::Unauthorized), 401);
        assert_eq!(
            status_of(&ServerError::QuotaExceeded {
                tenant: "t".into(),
                in_flight: 1,
                limit: 1
            }),
            429
        );
        assert_eq!(status_of(&ServerError::QueueFull), 503);
        assert_eq!(status_of(&ServerError::NotFound), 404);
        assert_eq!(status_of(&ServerError::BadRequest("x".into())), 400);
        assert_eq!(status_of(&ServerError::JobPanicked), 500);
        assert_eq!(status_of(&ServerError::Cancelled), 409);
    }

    #[test]
    fn forms_split_into_trimmed_pairs() {
        let pairs = parse_form("algorithm=sssp&sources=0,7,42&priority= high ");
        assert_eq!(
            pairs,
            vec![
                ("algorithm", "sssp"),
                ("sources", "0,7,42"),
                ("priority", "high"),
            ]
        );
        assert!(parse_form("").is_empty());
    }
}

//! A minimal HTTP client and request bodies for a running ct-server.
//!
//! [`HttpClient`] holds one keep-alive HTTP/1.1 connection over
//! [`std::net::TcpStream`]; [`query_body`] renders a slice query as the
//! JSON body `POST /query` accepts.
//!
//! The client deliberately does not depend on the `ct-server` crate — it
//! speaks the wire protocol, which keeps the crate graph acyclic and means
//! callers exercise the same path a real client would.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

use ct_common::{AttrId, Catalog, CtError, Result, SliceQuery};

/// Renders a slice query as a `POST /query` JSON body. Attribute names are
/// JSON-safe by construction (schema identifiers), so plain quoting works.
pub fn query_body(catalog: &Catalog, q: &SliceQuery, csv: bool) -> String {
    let name = |a: &AttrId| format!("\"{}\"", catalog.attr(*a).name);
    let group: Vec<String> = q.group_by.iter().map(&name).collect();
    let mut body = format!("{{\"group_by\": [{}]", group.join(", "));
    if !q.predicates.is_empty() {
        let preds: Vec<String> =
            q.predicates.iter().map(|(a, v)| format!("{}: {v}", name(a))).collect();
        body.push_str(&format!(", \"where\": {{{}}}", preds.join(", ")));
    }
    if !q.ranges.is_empty() {
        let ranges: Vec<String> =
            q.ranges.iter().map(|(a, lo, hi)| format!("{}: [{lo}, {hi}]", name(a))).collect();
        body.push_str(&format!(", \"ranges\": {{{}}}", ranges.join(", ")));
    }
    if csv {
        body.push_str(", \"format\": \"csv\"");
    }
    body.push('}');
    body
}

/// One minimal HTTP/1.1 client connection (keep-alive, `Content-Length`
/// framing only — exactly what ct-server speaks).
pub struct HttpClient {
    reader: BufReader<TcpStream>,
}

/// Status code and body of one exchange.
#[derive(Debug)]
pub struct HttpReply {
    /// HTTP status code.
    pub status: u16,
    /// Response body.
    pub body: Vec<u8>,
    /// Response headers (lower-cased names).
    pub headers: Vec<(String, String)>,
}

impl HttpReply {
    /// First header value by lower-case name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    /// Body as UTF-8 (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

impl HttpClient {
    /// Connects to the server.
    ///
    /// # Errors
    /// Propagates the connect failure.
    pub fn connect(addr: &str) -> Result<HttpClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(HttpClient { reader: BufReader::new(stream) })
    }

    /// Sends one request and reads the reply.
    ///
    /// # Errors
    /// [`CtError::Io`] on transport failure, [`CtError::Corrupt`] on a
    /// reply the framing parser cannot make sense of.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> Result<HttpReply> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nhost: ct-server\r\ncontent-length: {}\r\n\r\n",
            body.len()
        );
        let stream = self.reader.get_mut();
        stream.write_all(head.as_bytes())?;
        stream.write_all(body.as_bytes())?;
        stream.flush()?;
        self.read_reply()
    }

    fn read_line(&mut self) -> Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(CtError::corrupt("server closed connection mid-reply"));
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(line)
    }

    fn read_reply(&mut self) -> Result<HttpReply> {
        let status_line = self.read_line()?;
        let status = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| CtError::corrupt(format!("bad status line {status_line:?}")))?;
        let mut headers = Vec::new();
        let mut content_length = 0usize;
        loop {
            let line = self.read_line()?;
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                let name = name.trim().to_ascii_lowercase();
                let value = value.trim().to_string();
                if name == "content-length" {
                    content_length = value
                        .parse()
                        .map_err(|_| CtError::corrupt(format!("bad content-length {value:?}")))?;
                }
                headers.push((name, value));
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        Ok(HttpReply { status, body, headers })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog() -> (Catalog, Vec<AttrId>) {
        let mut c = Catalog::new();
        let p = c.add_attr("partkey", 10);
        let s = c.add_attr("suppkey", 5);
        (c, vec![p, s])
    }

    #[test]
    fn query_body_renders_every_clause() {
        let (c, base) = catalog();
        let q = SliceQuery::new(vec![base[1]], vec![(base[0], 3)]);
        assert_eq!(
            query_body(&c, &q, false),
            r#"{"group_by": ["suppkey"], "where": {"partkey": 3}}"#
        );
        let ranged = SliceQuery::new(vec![base[1]], vec![]).with_range(base[0], 2, 5);
        assert_eq!(
            query_body(&c, &ranged, true),
            r#"{"group_by": ["suppkey"], "ranges": {"partkey": [2, 5]}, "format": "csv"}"#
        );
    }
}

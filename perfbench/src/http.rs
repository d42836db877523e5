//! The benchmark's own HTTP/1.1 client and JSON reader: one request per
//! connection (the server closes after every response), std only.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A response: status code and body.
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
}

impl Response {
    /// The body as UTF-8 text (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Sends one request and reads the whole response.
pub fn request(
    addr: SocketAddr,
    method: &str,
    target: &str,
    body: &[u8],
) -> Result<Response, String> {
    let io = |e: std::io::Error| format!("{method} {target}: {e}");
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(10)).map_err(io)?;
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .map_err(io)?;
    let head = format!(
        "{method} {target} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).map_err(io)?;
    stream.write_all(body).map_err(io)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(io)?;
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| format!("{method} {target}: response has no head"))?;
    let head = String::from_utf8_lossy(&raw[..split]);
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("{method} {target}: bad status line"))?;
    Ok(Response {
        status,
        body: raw[split + 4..].to_vec(),
    })
}

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parses one JSON document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing bytes at {}", p.i));
        }
        Ok(v)
    }

    /// The member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The number at `key`.
    pub fn num(&self, key: &str) -> Option<f64> {
        match self.get(key) {
            Some(Json::Num(n)) => Some(*n),
            _ => None,
        }
    }

    /// The string at `key`.
    pub fn str(&self, key: &str) -> Option<&str> {
        match self.get(key) {
            Some(Json::Str(s)) => Some(s),
            _ => None,
        }
    }

    /// The boolean at `key`.
    pub fn bool(&self, key: &str) -> Option<bool> {
        match self.get(key) {
            Some(Json::Bool(b)) => Some(*b),
            _ => None,
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.s[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        let err = |i: usize| format!("bad JSON at byte {i}");
        match self.s.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.eat("}") {
                    return Ok(Json::Obj(m));
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value()? else {
                        return Err(err(self.i));
                    };
                    self.ws();
                    if !self.eat(":") {
                        return Err(err(self.i));
                    }
                    let v = self.value()?;
                    m.insert(k, v);
                    self.ws();
                    if self.eat("}") {
                        return Ok(Json::Obj(m));
                    }
                    if !self.eat(",") {
                        return Err(err(self.i));
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut a = Vec::new();
                self.ws();
                if self.eat("]") {
                    return Ok(Json::Arr(a));
                }
                loop {
                    a.push(self.value()?);
                    self.ws();
                    if self.eat("]") {
                        return Ok(Json::Arr(a));
                    }
                    if !self.eat(",") {
                        return Err(err(self.i));
                    }
                }
            }
            Some(b'"') => {
                self.i += 1;
                let mut out = String::new();
                loop {
                    let c = *self.s.get(self.i).ok_or_else(|| err(self.i))?;
                    self.i += 1;
                    match c {
                        b'"' => return Ok(Json::Str(out)),
                        b'\\' => {
                            let e = *self.s.get(self.i).ok_or_else(|| err(self.i))?;
                            self.i += 1;
                            match e {
                                b'n' => out.push('\n'),
                                b't' => out.push('\t'),
                                b'r' => out.push('\r'),
                                b'u' => {
                                    let hex = self
                                        .s
                                        .get(self.i..self.i + 4)
                                        .ok_or_else(|| err(self.i))?;
                                    let code =
                                        u32::from_str_radix(&String::from_utf8_lossy(hex), 16)
                                            .map_err(|_| err(self.i))?;
                                    out.push(char::from_u32(code).unwrap_or('?'));
                                    self.i += 4;
                                }
                                other => out.push(char::from(other)),
                            }
                        }
                        _ => {
                            // Copy a whole UTF-8 sequence at once.
                            let start = self.i - 1;
                            while self.i < self.s.len() && !matches!(self.s[self.i], b'"' | b'\\') {
                                self.i += 1;
                            }
                            out.push_str(&String::from_utf8_lossy(&self.s[start..self.i]));
                        }
                    }
                }
            }
            Some(b't') if self.eat("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Json::Bool(false)),
            Some(b'n') if self.eat("null") => Ok(Json::Null),
            Some(_) => {
                let start = self.i;
                while self.i < self.s.len()
                    && matches!(
                        self.s[self.i],
                        b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
                    )
                {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()
                    .and_then(|t| t.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| err(start))
            }
            None => Err(err(self.i)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_job_shape() {
        let j = Json::parse(r#"{"id":3,"state":"completed","k_anonymous":true,"attack":{"expected_success":0.125},"report":{"elapsed_ms":24,"shards":[{"id":0}]}}"#).unwrap();
        assert_eq!(j.num("id"), Some(3.0));
        assert_eq!(j.str("state"), Some("completed"));
        assert_eq!(j.bool("k_anonymous"), Some(true));
        assert_eq!(
            j.get("attack").and_then(|a| a.num("expected_success")),
            Some(0.125)
        );
        assert_eq!(
            j.get("report").and_then(|r| r.num("elapsed_ms")),
            Some(24.0)
        );
    }
}

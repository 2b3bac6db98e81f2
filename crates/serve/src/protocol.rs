//! The wire protocol `trigon serve` speaks and `trigon query` drives.
//!
//! Two framings carry the same JSON messages:
//!
//! * **Framed** (default for sockets) — each message is a 4-byte
//!   big-endian length prefix followed by that many bytes of compact
//!   JSON. Self-delimiting, safe for pretty-printed payloads.
//! * **NDJSON** (`--ndjson`, default for stdio) — one compact JSON
//!   document per line. Pipe-friendly: a shell heredoc of ops is a
//!   valid session, which is how the CI smoke stage drives the daemon.
//!
//! Requests are objects with an `"op"` discriminator; responses always
//! carry `"ok"`. A failed op reports `{"ok": false, "code": C,
//! "error": MSG}` where `C` is the [`Error::exit_code`] the `trigon
//! query` client exits with — so the daemon's error taxonomy (2 bad
//! config / unloaded graph, 3 I/O, 4 malformed dataset, 5 graph too
//! large) is exactly the one-shot CLI's.

use std::io::{BufRead, Read, Write};

use trigon_core::Error;
use trigon_telemetry::Json;

/// Upper bound on a single frame; anything larger is a protocol error
/// (a desynchronized peer reads garbage lengths).
pub const MAX_FRAME_BYTES: u32 = 64 * 1024 * 1024;

/// Message framing: length-prefixed or line-delimited.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wire {
    /// 4-byte big-endian length + compact JSON.
    Framed,
    /// One compact JSON document per line.
    Ndjson,
}

impl Wire {
    /// Reads the next message; `Ok(None)` at clean end-of-stream.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] for transport failures, [`Error::Parse`] for
    /// payloads that are not JSON or frames beyond [`MAX_FRAME_BYTES`].
    pub fn read_msg<R: BufRead>(&self, r: &mut R) -> Result<Option<Json>, Error> {
        let text = match self {
            Wire::Framed => {
                let mut len = [0u8; 4];
                match r.read_exact(&mut len) {
                    Ok(()) => {}
                    Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
                    Err(e) => return Err(wire_io(e)),
                }
                let len = u32::from_be_bytes(len);
                if len > MAX_FRAME_BYTES {
                    return Err(Error::Parse(format!(
                        "frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
                    )));
                }
                // The header is untrusted: grow the buffer as body bytes
                // arrive rather than reserving `len` up front.
                let mut buf = Vec::new();
                let got = r
                    .take(u64::from(len))
                    .read_to_end(&mut buf)
                    .map_err(wire_io)?;
                if got < len as usize {
                    return Err(wire_io(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        format!("frame truncated after {got} of {len} bytes"),
                    )));
                }
                String::from_utf8(buf)
                    .map_err(|e| Error::Parse(format!("frame is not UTF-8: {e}")))?
            }
            Wire::Ndjson => loop {
                let mut line = String::new();
                if r.read_line(&mut line).map_err(wire_io)? == 0 {
                    return Ok(None);
                }
                if !line.trim().is_empty() {
                    break line;
                }
            },
        };
        let t = text.trim();
        Json::parse(t)
            .map(Some)
            .map_err(|e| Error::Parse(format!("bad message {t:?}: {e}")))
    }

    /// Writes one message with a single `write_all` and flushes.
    ///
    /// One write per message is what keeps a socket from stalling: a
    /// second write (the body after its length prefix, or the newline
    /// after the body) waits in Nagle's buffer until the peer's delayed
    /// ACK, ~40 ms.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] for transport failures.
    pub fn write_msg<W: Write>(&self, w: &mut W, msg: &Json) -> Result<(), Error> {
        let bytes = match self {
            Wire::Framed => {
                // Serialize after a placeholder, then patch the length in.
                let mut text = String::from("\0\0\0\0");
                msg.write_compact(&mut text);
                let mut bytes = text.into_bytes();
                let len = u32::try_from(bytes.len() - 4).map_err(|_| {
                    Error::Parse("message exceeds the 4 GiB frame space".to_string())
                })?;
                bytes[..4].copy_from_slice(&len.to_be_bytes());
                bytes
            }
            Wire::Ndjson => {
                let mut text = msg.to_string_compact();
                text.push('\n');
                text.into_bytes()
            }
        };
        w.write_all(&bytes).map_err(wire_io)?;
        w.flush().map_err(wire_io)
    }
}

fn wire_io(e: std::io::Error) -> Error {
    Error::Io {
        path: "<wire>".to_string(),
        source: e,
    }
}

/// Where a `load` op gets its graph.
#[derive(Debug, Clone, PartialEq)]
pub enum LoadSource {
    /// Read a dataset file on the *server's* filesystem.
    Path {
        /// File path.
        path: String,
        /// CLI format name (`auto`, `edges`, `mm`, …).
        format: String,
    },
    /// Generate one of the CLI's named models.
    Gen {
        /// Model name (`gnp`, `rmat`, `ring`, …).
        model: String,
        /// Vertex count.
        n: u32,
        /// Generator seed.
        seed: u64,
    },
}

/// One workload of a query batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryItem {
    /// Workload name (`triangles`, `clustering`, `ktruss`, …).
    pub workload: String,
    /// `k` for the parameterized workloads.
    pub k: Option<u32>,
    /// Method name (`gpu-opt`, `cpu-fast`, …).
    pub method: String,
}

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Register a graph under a name.
    Load {
        /// Registry name.
        name: String,
        /// Dataset file or generator spec.
        source: LoadSource,
    },
    /// List loaded graphs and their cache footprints.
    List,
    /// Drop a graph and everything cached for it.
    Evict {
        /// Registry name.
        name: String,
    },
    /// Run a batch of workloads over one registered graph.
    Query {
        /// Registry name of the target graph.
        graph: String,
        /// The batch; a single-workload query is a batch of one.
        items: Vec<QueryItem>,
    },
    /// Server statistics (cache and admission counters).
    Report,
    /// Stop the daemon after responding.
    Shutdown,
}

/// Parses a request message.
///
/// # Errors
///
/// [`Error::BadConfig`] for an unknown op, missing or ill-typed
/// fields, or a registry name containing the reserved `|` separator.
pub fn parse_request(msg: &Json) -> Result<Request, Error> {
    let op = str_field(msg, "op")?;
    match op.as_str() {
        "load" => {
            let name = name_field(msg)?;
            let source = if let Some(path) = opt_str(msg, "path")? {
                LoadSource::Path {
                    path,
                    format: opt_str(msg, "format")?.unwrap_or_else(|| "auto".to_string()),
                }
            } else if let Some(model) = opt_str(msg, "gen")? {
                LoadSource::Gen {
                    model,
                    n: u32_field(msg, "n")?,
                    seed: opt_u64(msg, "seed")?.unwrap_or(42),
                }
            } else {
                return Err(Error::bad_config(
                    "load needs \"path\" (a dataset file) or \"gen\" (a model name)",
                ));
            };
            Ok(Request::Load { name, source })
        }
        "list" => Ok(Request::List),
        "evict" => Ok(Request::Evict {
            name: name_field(msg)?,
        }),
        "query" => {
            let graph = str_field(msg, "graph")?;
            let items = match msg.get("batch") {
                Some(Json::Array(entries)) => {
                    if entries.is_empty() {
                        return Err(Error::bad_config("query batch is empty"));
                    }
                    entries.iter().map(query_item).collect::<Result<_, _>>()?
                }
                Some(other) => {
                    return Err(Error::bad_config(format!(
                        "query \"batch\" must be an array, got {}",
                        other.to_string_compact()
                    )));
                }
                None => vec![query_item(msg)?],
            };
            Ok(Request::Query { graph, items })
        }
        "report" => Ok(Request::Report),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(Error::bad_config(format!(
            "unknown op {other:?} (expected load|list|evict|query|report|shutdown)"
        ))),
    }
}

fn query_item(msg: &Json) -> Result<QueryItem, Error> {
    Ok(QueryItem {
        workload: opt_str(msg, "workload")?.unwrap_or_else(|| "triangles".to_string()),
        k: opt_u64(msg, "k")?
            .map(|k| u32::try_from(k).map_err(|_| Error::bad_config(format!("k {k} out of range"))))
            .transpose()?,
        method: opt_str(msg, "method")?.unwrap_or_else(|| "gpu-opt".to_string()),
    })
}

fn name_field(msg: &Json) -> Result<String, Error> {
    let name = str_field(msg, "name")?;
    if name.is_empty() || name.contains('|') {
        return Err(Error::bad_config(format!(
            "graph name {name:?} must be non-empty and free of '|'"
        )));
    }
    Ok(name)
}

fn str_field(msg: &Json, key: &str) -> Result<String, Error> {
    match msg.get(key) {
        Some(Json::Str(s)) => Ok(s.clone()),
        Some(other) => Err(Error::bad_config(format!(
            "field {key:?} must be a string, got {}",
            other.to_string_compact()
        ))),
        None => Err(Error::bad_config(format!("missing field {key:?}"))),
    }
}

fn opt_str(msg: &Json, key: &str) -> Result<Option<String>, Error> {
    match msg.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Str(s)) => Ok(Some(s.clone())),
        Some(other) => Err(Error::bad_config(format!(
            "field {key:?} must be a string, got {}",
            other.to_string_compact()
        ))),
    }
}

fn opt_u64(msg: &Json, key: &str) -> Result<Option<u64>, Error> {
    match msg.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::UInt(v)) => Ok(Some(*v)),
        Some(Json::Int(v)) if *v >= 0 => Ok(Some(*v as u64)),
        Some(other) => Err(Error::bad_config(format!(
            "field {key:?} must be an unsigned integer, got {}",
            other.to_string_compact()
        ))),
    }
}

fn u32_field(msg: &Json, key: &str) -> Result<u32, Error> {
    let v =
        opt_u64(msg, key)?.ok_or_else(|| Error::bad_config(format!("missing field {key:?}")))?;
    u32::try_from(v).map_err(|_| Error::bad_config(format!("field {key:?} = {v} out of range")))
}

/// The error response for a failed op: the client relays `code` as its
/// exit code.
#[must_use]
pub fn err_response(e: &Error) -> Json {
    let mut o = Json::object();
    o.set("ok", Json::from(false));
    // Exit codes are small positives; emit UInt so a response compares
    // equal whether inspected in memory or after a parse round trip.
    o.set("code", Json::UInt(e.exit_code().unsigned_abs().into()));
    o.set("error", Json::from(e.to_string()));
    o
}

/// An `{"ok": true}` response shell for handlers to extend.
#[must_use]
pub fn ok_response() -> Json {
    let mut o = Json::object();
    o.set("ok", Json::from(true));
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_wires_roundtrip_messages() {
        for wire in [Wire::Framed, Wire::Ndjson] {
            let mut msg = Json::object();
            msg.set("op", Json::from("list"));
            msg.set("x", Json::from(7u64));
            let mut buf = Vec::new();
            wire.write_msg(&mut buf, &msg).unwrap();
            wire.write_msg(&mut buf, &msg).unwrap();
            let mut r = std::io::Cursor::new(buf);
            assert_eq!(wire.read_msg(&mut r).unwrap(), Some(msg.clone()));
            assert_eq!(wire.read_msg(&mut r).unwrap(), Some(msg));
            assert_eq!(wire.read_msg(&mut r).unwrap(), None, "{wire:?} EOF");
        }
    }

    /// A sink that records how many `write` calls a message took.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_message_is_one_write_on_both_wires() {
        let mut msg = Json::object();
        msg.set("ok", Json::from(true));
        msg.set("graph", Json::from("g"));
        for wire in [Wire::Framed, Wire::Ndjson] {
            let mut w = CountingWriter::default();
            wire.write_msg(&mut w, &msg).unwrap();
            assert_eq!(w.writes, 1, "{wire:?}");
            wire.write_msg(&mut w, &msg).unwrap();
            assert_eq!(w.writes, 2, "{wire:?}");
            let mut r = std::io::Cursor::new(w.bytes);
            assert_eq!(wire.read_msg(&mut r).unwrap(), Some(msg.clone()));
            assert_eq!(wire.read_msg(&mut r).unwrap(), Some(msg.clone()));
        }
    }

    #[test]
    fn ndjson_skips_blank_lines_and_framed_caps_length() {
        let mut r = std::io::Cursor::new(b"\n\n{\"op\":\"list\"}\n".to_vec());
        let msg = Wire::Ndjson.read_msg(&mut r).unwrap().unwrap();
        assert_eq!(msg.get("op"), Some(&Json::from("list")));

        let mut oversized = (MAX_FRAME_BYTES + 1).to_be_bytes().to_vec();
        oversized.extend_from_slice(b"{}");
        let err = Wire::Framed
            .read_msg(&mut std::io::Cursor::new(oversized))
            .unwrap_err();
        assert!(matches!(err, Error::Parse(_)), "{err}");
    }

    #[test]
    fn parses_the_op_suite() {
        let parse = |s: &str| parse_request(&Json::parse(s).unwrap());
        assert_eq!(
            parse(r#"{"op":"load","name":"g","path":"a.mtx"}"#).unwrap(),
            Request::Load {
                name: "g".into(),
                source: LoadSource::Path {
                    path: "a.mtx".into(),
                    format: "auto".into()
                }
            }
        );
        assert_eq!(
            parse(r#"{"op":"load","name":"g","gen":"rmat","n":1024,"seed":7}"#).unwrap(),
            Request::Load {
                name: "g".into(),
                source: LoadSource::Gen {
                    model: "rmat".into(),
                    n: 1024,
                    seed: 7
                }
            }
        );
        assert_eq!(parse(r#"{"op":"list"}"#).unwrap(), Request::List);
        assert_eq!(
            parse(r#"{"op":"evict","name":"g"}"#).unwrap(),
            Request::Evict { name: "g".into() }
        );
        match parse(r#"{"op":"query","graph":"g","workload":"ktruss","k":5,"method":"cpu-fast"}"#)
            .unwrap()
        {
            Request::Query { graph, items } => {
                assert_eq!(graph, "g");
                assert_eq!(
                    items,
                    vec![QueryItem {
                        workload: "ktruss".into(),
                        k: Some(5),
                        method: "cpu-fast".into()
                    }]
                );
            }
            other => panic!("wrong request {other:?}"),
        }
        match parse(
            r#"{"op":"query","graph":"g","batch":[{"workload":"triangles"},{"workload":"clustering","method":"cpu-fast"}]}"#,
        )
        .unwrap()
        {
            Request::Query { items, .. } => {
                assert_eq!(items.len(), 2);
                assert_eq!(items[0].method, "gpu-opt", "defaults apply per item");
            }
            other => panic!("wrong request {other:?}"),
        }
        assert_eq!(parse(r#"{"op":"report"}"#).unwrap(), Request::Report);
        assert_eq!(parse(r#"{"op":"shutdown"}"#).unwrap(), Request::Shutdown);
    }

    #[test]
    fn rejects_bad_requests() {
        let parse = |s: &str| parse_request(&Json::parse(s).unwrap());
        for bad in [
            r#"{"op":"warp"}"#,
            r#"{"no_op":1}"#,
            r#"{"op":"load","name":"g"}"#,
            r#"{"op":"load","name":"a|b","path":"x"}"#,
            r#"{"op":"load","name":"g","gen":"rmat"}"#,
            r#"{"op":"query"}"#,
            r#"{"op":"query","graph":"g","batch":[]}"#,
            r#"{"op":"query","graph":"g","k":"three"}"#,
        ] {
            assert!(matches!(parse(bad), Err(Error::BadConfig(_))), "{bad}");
        }
    }

    #[test]
    fn error_response_carries_the_exit_code() {
        let e = Error::Parse("x".into());
        let r = err_response(&e);
        assert_eq!(r.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(r.get("code"), Some(&Json::UInt(4)));
    }
}

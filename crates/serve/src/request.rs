//! Wire-format decoding: a JSON request body into the engine's typed
//! [`ServiceRequest`].
//!
//! The body shape (every field of `config` optional):
//!
//! ```json
//! {
//!   "program": "suite:bs",
//!   "source": {"name": "tiny", "text": "program tiny\ncode 8\n"},
//!   "config": {
//!     "cache": "2:16:512:lru",
//!     "l2": "8:32:16384",
//!     "profile": "evaluation",
//!     "penalty": 10, "runs": 3, "seed": 77
//!   }
//! }
//! ```
//!
//! Exactly one of `program` (a `suite:NAME` spec or server-readable
//! path) and `source` (inline text) must be present. The operation comes
//! from the endpoint path, not the body.

use rtpf_engine::{
    json_escape, ConfigSpec, ProgramSource, ServiceError, ServiceOp, ServiceProfile, ServiceRequest,
};

use crate::json::Value;

/// Decodes one endpoint's request body.
///
/// # Errors
///
/// [`ServiceError::BadRequest`] naming the malformed field.
pub fn decode_request(op: &str, body: &[u8]) -> Result<ServiceRequest, ServiceError> {
    let bad = |m: String| ServiceError::BadRequest(m);
    let op = ServiceOp::parse(op).ok_or_else(|| bad(format!("unknown operation {op:?}")))?;
    let text = std::str::from_utf8(body).map_err(|_| bad("body is not utf-8".to_string()))?;
    let doc = Value::parse(text).map_err(|e| bad(e.to_string()))?;
    if !matches!(doc, Value::Obj(_)) {
        return Err(bad("request body must be a JSON object".to_string()));
    }

    let program = match (doc.get("program"), doc.get("source")) {
        (Some(spec), None) => ProgramSource::Spec(
            spec.as_str()
                .ok_or_else(|| bad("\"program\" must be a string".to_string()))?
                .to_string(),
        ),
        (None, Some(src)) => {
            let name = src
                .get("name")
                .and_then(Value::as_str)
                .ok_or_else(|| bad("\"source.name\" must be a string".to_string()))?;
            let text = src
                .get("text")
                .and_then(Value::as_str)
                .ok_or_else(|| bad("\"source.text\" must be a string".to_string()))?;
            ProgramSource::Inline {
                name: name.to_string(),
                text: text.to_string(),
            }
        }
        (Some(_), Some(_)) => {
            return Err(bad(
                "give either \"program\" or \"source\", not both".to_string()
            ))
        }
        (None, None) => return Err(bad("missing \"program\" (or inline \"source\")".to_string())),
    };

    let mut config = ConfigSpec::default();
    if let Some(c) = doc.get("config") {
        if !matches!(c, Value::Obj(_)) {
            return Err(bad("\"config\" must be an object".to_string()));
        }
        if let Some(v) = c.get("cache") {
            config.cache = v
                .as_str()
                .ok_or_else(|| bad("\"config.cache\" must be a string".to_string()))?
                .to_string();
        }
        if let Some(v) = c.get("l2") {
            config.l2 = Some(
                v.as_str()
                    .ok_or_else(|| bad("\"config.l2\" must be a string".to_string()))?
                    .to_string(),
            );
        }
        if let Some(v) = c.get("profile") {
            let name = v
                .as_str()
                .ok_or_else(|| bad("\"config.profile\" must be a string".to_string()))?;
            config.profile = ServiceProfile::parse(name)
                .ok_or_else(|| bad(format!("unknown profile {name:?}")))?;
        }
        if let Some(v) = c.get("penalty") {
            config.penalty = Some(
                v.as_u64()
                    .ok_or_else(|| bad("\"config.penalty\" must be an integer".to_string()))?,
            );
        }
        if let Some(v) = c.get("runs") {
            let runs = v
                .as_u64()
                .and_then(|n| u32::try_from(n).ok())
                .ok_or_else(|| bad("\"config.runs\" must be a u32".to_string()))?;
            config.runs = Some(runs);
        }
        if let Some(v) = c.get("seed") {
            config.seed = Some(
                v.as_u64()
                    .ok_or_else(|| bad("\"config.seed\" must be an integer".to_string()))?,
            );
        }
    }

    Ok(ServiceRequest {
        op,
        program,
        config,
    })
}

/// Renders a [`ServiceRequest`] as a request body — the client half of
/// the wire format, used by `loadgen` and the golden tests.
pub fn encode_request(req: &ServiceRequest) -> String {
    let program = match &req.program {
        ProgramSource::Spec(spec) => format!("\"program\": \"{}\"", json_escape(spec)),
        ProgramSource::Inline { name, text } => format!(
            "\"source\": {{\"name\": \"{}\", \"text\": \"{}\"}}",
            json_escape(name),
            json_escape(text)
        ),
    };
    let mut config = format!(
        "\"cache\": \"{}\", \"profile\": \"{}\"",
        json_escape(&req.config.cache),
        req.config.profile.name()
    );
    if let Some(l2) = &req.config.l2 {
        config.push_str(&format!(", \"l2\": \"{}\"", json_escape(l2)));
    }
    if let Some(p) = req.config.penalty {
        config.push_str(&format!(", \"penalty\": {p}"));
    }
    if let Some(r) = req.config.runs {
        config.push_str(&format!(", \"runs\": {r}"));
    }
    if let Some(s) = req.config.seed {
        config.push_str(&format!(", \"seed\": {s}"));
    }
    format!("{{{program}, \"config\": {{{config}}}}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decodes_a_full_request() {
        let body = br#"{"program": "suite:bs",
            "config": {"cache": "4:16:2048:plru", "l2": "8:32:16384",
                       "profile": "evaluation", "penalty": 12, "runs": 2, "seed": 9}}"#;
        let req = decode_request("optimize", body).expect("decodes");
        assert_eq!(req.op, ServiceOp::Optimize);
        assert_eq!(req.program, ProgramSource::Spec("suite:bs".to_string()));
        assert_eq!(req.config.cache, "4:16:2048:plru");
        assert_eq!(req.config.l2.as_deref(), Some("8:32:16384"));
        assert_eq!(req.config.profile, ServiceProfile::Evaluation);
        assert_eq!(
            (req.config.penalty, req.config.runs, req.config.seed),
            (Some(12), Some(2), Some(9))
        );
    }

    #[test]
    fn encode_and_decode_roundtrip() {
        let req = ServiceRequest {
            op: ServiceOp::Audit,
            program: ProgramSource::Inline {
                // Every character class the escaper must handle.
                name: "t\ti\u{1}n\"y\\".to_string(),
                text: "program tiny\ncode 8\nloop 4 { code 6 }\n".to_string(),
            },
            config: ConfigSpec {
                cache: "2:16:512".to_string(),
                l2: Some("4:16:8192:fifo".to_string()),
                profile: ServiceProfile::Sweep,
                penalty: Some(10),
                runs: None,
                seed: Some(3),
            },
        };
        let decoded = decode_request("audit", encode_request(&req).as_bytes()).expect("decodes");
        assert_eq!(decoded, req);
    }

    #[test]
    fn rejects_malformed_bodies() {
        for (op, body) in [
            ("analyze", &b"not json"[..]),
            ("analyze", b"[]"),
            ("analyze", b"{}"),
            ("analyze", br#"{"program": 7}"#),
            (
                "analyze",
                br#"{"program": "suite:bs", "source": {"name": "x", "text": "y"}}"#,
            ),
            (
                "analyze",
                br#"{"program": "suite:bs", "config": {"profile": "warp"}}"#,
            ),
            (
                "analyze",
                br#"{"program": "suite:bs", "config": {"runs": -1}}"#,
            ),
            ("teleport", b"{}"),
        ] {
            assert!(
                decode_request(op, body).is_err(),
                "{op} {:?} must be rejected",
                String::from_utf8_lossy(body)
            );
        }
    }
}

//! Helpers shared by the root test suites.

use trigon::{Json, Level, Run};

/// Removes `path` (dotted object keys) from `doc`, if present.
fn remove_path(doc: &mut Json, path: &[&str]) {
    if let Json::Object(fields) = doc {
        match path {
            [key] => fields.retain(|(k, _)| k != key),
            [key, rest @ ..] => {
                if let Some((_, child)) = fields.iter_mut().find(|(k, _)| k == key) {
                    remove_path(child, rest);
                }
            }
            [] => {}
        }
    }
}

/// A run's behaviour with host wall-clock removed: the report without
/// `timing.wall_s`, `trace.host_busy_s`, `trace.critical_path_s` and
/// `telemetry.phases_s`, and the Chrome trace without the host (pid 0)
/// events.
pub fn behaviour(run: Run<'_>) -> (u64, f64, Json) {
    let r = run.telemetry(Level::Trace).execute().unwrap();
    let mut report = r.to_json();
    for path in [
        ["timing", "wall_s"],
        ["trace", "host_busy_s"],
        ["trace", "critical_path_s"],
        ["telemetry", "phases_s"],
    ] {
        remove_path(&mut report, &path);
    }
    let mut trace = r.tracer.to_chrome_trace();
    if let Json::Object(fields) = &mut trace {
        for (k, v) in fields.iter_mut() {
            if let (true, Json::Array(events)) = (k == "traceEvents", v) {
                events.retain(|e| e.get("pid") != Some(&Json::from(0u32)));
            }
        }
    }
    let mut doc = Json::object();
    doc.set("report", report);
    doc.set("trace", trace);
    (r.count, r.modeled_s, doc)
}

/// The first JSON path at which `a` and `b` differ.
pub fn first_difference(a: &Json, b: &Json, path: &str) -> Option<String> {
    match (a, b) {
        (Json::Object(fa), Json::Object(fb)) => {
            for (k, va) in fa {
                let p = format!("{path}.{k}");
                match fb.iter().find(|(kb, _)| kb == k) {
                    Some((_, vb)) => {
                        if let Some(d) = first_difference(va, vb, &p) {
                            return Some(d);
                        }
                    }
                    None => return Some(p),
                }
            }
            (fa.len() != fb.len()).then(|| format!("{path} (key set)"))
        }
        (Json::Array(xa), Json::Array(xb)) => {
            for (i, (va, vb)) in xa.iter().zip(xb).enumerate() {
                if let Some(d) = first_difference(va, vb, &format!("{path}[{i}]")) {
                    return Some(d);
                }
            }
            (xa.len() != xb.len()).then(|| format!("{path} (length)"))
        }
        _ => (a != b).then(|| path.to_string()),
    }
}

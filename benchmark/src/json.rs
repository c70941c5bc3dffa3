//! Small helpers over the vendored serde `Value` tree.

use crate::stats::Summary;
pub use serde::Value;

pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

pub fn num(v: f64) -> Value {
    Value::Float(v)
}

pub fn int(v: u64) -> Value {
    Value::Int(v as i128)
}

pub fn text(s: impl Into<String>) -> Value {
    Value::Str(s.into())
}

/// Replace or append `key` in an object.
pub fn set(object: &mut Value, key: &str, value: Value) {
    let Value::Obj(pairs) = object else { panic!("set on a non-object JSON value") };
    match pairs.iter_mut().find(|(k, _)| k == key) {
        Some(slot) => slot.1 = value,
        None => pairs.push((key.to_string(), value)),
    }
}

pub fn pairs(v: &Value) -> &[(String, Value)] {
    match v {
        Value::Obj(pairs) => pairs,
        _ => &[],
    }
}

/// `v[key]` as a number; panics with the key when a child broke the protocol.
pub fn f64_at(v: &Value, key: &str) -> f64 {
    v.get(key).and_then(Value::as_f64).unwrap_or_else(|| panic!("no number at {key:?}"))
}

pub fn summary(s: &Summary) -> Value {
    let mut v = obj([
        ("median", num(s.median)),
        ("q1", num(s.q1)),
        ("q3", num(s.q3)),
        ("n", int(s.n as u64)),
    ]);
    if let Some(p95) = s.p95 {
        set(&mut v, "p95", num(p95));
    }
    v
}

pub fn parse(s: &str) -> Result<Value, String> {
    serde_json::from_str::<Value>(s).map_err(|e| e.to_string())
}

pub fn compact(v: &Value) -> String {
    serde_json::to_string(v).expect("a Value always serializes")
}

pub fn pretty(v: &Value) -> String {
    serde_json::to_string_pretty(v).expect("a Value always serializes")
}

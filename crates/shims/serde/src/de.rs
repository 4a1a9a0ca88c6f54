//! Deserialization half of the shim: trait shapes mirror real serde, with the
//! whole input surfaced as one [`Value`] via [`Deserializer::into_value`].

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::fmt;
use std::hash::{BuildHasher, Hash};
use std::rc::Rc;
use std::sync::Arc;

use crate::value::{from_value, Number, Value};

/// Mirror of `serde::de::Error`.
pub trait Error: Sized {
    fn custom<T: fmt::Display>(msg: T) -> Self;
}

/// Mirror of `serde::Deserializer`, collapsed to one required method.
pub trait Deserializer<'de>: Sized {
    type Error: Error;

    /// Surrender the parsed value tree.
    fn into_value(self) -> Result<Value, Self::Error>;
}

/// Mirror of `serde::Deserialize`.
pub trait Deserialize<'de>: Sized {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error>;
}

/// Mirror of `serde::de::DeserializeOwned`.
pub trait DeserializeOwned: for<'de> Deserialize<'de> {}
impl<T> DeserializeOwned for T where T: for<'de> Deserialize<'de> {}

fn type_err<T, E: Error>(expected: &str, got: &Value) -> Result<T, E> {
    let got = match got {
        Value::Null => "null".to_string(),
        Value::Bool(_) => "bool".to_string(),
        Value::Number(n) => format!("number {n:?}"),
        Value::String(s) => format!("string {s:?}"),
        Value::Array(_) => "array".to_string(),
        Value::Object(_) => "object".to_string(),
    };
    Err(E::custom(format!("expected {expected}, got {got}")))
}

macro_rules! de_uint {
    ($($t:ty),*) => {$(
        impl<'de> Deserialize<'de> for $t {
            fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
                let v = d.into_value()?;
                match &v {
                    Value::Number(n) => n
                        .as_u64()
                        .and_then(|u| <$t>::try_from(u).ok())
                        .map_or_else(|| type_err(stringify!($t), &v), Ok),
                    _ => type_err(stringify!($t), &v),
                }
            }
        }
    )*};
}
de_uint!(u8, u16, u32, u64, usize);

macro_rules! de_int {
    ($($t:ty),*) => {$(
        impl<'de> Deserialize<'de> for $t {
            fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
                let v = d.into_value()?;
                match &v {
                    Value::Number(n) => n
                        .as_i64()
                        .and_then(|i| <$t>::try_from(i).ok())
                        .map_or_else(|| type_err(stringify!($t), &v), Ok),
                    _ => type_err(stringify!($t), &v),
                }
            }
        }
    )*};
}
de_int!(i8, i16, i32, i64, isize);

impl<'de> Deserialize<'de> for f64 {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let v = d.into_value()?;
        match &v {
            Value::Number(n) => Ok(n.as_f64()),
            // serde_json maps non-finite floats to null on write; accept the
            // round-trip back as NaN rather than failing the whole payload.
            Value::Null => Ok(f64::NAN),
            _ => type_err("f64", &v),
        }
    }
}

impl<'de> Deserialize<'de> for f32 {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        f64::deserialize(d).map(|f| f as f32)
    }
}

impl<'de> Deserialize<'de> for bool {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let v = d.into_value()?;
        v.as_bool().map_or_else(|| type_err("bool", &v), Ok)
    }
}

impl<'de> Deserialize<'de> for String {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        match d.into_value()? {
            Value::String(s) => Ok(s),
            v => type_err("string", &v),
        }
    }
}

impl<'de> Deserialize<'de> for char {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let s = String::deserialize(d)?;
        let mut it = s.chars();
        match (it.next(), it.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(D::Error::custom("expected single-char string")),
        }
    }
}

impl<'de> Deserialize<'de> for () {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let _ = d.into_value()?;
        Ok(())
    }
}

impl<'de, T: DeserializeOwned> Deserialize<'de> for Option<T> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        match d.into_value()? {
            Value::Null => Ok(None),
            v => Ok(Some(
                from_value(v).map_err(|e| D::Error::custom(e.to_string()))?,
            )),
        }
    }
}

impl<'de, T: DeserializeOwned> Deserialize<'de> for Vec<T> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        match d.into_value()? {
            Value::Array(a) => a
                .into_iter()
                .map(|v| from_value(v).map_err(|e| D::Error::custom(format!("array element: {e}"))))
                .collect(),
            v => type_err("array", &v),
        }
    }
}

impl<'de, T: DeserializeOwned> Deserialize<'de> for VecDeque<T> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        Vec::<T>::deserialize(d).map(VecDeque::from)
    }
}

impl<'de, T: DeserializeOwned + Ord> Deserialize<'de> for BTreeSet<T> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        Vec::<T>::deserialize(d).map(|v| v.into_iter().collect())
    }
}

impl<'de, T: DeserializeOwned + Eq + Hash, H: BuildHasher + Default> Deserialize<'de>
    for HashSet<T, H>
{
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        Vec::<T>::deserialize(d).map(|v| v.into_iter().collect())
    }
}

impl<'de, T: DeserializeOwned, const N: usize> Deserialize<'de> for [T; N] {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let v = Vec::<T>::deserialize(d)?;
        <[T; N]>::try_from(v)
            .map_err(|v| D::Error::custom(format!("expected array of length {N}, got {}", v.len())))
    }
}

impl<'de, T: DeserializeOwned> Deserialize<'de> for Box<T> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        T::deserialize(d).map(Box::new)
    }
}

impl<'de, T: DeserializeOwned> Deserialize<'de> for Arc<T> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        T::deserialize(d).map(Arc::new)
    }
}

impl<'de, T: DeserializeOwned> Deserialize<'de> for Rc<T> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        T::deserialize(d).map(Rc::new)
    }
}

/// Re-hydrate a map key from its stringified JSON-object-key form: first as
/// a string (covers String and string-newtype keys), then as an integer.
fn key_from_string<K: DeserializeOwned, E: Error>(k: &str) -> Result<K, E> {
    if let Ok(key) = from_value(Value::String(k.to_owned())) {
        return Ok(key);
    }
    if let Ok(u) = k.parse::<u64>() {
        if let Ok(key) = from_value(Value::Number(Number::PosInt(u))) {
            return Ok(key);
        }
    }
    if let Ok(i) = k.parse::<i64>() {
        if let Ok(key) = from_value(Value::Number(Number::NegInt(i))) {
            return Ok(key);
        }
    }
    Err(E::custom(format!("cannot deserialize map key from {k:?}")))
}

fn de_map_pairs<K: DeserializeOwned, V: DeserializeOwned, E: Error>(
    v: Value,
) -> Result<Vec<(K, V)>, E> {
    match v {
        Value::Object(m) => m
            .into_iter()
            .map(|(k, v)| {
                let key = key_from_string(&k)?;
                let val =
                    from_value(v).map_err(|e| E::custom(format!("map value for {k:?}: {e}")))?;
                Ok((key, val))
            })
            .collect(),
        v => type_err("object", &v),
    }
}

impl<'de, K, V, H> Deserialize<'de> for HashMap<K, V, H>
where
    K: DeserializeOwned + Eq + Hash,
    V: DeserializeOwned,
    H: BuildHasher + Default,
{
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        Ok(de_map_pairs::<K, V, D::Error>(d.into_value()?)?
            .into_iter()
            .collect())
    }
}

impl<'de, K, V> Deserialize<'de> for BTreeMap<K, V>
where
    K: DeserializeOwned + Ord,
    V: DeserializeOwned,
{
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        Ok(de_map_pairs::<K, V, D::Error>(d.into_value()?)?
            .into_iter()
            .collect())
    }
}

macro_rules! de_tuple {
    ($(($len:literal; $($n:tt $t:ident),+))*) => {$(
        impl<'de, $($t: DeserializeOwned),+> Deserialize<'de> for ($($t,)+) {
            fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
                match d.into_value()? {
                    Value::Array(mut a) if a.len() == $len => Ok(($(
                        from_value::<$t>(std::mem::take(&mut a[$n])).map_err(|e| {
                            D::Error::custom(format!("tuple element: {e}"))
                        })?,
                    )+)),
                    v => type_err(concat!("array of length ", $len), &v),
                }
            }
        }
    )*};
}
de_tuple! {
    (1; 0 T0)
    (2; 0 T0, 1 T1)
    (3; 0 T0, 1 T1, 2 T2)
    (4; 0 T0, 1 T1, 2 T2, 3 T3)
    (5; 0 T0, 1 T1, 2 T2, 3 T3, 4 T4)
}

impl<'de> Deserialize<'de> for std::time::Duration {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let v = d.into_value()?;
        let secs = v
            .get("secs")
            .and_then(Value::as_u64)
            .ok_or_else(|| D::Error::custom("Duration: missing secs"))?;
        let nanos = v.get("nanos").and_then(Value::as_u64).unwrap_or(0) as u32;
        Ok(std::time::Duration::new(secs, nanos))
    }
}

// Keep `Number` usable directly in derived containers.
impl<'de> Deserialize<'de> for Number {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        match d.into_value()? {
            Value::Number(n) => Ok(n),
            v => type_err("number", &v),
        }
    }
}

impl crate::ser::Serialize for Number {
    fn serialize<S: crate::ser::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_value(Value::Number(*self))
    }
    fn write_json(&self, out: &mut String) {
        crate::value::write_number(*self, out);
    }
}

//! Serialization half of the shim: same trait shapes as real serde, but every
//! serializer bottoms out in [`Serializer::serialize_value`]. Compact JSON
//! text skips the value tree: [`Serialize::write_json`] writes it straight
//! from the type.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

use crate::value::{to_value, write_escaped, write_number, Map, Number, Value};

/// Mirror of `serde::ser::Error`.
pub trait Error: Sized {
    fn custom<T: fmt::Display>(msg: T) -> Self;
}

/// Mirror of `serde::Serializer`, collapsed to one required method.
pub trait Serializer: Sized {
    type Ok;
    type Error: Error;

    /// Consume a fully-built value tree.
    fn serialize_value(self, v: Value) -> Result<Self::Ok, Self::Error>;

    fn serialize_str(self, v: &str) -> Result<Self::Ok, Self::Error> {
        self.serialize_value(Value::String(v.to_owned()))
    }
    fn serialize_bool(self, v: bool) -> Result<Self::Ok, Self::Error> {
        self.serialize_value(Value::Bool(v))
    }
    fn serialize_u64(self, v: u64) -> Result<Self::Ok, Self::Error> {
        self.serialize_value(Value::Number(Number::PosInt(v)))
    }
    fn serialize_i64(self, v: i64) -> Result<Self::Ok, Self::Error> {
        self.serialize_value(Value::from(v))
    }
    fn serialize_f64(self, v: f64) -> Result<Self::Ok, Self::Error> {
        self.serialize_value(Value::from(v))
    }
    fn serialize_unit(self) -> Result<Self::Ok, Self::Error> {
        self.serialize_value(Value::Null)
    }
    fn serialize_none(self) -> Result<Self::Ok, Self::Error> {
        self.serialize_value(Value::Null)
    }
}

/// Mirror of `serde::Serialize`.
pub trait Serialize {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error>;

    /// Append compact JSON text to `out`, byte-identical to rendering
    /// [`to_value`] with [`Value::to_json_compact`]. The default does
    /// exactly that; primitives, sequences, `BTreeMap`, `Value` and derived
    /// types override it to write without building the tree.
    fn write_json(&self, out: &mut String) {
        to_value(self).write_json(out);
    }
}

/// Write items as a JSON array.
fn write_seq<'a, T: Serialize + 'a>(items: impl IntoIterator<Item = &'a T>, out: &mut String) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item.write_json(out);
    }
    out.push(']');
}

// --- primitive impls ---

macro_rules! ser_number {
    ($($t:ty => $n:ident($wide:ty)),*) => {$(
        impl Serialize for $t {
            fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                serializer.serialize_value(Value::from(*self))
            }
            fn write_json(&self, out: &mut String) {
                write_number(Number::$n(*self as $wide), out);
            }
        }
    )*};
}
ser_number!(
    u8 => PosInt(u64), u16 => PosInt(u64), u32 => PosInt(u64), u64 => PosInt(u64),
    usize => PosInt(u64), i8 => NegInt(i64), i16 => NegInt(i64), i32 => NegInt(i64),
    i64 => NegInt(i64), isize => NegInt(i64), f32 => Float(f64), f64 => Float(f64)
);

impl Serialize for bool {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_value(Value::from(*self))
    }
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl Serialize for str {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(self)
    }
    fn write_json(&self, out: &mut String) {
        write_escaped(self, out);
    }
}

impl Serialize for String {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(self)
    }
    fn write_json(&self, out: &mut String) {
        write_escaped(self, out);
    }
}

impl Serialize for char {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(&self.to_string())
    }
    fn write_json(&self, out: &mut String) {
        write_escaped(self.encode_utf8(&mut [0; 4]), out);
    }
}

impl Serialize for () {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_unit()
    }
    fn write_json(&self, out: &mut String) {
        out.push_str("null");
    }
}

macro_rules! ser_deref {
    ($($ptr:ty),*) => {$(
        impl<T: Serialize + ?Sized> Serialize for $ptr {
            fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                (**self).serialize(serializer)
            }
            fn write_json(&self, out: &mut String) {
                (**self).write_json(out);
            }
        }
    )*};
}
ser_deref!(&T, Box<T>, Arc<T>, Rc<T>);

impl<T: Serialize> Serialize for Option<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        match self {
            Some(t) => serializer.serialize_value(to_value(t)),
            None => serializer.serialize_none(),
        }
    }
    fn write_json(&self, out: &mut String) {
        match self {
            Some(t) => t.write_json(out),
            None => out.push_str("null"),
        }
    }
}

macro_rules! ser_seq {
    ($(impl<$($g:ident),*> for $seq:ty;)*) => {$(
        impl<$($g),*> Serialize for $seq
        where
            T: Serialize,
        {
            fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                serializer.serialize_value(Value::Array(self.iter().map(to_value).collect()))
            }
            fn write_json(&self, out: &mut String) {
                write_seq(self, out);
            }
        }
    )*};
}
ser_seq! {
    impl<T> for [T];
    impl<T> for Vec<T>;
    impl<T> for std::collections::VecDeque<T>;
    impl<T> for std::collections::BTreeSet<T>;
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        self.as_slice().serialize(serializer)
    }
    fn write_json(&self, out: &mut String) {
        write_seq(self, out);
    }
}

impl<T: Serialize, H> Serialize for std::collections::HashSet<T, H> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        // Sort for deterministic output; hash-set order is arbitrary.
        let mut items: Vec<Value> = self.iter().map(to_value).collect();
        items.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
        serializer.serialize_value(Value::Array(items))
    }
}

macro_rules! ser_tuple {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                serializer.serialize_value(Value::Array(vec![$(to_value(&self.$n)),+]))
            }
            fn write_json(&self, out: &mut String) {
                out.push('[');
                $(
                    if $n > 0 {
                        out.push(',');
                    }
                    self.$n.write_json(out);
                )+
                out.push(']');
            }
        }
    )*};
}
ser_tuple! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
    (0 A, 1 B, 2 C, 3 D, 4 E)
}

/// JSON object keys must be strings: stringify string-ish and integer keys,
/// reject everything else at runtime (mirrors serde_json's behavior).
fn key_string<K: Serialize>(k: &K) -> Result<String, String> {
    match to_value(k) {
        Value::String(s) => Ok(s),
        Value::Number(n) => Ok(match n {
            Number::PosInt(v) => v.to_string(),
            Number::NegInt(v) => v.to_string(),
            Number::Float(v) => v.to_string(),
        }),
        other => Err(format!("map key must be string-like, got {other:?}")),
    }
}

impl<K: Serialize, V: Serialize, H> Serialize for HashMap<K, V, H> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut m = Map::new();
        for (k, v) in self {
            let k = key_string(k).map_err(S::Error::custom)?;
            m.insert(k, to_value(v));
        }
        serializer.serialize_value(Value::Object(m))
    }
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut m = Map::new();
        for (k, v) in self {
            let k = key_string(k).map_err(S::Error::custom)?;
            m.insert(k, to_value(v));
        }
        serializer.serialize_value(Value::Object(m))
    }

    /// Members are written in the order the tree's object keeps them,
    /// sorted by key string, which is not the map's own order for integer
    /// keys ("10" before "9"). A key that is not string-like takes the
    /// tree path, as the default does.
    fn write_json(&self, out: &mut String) {
        let mut members = Vec::with_capacity(self.len());
        for (k, v) in self {
            match key_string(k) {
                Ok(key) => members.push((key, v)),
                Err(_) => return to_value(self).write_json(out),
            }
        }
        members.sort_by(|a, b| a.0.cmp(&b.0));
        out.push('{');
        for (i, (key, v)) in members.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_escaped(key, out);
            out.push(':');
            v.write_json(out);
        }
        out.push('}');
    }
}

impl Serialize for std::time::Duration {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut m = Map::new();
        m.insert("secs".into(), Value::from(self.as_secs()));
        m.insert("nanos".into(), Value::from(self.subsec_nanos()));
        serializer.serialize_value(Value::Object(m))
    }
}

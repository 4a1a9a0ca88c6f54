//! The JSON-like value tree: the data model of `Serialize::serialize`, of
//! dynamic documents, and one of the two sources a [`Deserializer`] reads.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

use crate::de::{
    DeserializeOwned, DeserializeVariant, Deserializer, Kind, MapAccess, SeqAccess, Token,
};
use crate::ser::{Serialize, Serializer};

/// Object type: sorted map keeps serialized output deterministic.
pub type Map = BTreeMap<String, Value>;

/// A parsed or to-be-serialized value.
#[derive(Clone, Debug, PartialEq, Default)]
pub enum Value {
    #[default]
    Null,
    Bool(bool),
    Number(Number),
    String(String),
    Array(Vec<Value>),
    Object(Map),
}

/// JSON number: integers keep full 64-bit precision, everything else is f64.
#[derive(Clone, Copy, Debug)]
pub enum Number {
    PosInt(u64),
    NegInt(i64),
    Float(f64),
}

impl Number {
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Number::PosInt(n) => Some(n),
            Number::NegInt(n) => u64::try_from(n).ok(),
            Number::Float(_) => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Number::PosInt(n) => i64::try_from(n).ok(),
            Number::NegInt(n) => Some(n),
            Number::Float(_) => None,
        }
    }

    pub fn as_f64(&self) -> f64 {
        match *self {
            Number::PosInt(n) => n as f64,
            Number::NegInt(n) => n as f64,
            Number::Float(f) => f,
        }
    }
}

impl PartialEq for Number {
    fn eq(&self, other: &Self) -> bool {
        match (self.as_i64(), other.as_i64()) {
            (Some(a), Some(b)) => return a == b,
            (None, None) => {}
            _ => {
                // One side integral, other side float (or out-of-range int).
                if let (Some(a), Some(b)) = (self.as_u64(), other.as_u64()) {
                    return a == b;
                }
            }
        }
        self.as_f64() == other.as_f64()
    }
}

impl Value {
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    pub fn is_string(&self) -> bool {
        matches!(self, Value::String(_))
    }

    pub fn is_number(&self) -> bool {
        matches!(self, Value::Number(_))
    }

    pub fn is_boolean(&self) -> bool {
        matches!(self, Value::Bool(_))
    }

    pub fn is_array(&self) -> bool {
        matches!(self, Value::Array(_))
    }

    pub fn is_object(&self) -> bool {
        matches!(self, Value::Object(_))
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) => n.as_i64(),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// `get` by object key or array index, like `serde_json::Value::get`.
    pub fn get<I: ValueIndex>(&self, index: I) -> Option<&Value> {
        index.index_into(self)
    }

    /// JSON-pointer lookup (RFC 6901), like `serde_json::Value::pointer`.
    pub fn pointer(&self, pointer: &str) -> Option<&Value> {
        if pointer.is_empty() {
            return Some(self);
        }
        if !pointer.starts_with('/') {
            return None;
        }
        pointer
            .split('/')
            .skip(1)
            .map(|t| t.replace("~1", "/").replace("~0", "~"))
            .try_fold(self, |v, token| match v {
                Value::Object(m) => m.get(&token),
                Value::Array(a) => a.get(token.parse::<usize>().ok()?),
                _ => None,
            })
    }
}

/// Index key for [`Value::get`] and the `Index` impls.
pub trait ValueIndex {
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value>;
}

impl ValueIndex for &str {
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value> {
        match v {
            Value::Object(m) => m.get(*self),
            _ => None,
        }
    }
}

impl ValueIndex for String {
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value> {
        self.as_str().index_into(v)
    }
}

impl ValueIndex for usize {
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value> {
        match v {
            Value::Array(a) => a.get(*self),
            _ => None,
        }
    }
}

pub(crate) static NULL: Value = Value::Null;

impl<I: ValueIndex> std::ops::Index<I> for Value {
    type Output = Value;
    fn index(&self, index: I) -> &Value {
        index.index_into(self).unwrap_or(&NULL)
    }
}

// --- comparisons against plain literals (used heavily by tests) ---

impl PartialEq<str> for Value {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == Some(other)
    }
}
impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}
impl PartialEq<String> for Value {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == Some(other.as_str())
    }
}
impl PartialEq<bool> for Value {
    fn eq(&self, other: &bool) -> bool {
        self.as_bool() == Some(*other)
    }
}
impl PartialEq<f64> for Value {
    fn eq(&self, other: &f64) -> bool {
        self.as_f64() == Some(*other)
    }
}

macro_rules! int_eq {
    ($($t:ty),*) => {$(
        impl PartialEq<$t> for Value {
            fn eq(&self, other: &$t) -> bool {
                match self {
                    Value::Number(n) => match i128::from(*other) {
                        o if o >= 0 => n.as_u64() == Some(o as u64),
                        o => n.as_i64() == Some(o as i64),
                    },
                    _ => false,
                }
            }
        }
    )*};
}
int_eq!(i8, i16, i32, i64, u8, u16, u32, u64);
impl PartialEq<usize> for Value {
    fn eq(&self, other: &usize) -> bool {
        *self == (*other as u64)
    }
}
impl PartialEq<isize> for Value {
    fn eq(&self, other: &isize) -> bool {
        *self == (*other as i64)
    }
}

impl Value {
    /// Compact JSON rendering (no whitespace), shared with the vendored
    /// `serde_json`. Lives here so `Value` can implement `Display`.
    pub fn to_json_compact(&self) -> String {
        let mut out = String::new();
        write_tree(self, &mut out, None, 0);
        out
    }

    /// Pretty JSON rendering with two-space indentation.
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::new();
        write_tree(self, &mut out, Some("  "), 0);
        out
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_json_compact())
    }
}

fn write_tree(v: &Value, out: &mut String, indent: Option<&str>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Number(n) => write_number(*n, out),
        Value::String(s) => write_escaped(s, out),
        Value::Array(a) => {
            if a.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in a.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_tree(item, out, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Value::Object(m) => {
            if m.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, item)) in m.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_escaped(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_tree(item, out, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<&str>, depth: usize) {
    if let Some(pad) = indent {
        out.push('\n');
        for _ in 0..depth {
            out.push_str(pad);
        }
    }
}

/// Render a number: integers in decimal, finite floats in Rust's shortest
/// round-trip `Display` (no `.0` forced on integral floats; the parser
/// accepts both), non-finite floats as `null`.
pub(crate) fn write_number(n: Number, out: &mut String) {
    use fmt::Write as _;
    // Writing into a `String` cannot fail.
    let _ = match n {
        Number::PosInt(v) => write!(out, "{v}"),
        Number::NegInt(v) => write!(out, "{v}"),
        Number::Float(f) if f.is_finite() => write!(out, "{f}"),
        Number::Float(_) => {
            out.push_str("null");
            Ok(())
        }
    };
}

/// Render a string literal. Unescaped runs are copied whole; every byte
/// that needs an escape is ASCII, so the run boundaries are char boundaries.
pub(crate) fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let short = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0x08 => Some("\\b"),
            0x0c => Some("\\f"),
            0x00..=0x1f => None,
            _ => continue,
        };
        out.push_str(&s[run..i]);
        match short {
            Some(escape) => out.push_str(escape),
            None => {
                use fmt::Write as _;
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Error used by value-level (de)serialization.
#[derive(Debug, Clone)]
pub struct Error(pub String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl crate::ser::Error for Error {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        Error(msg.to_string())
    }
}

impl crate::de::Error for Error {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        Error(msg.to_string())
    }
}

/// Serializer whose output *is* the value tree. Cannot fail.
pub struct ValueSerializer;

impl Serializer for ValueSerializer {
    type Ok = Value;
    type Error = Error;
    fn serialize_value(self, v: Value) -> Result<Value, Error> {
        Ok(v)
    }
}

/// Reading a tree: `&Value` is a [`Deserializer`] that borrows from it.
impl<'de> Deserializer<'de> for &'de Value {
    type Error = Error;
    type Seq = std::slice::Iter<'de, Value>;
    type Map = MapReader<'de>;

    fn kind(&mut self) -> Result<Kind, Error> {
        Ok(match self {
            Value::Null => Kind::Null,
            Value::Bool(_) => Kind::Bool,
            Value::Number(_) => Kind::Number,
            Value::String(_) => Kind::String,
            Value::Array(_) => Kind::Array,
            Value::Object(_) => Kind::Object,
        })
    }

    fn token(self) -> Result<Token<'de, Self::Seq, Self::Map>, Error> {
        Ok(match self {
            Value::Null => Token::Null,
            Value::Bool(b) => Token::Bool(*b),
            Value::Number(n) => Token::Number(*n),
            Value::String(s) => Token::Str(Cow::Borrowed(s)),
            Value::Array(a) => Token::Array(a.iter()),
            Value::Object(m) => Token::Object(MapReader {
                members: m.iter(),
                value: &NULL,
            }),
        })
    }

    fn raw(self) -> Result<Cow<'de, str>, Error> {
        Ok(Cow::Owned(self.to_json_compact()))
    }

    fn skip(self) -> Result<(), Error> {
        Ok(())
    }

    fn value(self) -> Result<Value, Error> {
        Ok(self.clone())
    }
}

impl<'de> SeqAccess<'de> for std::slice::Iter<'de, Value> {
    type Error = Error;

    fn next_element<T: crate::Deserialize<'de>>(
        &mut self,
    ) -> Result<Option<Result<T, Error>>, Error> {
        Ok(self.next().map(T::deserialize))
    }

    fn size_hint(&self) -> Option<usize> {
        Some(self.len())
    }
}

/// Members of a tree's object, in sorted key order.
pub struct MapReader<'de> {
    members: std::collections::btree_map::Iter<'de, String, Value>,
    /// The value of the member whose key was read last.
    value: &'de Value,
}

impl<'de> MapAccess<'de> for MapReader<'de> {
    type Error = Error;

    fn next_key(&mut self) -> Result<Option<Cow<'de, str>>, Error> {
        Ok(self.members.next().map(|(key, value)| {
            self.value = value;
            Cow::Borrowed(key.as_str())
        }))
    }

    fn next_value<T: crate::Deserialize<'de>>(&mut self) -> Result<Result<T, Error>, Error> {
        Ok(T::deserialize(self.value))
    }

    fn skip_value(&mut self) -> Result<(), Error> {
        Ok(())
    }

    /// The map is sorted: its first member has the smallest key.
    fn variant<T: DeserializeVariant<'de>>(mut self) -> Result<Option<T>, Error> {
        self.members
            .next()
            .map(|(tag, content)| T::deserialize_variant(tag, content))
            .transpose()
    }
}

/// Serialize anything into a [`Value`]. Infallible by construction.
pub fn to_value<T: Serialize + ?Sized>(t: &T) -> Value {
    t.serialize(ValueSerializer).unwrap_or(Value::Null)
}

/// Deserialize a `T` out of an owned [`Value`].
pub fn from_value<T: DeserializeOwned>(v: Value) -> Result<T, Error> {
    T::deserialize(&v)
}

// The value tree itself round-trips through Serialize/Deserialize untouched,
// so derived containers may hold `Value` fields.
impl Serialize for Value {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_value(self.clone())
    }

    fn write_json(&self, out: &mut String) {
        write_tree(self, out, None, 0);
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::String(s.to_owned())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::String(s)
    }
}
impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<f64> for Value {
    fn from(f: f64) -> Self {
        if f.is_finite() {
            Value::Number(Number::Float(f))
        } else {
            Value::Null
        }
    }
}
impl From<f32> for Value {
    fn from(f: f32) -> Self {
        Value::from(f as f64)
    }
}
impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Self {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}
impl<T: Into<Value> + Clone> From<&[T]> for Value {
    fn from(v: &[T]) -> Self {
        Value::Array(v.iter().cloned().map(Into::into).collect())
    }
}

macro_rules! int_from {
    (unsigned: $($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(n: $t) -> Self { Value::Number(Number::PosInt(n as u64)) }
        }
    )*};
    (signed: $($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(n: $t) -> Self {
                if n >= 0 {
                    Value::Number(Number::PosInt(n as u64))
                } else {
                    Value::Number(Number::NegInt(n as i64))
                }
            }
        }
    )*};
}
int_from!(unsigned: u8, u16, u32, u64, usize);
int_from!(signed: i8, i16, i32, i64, isize);

//! Deserialization half of the shim: trait shapes mirror real serde.
//!
//! A [`Deserializer`] is a pull reader over one JSON value. Two sources
//! implement it: `&mut` the `serde_json` text reader, which decodes
//! straight from JSON text, and `&Value`, which reads a parsed tree without
//! cloning it. Every [`Deserialize`] impl (primitives and containers here,
//! derived types through `serde_derive`) is written once against the pull
//! interface, so both sources decode the same values and fail with the same
//! messages.
//!
//! Error rules, fixed by what parsing the whole document into a
//! `BTreeMap`-backed [`Value`] first would give:
//! - a syntax error anywhere in the document wins over a shape error;
//! - among shape errors in a struct, the first field in declared order wins;
//! - a repeated key's last value wins;
//! - a missing key decodes from `null`;
//! - an externally tagged enum object's tag is its smallest key.
//!
//! The accesses keep these rules cheap to follow: decoding an element or a
//! member value returns `Result<Result<T, E>, E>`. The outer error means the
//! input is malformed and reading must stop; the inner one is the value's
//! own shape error, after which the value has been consumed and reading may
//! go on. A decoder that fails may leave its source anywhere; the access
//! that called it puts it back.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::fmt;
use std::hash::{BuildHasher, Hash};
use std::rc::Rc;
use std::sync::Arc;

use crate::value::{Number, Value};

/// Mirror of `serde::de::Error`.
pub trait Error: Sized + fmt::Display {
    fn custom<T: fmt::Display>(msg: T) -> Self;
}

/// The JSON type of a value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Null,
    Bool,
    Number,
    String,
    Array,
    Object,
}

/// One value read as far as its type: scalars whole, arrays and objects as
/// accesses over their contents.
pub enum Token<'de, S, M> {
    Null,
    Bool(bool),
    Number(Number),
    /// Borrowed from the source when it needs no unescaping.
    Str(Cow<'de, str>),
    Array(S),
    Object(M),
}

/// Mirror of `serde::Deserializer`: a pull reader over one value.
pub trait Deserializer<'de>: Sized {
    type Error: Error;
    type Seq: SeqAccess<'de, Error = Self::Error>;
    type Map: MapAccess<'de, Error = Self::Error>;

    /// The type of the next value, without consuming it.
    fn kind(&mut self) -> Result<Kind, Self::Error>;

    /// Read the next value as a token. An array or object is then read to
    /// its end through the access, unless decoding fails.
    fn token(self) -> Result<Token<'de, Self::Seq, Self::Map>, Self::Error>;

    /// The next value's compact JSON text: borrowed from a text source,
    /// rendered from a tree.
    fn raw(self) -> Result<Cow<'de, str>, Self::Error>;

    /// Consume the next value, checking it but keeping nothing.
    fn skip(self) -> Result<(), Self::Error> {
        match self.token()? {
            Token::Array(mut seq) => while seq.next_element::<IgnoredAny>()?.is_some() {},
            Token::Object(mut map) => {
                while map.next_key()?.is_some() {
                    map.skip_value()?;
                }
            }
            _ => {}
        }
        Ok(())
    }

    /// Materialise the next value as a [`Value`] tree.
    fn value(self) -> Result<Value, Self::Error> {
        Ok(match self.token()? {
            Token::Null => Value::Null,
            Token::Bool(b) => Value::Bool(b),
            Token::Number(n) => Value::Number(n),
            Token::Str(s) => Value::String(s.into_owned()),
            Token::Array(mut seq) => {
                let mut items = Vec::new();
                while let Some(item) = seq.next_element()? {
                    items.push(item?);
                }
                Value::Array(items)
            }
            Token::Object(mut map) => {
                let mut members = crate::value::Map::new();
                while let Some(key) = map.next_key()? {
                    members.insert(key.into_owned(), map.next_value()??);
                }
                Value::Object(members)
            }
        })
    }
}

/// Elements of an array, in order.
pub trait SeqAccess<'de> {
    type Error: Error;

    /// Decode the next element, or `None` past the last one (and on every
    /// call after that). Errors nest as described in the module docs.
    #[allow(clippy::type_complexity)]
    fn next_element<T: Deserialize<'de>>(
        &mut self,
    ) -> Result<Option<Result<T, Self::Error>>, Self::Error>;

    /// Elements left, when the source knows.
    fn size_hint(&self) -> Option<usize> {
        None
    }
}

/// Members of an object, in source order.
pub trait MapAccess<'de>: Sized {
    type Error: Error;

    /// The next member's key, or `None` past the last one. Each key is
    /// followed by exactly one [`MapAccess::next_value`] or
    /// [`MapAccess::skip_value`].
    fn next_key(&mut self) -> Result<Option<Cow<'de, str>>, Self::Error>;

    /// Decode the value of the member whose key was just read.
    fn next_value<T: Deserialize<'de>>(&mut self) -> Result<Result<T, Self::Error>, Self::Error>;

    /// Skip the value of the member whose key was just read.
    fn skip_value(&mut self) -> Result<(), Self::Error>;

    /// Read this untouched object as an externally tagged enum: the tag is
    /// the smallest key, the content that key's (last) value. `None` for an
    /// empty object.
    fn variant<T: DeserializeVariant<'de>>(self) -> Result<Option<T>, Self::Error>;
}

/// Mirror of `serde::Deserialize`.
pub trait Deserialize<'de>: Sized {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error>;
}

/// Decodes an externally tagged enum's content once its tag is known. The
/// derive implements it for every enum beside [`Deserialize`].
pub trait DeserializeVariant<'de>: Sized {
    fn deserialize_variant<D: Deserializer<'de>>(tag: &str, content: D) -> Result<Self, D::Error>;
}

/// Mirror of `serde::de::DeserializeOwned`.
pub trait DeserializeOwned: for<'de> Deserialize<'de> {}
impl<T> DeserializeOwned for T where T: for<'de> Deserialize<'de> {}

/// Mirror of `serde::de::IgnoredAny`: decodes any value, keeping nothing.
pub struct IgnoredAny;

impl<'de> Deserialize<'de> for IgnoredAny {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        d.skip().map(|()| IgnoredAny)
    }
}

// --- helpers the derive expands against ---

/// Prefix an error with where it happened: `"{ctx}: {e}"`.
#[doc(hidden)]
pub fn context<E: Error>(ctx: &str, e: E) -> E {
    E::custom(format!("{ctx}: {e}"))
}

/// A struct field's decoded slot: its last value, or `null` when the key
/// never appeared.
#[doc(hidden)]
pub fn field<'de, T: Deserialize<'de>, E: Error>(
    slot: Option<Result<T, E>>,
    ctx: &str,
) -> Result<T, E> {
    match slot {
        Some(decoded) => decoded,
        None => T::deserialize(&crate::value::NULL).map_err(E::custom),
    }
    .map_err(|e| context(ctx, e))
}

/// Skip the elements left in `seq`, reporting whether there were any.
#[doc(hidden)]
pub fn has_more<'de, S: SeqAccess<'de>>(seq: &mut S) -> Result<bool, S::Error> {
    let mut more = false;
    while seq.next_element::<IgnoredAny>()?.is_some() {
        more = true;
    }
    Ok(more)
}

fn describe<S, M>(token: &Token<'_, S, M>) -> String {
    match token {
        Token::Null => "null".to_string(),
        Token::Bool(_) => "bool".to_string(),
        Token::Number(n) => format!("number {n:?}"),
        Token::Str(s) => format!("string {s:?}"),
        Token::Array(_) => "array".to_string(),
        Token::Object(_) => "object".to_string(),
    }
}

fn type_err<T, E: Error, S, M>(expected: &str, got: &Token<'_, S, M>) -> Result<T, E> {
    Err(E::custom(format!(
        "expected {expected}, got {}",
        describe(got)
    )))
}

macro_rules! de_uint {
    ($($t:ty),*) => {$(
        impl<'de> Deserialize<'de> for $t {
            fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
                match d.token()? {
                    Token::Number(n) => match n.as_u64().and_then(|u| <$t>::try_from(u).ok()) {
                        Some(v) => Ok(v),
                        None => type_err(stringify!($t), &Token::<(), ()>::Number(n)),
                    },
                    other => type_err(stringify!($t), &other),
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
                match d.token()? {
                    Token::Number(n) => match n.as_i64().and_then(|i| <$t>::try_from(i).ok()) {
                        Some(v) => Ok(v),
                        None => type_err(stringify!($t), &Token::<(), ()>::Number(n)),
                    },
                    other => type_err(stringify!($t), &other),
                }
            }
        }
    )*};
}
de_int!(i8, i16, i32, i64, isize);

impl<'de> Deserialize<'de> for f64 {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        match d.token()? {
            Token::Number(n) => Ok(n.as_f64()),
            // serde_json maps non-finite floats to null on write; accept the
            // round-trip back as NaN rather than failing the whole payload.
            Token::Null => Ok(f64::NAN),
            other => type_err("f64", &other),
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
        match d.token()? {
            Token::Bool(b) => Ok(b),
            other => type_err("bool", &other),
        }
    }
}

impl<'de> Deserialize<'de> for String {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        match d.token()? {
            Token::Str(s) => Ok(s.into_owned()),
            other => type_err("string", &other),
        }
    }
}

impl<'de> Deserialize<'de> for char {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let s = match d.token()? {
            Token::Str(s) => s,
            other => return type_err("string", &other),
        };
        let mut it = s.chars();
        match (it.next(), it.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(D::Error::custom("expected single-char string")),
        }
    }
}

impl<'de> Deserialize<'de> for () {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        d.skip()
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Option<T> {
    fn deserialize<D: Deserializer<'de>>(mut d: D) -> Result<Self, D::Error> {
        match d.kind()? {
            Kind::Null => d.skip().map(|()| None),
            _ => T::deserialize(d).map(Some),
        }
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Vec<T> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let mut seq = match d.token()? {
            Token::Array(seq) => seq,
            other => return type_err("array", &other),
        };
        let mut items = Vec::with_capacity(seq.size_hint().unwrap_or(0));
        while let Some(item) = seq.next_element()? {
            items.push(item.map_err(|e| context("array element", e))?);
        }
        Ok(items)
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for VecDeque<T> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        Vec::<T>::deserialize(d).map(VecDeque::from)
    }
}

impl<'de, T: Deserialize<'de> + Ord> Deserialize<'de> for BTreeSet<T> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        Vec::<T>::deserialize(d).map(|v| v.into_iter().collect())
    }
}

impl<'de, T: Deserialize<'de> + Eq + Hash, H: BuildHasher + Default> Deserialize<'de>
    for HashSet<T, H>
{
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        Vec::<T>::deserialize(d).map(|v| v.into_iter().collect())
    }
}

impl<'de, T: Deserialize<'de>, const N: usize> Deserialize<'de> for [T; N] {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let v = Vec::<T>::deserialize(d)?;
        <[T; N]>::try_from(v)
            .map_err(|v| D::Error::custom(format!("expected array of length {N}, got {}", v.len())))
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Box<T> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        T::deserialize(d).map(Box::new)
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Arc<T> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        T::deserialize(d).map(Arc::new)
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Rc<T> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        T::deserialize(d).map(Rc::new)
    }
}

/// Re-hydrate a map key from its stringified JSON-object-key form: first as
/// a string (covers String and string-newtype keys), then as an integer.
fn key_from_string<K: DeserializeOwned, E: Error>(k: &str) -> Result<K, E> {
    if let Ok(key) = K::deserialize(&Value::String(k.to_owned())) {
        return Ok(key);
    }
    if let Ok(u) = k.parse::<u64>() {
        if let Ok(key) = K::deserialize(&Value::Number(Number::PosInt(u))) {
            return Ok(key);
        }
    }
    if let Ok(i) = k.parse::<i64>() {
        if let Ok(key) = K::deserialize(&Value::Number(Number::NegInt(i))) {
            return Ok(key);
        }
    }
    Err(E::custom(format!("cannot deserialize map key from {k:?}")))
}

/// An object's members as `(key, value)` pairs in sorted key order, each
/// key's last value winning; the first failure in that order is reported.
fn de_map_pairs<'de, K: DeserializeOwned, V: Deserialize<'de>, D: Deserializer<'de>>(
    d: D,
) -> Result<Vec<(K, V)>, D::Error> {
    let mut map = match d.token()? {
        Token::Object(map) => map,
        other => return type_err("object", &other),
    };
    let mut members: BTreeMap<Cow<'de, str>, Result<V, D::Error>> = BTreeMap::new();
    while let Some(key) = map.next_key()? {
        let value = map.next_value()?;
        members.insert(key, value);
    }
    members
        .into_iter()
        .map(|(k, v)| {
            let key = key_from_string(&k)?;
            let val = v.map_err(|e| D::Error::custom(format!("map value for {k:?}: {e}")))?;
            Ok((key, val))
        })
        .collect()
}

impl<'de, K, V, H> Deserialize<'de> for HashMap<K, V, H>
where
    K: DeserializeOwned + Eq + Hash,
    V: Deserialize<'de>,
    H: BuildHasher + Default,
{
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        Ok(de_map_pairs(d)?.into_iter().collect())
    }
}

impl<'de, K, V> Deserialize<'de> for BTreeMap<K, V>
where
    K: DeserializeOwned + Ord,
    V: Deserialize<'de>,
{
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        Ok(de_map_pairs(d)?.into_iter().collect())
    }
}

macro_rules! de_tuple {
    ($(($len:literal; $($n:tt $t:ident $e:ident),+))*) => {$(
        impl<'de, $($t: Deserialize<'de>),+> Deserialize<'de> for ($($t,)+) {
            fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
                let mut seq = match d.token()? {
                    Token::Array(seq) => seq,
                    other => return type_err(concat!("array of length ", $len), &other),
                };
                $(let $e = seq.next_element::<$t>()?;)+
                match ($($e,)+ has_more(&mut seq)?) {
                    ($(Some($e),)+ false) => {
                        Ok(($($e.map_err(|e| context("tuple element", e))?,)+))
                    }
                    _ => Err(D::Error::custom(concat!(
                        "expected array of length ", $len, ", got array"
                    ))),
                }
            }
        }
    )*};
}
de_tuple! {
    (1; 0 T0 e0)
    (2; 0 T0 e0, 1 T1 e1)
    (3; 0 T0 e0, 1 T1 e1, 2 T2 e2)
    (4; 0 T0 e0, 1 T1 e1, 2 T2 e2, 3 T3 e3)
    (5; 0 T0 e0, 1 T1 e1, 2 T2 e2, 3 T3 e3, 4 T4 e4)
}

/// Any value, read the way `Value::as_u64` reads it: a `u64` or nothing.
struct LooseU64(Option<u64>);

impl<'de> Deserialize<'de> for LooseU64 {
    fn deserialize<D: Deserializer<'de>>(mut d: D) -> Result<Self, D::Error> {
        match d.kind()? {
            Kind::Number => Number::deserialize(d).map(|n| LooseU64(n.as_u64())),
            _ => d.skip().map(|()| LooseU64(None)),
        }
    }
}

impl<'de> Deserialize<'de> for std::time::Duration {
    /// `{"secs": u64, "nanos": u32}`; a missing or non-integer `nanos` reads
    /// as 0. `nanos` past `u32` and a carry that overflows `secs` are
    /// refused rather than truncated or left to panic.
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let (mut secs, mut nanos) = (None, None);
        if let Token::Object(mut map) = d.token()? {
            while let Some(key) = map.next_key()? {
                match &*key {
                    "secs" => secs = map.next_value::<LooseU64>()??.0,
                    "nanos" => nanos = map.next_value::<LooseU64>()??.0,
                    _ => map.skip_value()?,
                }
            }
        }
        let secs = secs.ok_or_else(|| D::Error::custom("Duration: missing secs"))?;
        let nanos = nanos.unwrap_or(0);
        let nanos = u32::try_from(nanos)
            .map_err(|_| D::Error::custom(format!("Duration: nanos {nanos} out of range")))?;
        secs.checked_add(u64::from(nanos / 1_000_000_000))
            .ok_or_else(|| D::Error::custom("Duration: overflow"))?;
        Ok(std::time::Duration::new(secs, nanos))
    }
}

// Keep `Number` usable directly in derived containers.
impl<'de> Deserialize<'de> for Number {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        match d.token()? {
            Token::Number(n) => Ok(n),
            other => type_err("number", &other),
        }
    }
}

impl<'de> Deserialize<'de> for Value {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        d.value()
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

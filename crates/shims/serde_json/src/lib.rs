//! Offline stand-in for `serde_json`: JSON text for the vendored serde
//! facade. Covers the API subset this workspace uses:
//! `to_string`/`to_string_pretty`/`to_vec`/`to_value`,
//! `from_str`/`from_slice`/`from_value`, `Value`, [`RawValue`], and the
//! `json!` macro.
//!
//! Reading decodes a typed target straight from the text through the
//! shim's pull interface; a [`Value`] is built only for a target (or field)
//! typed `Value`, and a [`RawValue`] keeps a nested document as checked
//! text until it is decoded. As in real serde_json, [`from_str`] decodes a
//! `T: Deserialize<'a>` from a `&'a str`, so a decoded type may borrow
//! from its input (strings without escapes arrive as borrowed
//! `Cow<'a, str>` tokens). Compact output is written straight from the
//! type by [`Serialize::write_json`], byte-identical to rendering the
//! tree, and pretty output renders the tree.
//!
//! Float output uses Rust's shortest round-trip `Display`, so an
//! f64 → JSON → f64 round trip is bit-exact — a property the checkpoint
//! subsystem's "identical trailing trajectory" guarantee leans on. That
//! includes −0.0: it is written `-0`, and the reader takes the literal
//! `-0` as the float −0.0, as real serde_json's does (an integer target
//! refuses it). So every compact `Value` rendering is a fixed point of
//! parse-then-render, which is what lets a checkpoint keep a site's state
//! as the reply's text and still store the bytes re-rendering it gives.

mod parse;

use std::fmt;

use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};

pub use serde::value::{Map, Number, Value};

/// Error for both parse and data-shape failures.
#[derive(Debug, Clone)]
pub struct Error(pub(crate) String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl serde::de::Error for Error {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        Error(msg.to_string())
    }
}

impl From<serde::value::Error> for Error {
    fn from(e: serde::value::Error) -> Self {
        Error(e.0)
    }
}

pub type Result<T> = std::result::Result<T, Error>;

pub fn to_value<T: Serialize>(value: T) -> Result<Value> {
    Ok(serde::value::to_value(&value))
}

pub fn from_value<T: DeserializeOwned>(value: Value) -> Result<T> {
    serde::value::from_value(value).map_err(Error::from)
}

pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    value.write_json(&mut out);
    Ok(out)
}

pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    Ok(serde::value::to_value(value).to_json_pretty())
}

pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>> {
    to_string(value).map(String::into_bytes)
}

/// Decode `T` from JSON text; `T` may borrow from `s`.
pub fn from_str<'a, T: Deserialize<'a>>(s: &'a str) -> Result<T> {
    parse::from_str(s)
}

pub fn from_slice<'a, T: Deserialize<'a>>(bytes: &'a [u8]) -> Result<T> {
    let s = std::str::from_utf8(bytes).map_err(|e| Error(format!("invalid utf-8: {e}")))?;
    from_str(s)
}

/// A JSON document kept as text, modelled on real serde_json's `RawValue`.
///
/// Decoding one checks the document's syntax and copies its text, without
/// decoding it further; [`RawValue::get`] hands the text to a later
/// [`from_str`]. Writing one copies the text verbatim. Read from a `Value`,
/// it holds the value's compact rendering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawValue(Box<str>);

impl RawValue {
    /// The document's JSON text.
    pub fn get(&self) -> &str {
        &self.0
    }
}

impl Serialize for RawValue {
    fn serialize<S: serde::Serializer>(
        &self,
        serializer: S,
    ) -> std::result::Result<S::Ok, S::Error> {
        let value: Value = from_str(&self.0).map_err(serde::ser::Error::custom)?;
        serializer.serialize_value(value)
    }

    fn write_json(&self, out: &mut String) {
        out.push_str(&self.0);
    }
}

impl<'de> serde::Deserialize<'de> for RawValue {
    fn deserialize<D: serde::Deserializer<'de>>(d: D) -> std::result::Result<Self, D::Error> {
        d.raw().map(|text| RawValue(text.into()))
    }
}

#[doc(hidden)]
pub fn __value_from<T: Serialize>(t: &T) -> Value {
    serde::value::to_value(t)
}

/// Build a [`Value`] from JSON-looking syntax, like `serde_json::json!`.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    (true) => { $crate::Value::Bool(true) };
    (false) => { $crate::Value::Bool(false) };
    ([ $($tt:tt)* ]) => { $crate::Value::Array($crate::json_array![ $($tt)* ]) };
    ({ $($tt:tt)* }) => { $crate::Value::Object($crate::json_object!( $($tt)* )) };
    ($other:expr) => { $crate::__value_from(&$other) };
}

#[doc(hidden)]
#[macro_export]
macro_rules! json_array {
    // Done: no more elements.
    (@acc $vec:ident) => {};
    // Trailing comma.
    (@acc $vec:ident ,) => {};
    // Next element is a nested array / object / literal keyword / expression;
    // capture one full element as tt* up to a top-level comma via tt-munching
    // on the three container/keyword forms first, then fall back to expr.
    (@acc $vec:ident [ $($elem:tt)* ] $(, $($rest:tt)*)?) => {
        $vec.push($crate::json!([ $($elem)* ]));
        $crate::json_array!(@acc $vec $($($rest)*)?);
    };
    (@acc $vec:ident { $($elem:tt)* } $(, $($rest:tt)*)?) => {
        $vec.push($crate::json!({ $($elem)* }));
        $crate::json_array!(@acc $vec $($($rest)*)?);
    };
    (@acc $vec:ident null $(, $($rest:tt)*)?) => {
        $vec.push($crate::Value::Null);
        $crate::json_array!(@acc $vec $($($rest)*)?);
    };
    (@acc $vec:ident $elem:expr $(, $($rest:tt)*)?) => {
        $vec.push($crate::__value_from(&$elem));
        $crate::json_array!(@acc $vec $($($rest)*)?);
    };
    ( $($tt:tt)* ) => {{
        #[allow(unused_mut)]
        let mut vec: ::std::vec::Vec<$crate::Value> = ::std::vec::Vec::new();
        $crate::json_array!(@acc vec $($tt)*);
        vec
    }};
}

#[doc(hidden)]
#[macro_export]
macro_rules! json_object {
    (@acc $map:ident) => {};
    (@acc $map:ident ,) => {};
    (@acc $map:ident $key:tt : [ $($elem:tt)* ] $(, $($rest:tt)*)?) => {
        $map.insert(::std::string::String::from($key), $crate::json!([ $($elem)* ]));
        $crate::json_object!(@acc $map $($($rest)*)?);
    };
    (@acc $map:ident $key:tt : { $($elem:tt)* } $(, $($rest:tt)*)?) => {
        $map.insert(::std::string::String::from($key), $crate::json!({ $($elem)* }));
        $crate::json_object!(@acc $map $($($rest)*)?);
    };
    (@acc $map:ident $key:tt : null $(, $($rest:tt)*)?) => {
        $map.insert(::std::string::String::from($key), $crate::Value::Null);
        $crate::json_object!(@acc $map $($($rest)*)?);
    };
    (@acc $map:ident $key:tt : $val:expr $(, $($rest:tt)*)?) => {
        $map.insert(::std::string::String::from($key), $crate::__value_from(&$val));
        $crate::json_object!(@acc $map $($($rest)*)?);
    };
    ( $($tt:tt)* ) => {{
        #[allow(unused_mut)]
        let mut map = $crate::Map::new();
        $crate::json_object!(@acc map $($tt)*);
        map
    }};
}

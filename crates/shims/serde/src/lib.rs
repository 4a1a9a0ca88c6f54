//! Offline stand-in for `serde`.
//!
//! The build container has no crates.io access, so this workspace vendors a
//! small, value-based serialization facade under the `serde` name. It keeps
//! the trait *shapes* of real serde (`Serialize::serialize<S: Serializer>`,
//! `Deserialize::deserialize<D: Deserializer<'de>>`) so hand-written impls
//! compile unchanged, but the data model is a single JSON-like [`value::Value`]
//! rather than serde's full visitor machinery. `serde_json` (also vendored)
//! parses JSON text into that `Value`, and writes compact text straight from
//! the type through [`Serialize::write_json`].

pub mod de;
pub mod ser;
pub mod value;

pub use de::{Deserialize, Deserializer};
pub use ser::{Serialize, Serializer};
pub use serde_derive::{Deserialize, Serialize};

#[doc(hidden)]
pub mod __private {
    //! Helpers the derive macro expands against.
    pub use crate::value::{from_value, to_value, Map, Value};
}

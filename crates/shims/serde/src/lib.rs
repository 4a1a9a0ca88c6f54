//! Offline stand-in for `serde`.
//!
//! The build container has no crates.io access, so this workspace vendors a
//! small serialization facade under the `serde` name. It keeps the trait
//! *shapes* of real serde (`Serialize::serialize<S: Serializer>`,
//! `Deserialize::deserialize<D: Deserializer<'de>>`) so hand-written impls
//! compile unchanged, without serde's full visitor machinery.
//!
//! Writing: [`Serialize::serialize`] builds a JSON-like [`value::Value`]
//! tree, and [`Serialize::write_json`] writes compact text straight from the
//! type. Reading: a [`Deserializer`] is a pull reader (see [`de`]) over
//! either JSON text (`serde_json`'s reader) or a borrowed `Value`, and one
//! `Deserialize` impl per type serves both. `Value` itself is only built
//! for documents that are dynamic by nature, or when asked for.

pub mod de;
pub mod ser;
pub mod value;

pub use de::{Deserialize, Deserializer};
pub use ser::{Serialize, Serializer};
pub use serde_derive::{Deserialize, Serialize};

#[doc(hidden)]
pub mod __private {
    //! Helpers the derive macro expands against.
    pub use crate::value::{to_value, Map, Value};
}

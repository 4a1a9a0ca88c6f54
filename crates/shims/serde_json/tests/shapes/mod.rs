//! Every derive shape the shim supports, and a deterministic generator of
//! values of them, shared by the writer and reader tests.

#![allow(dead_code)]

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use serde::{Deserialize, Serialize};
use serde_json::{Number, Value};

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Named {
    pub zeta: u64,
    pub alpha: String,
    pub mid: Option<f64>,
    pub list: Vec<i64>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tuple(pub u8, pub String, pub Vec<Option<bool>>);

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Newtype(pub f64);

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Unit;

/// Renamed keys sort differently from the Rust names: `aB`, `requestId`,
/// `zeroBased`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "camelCase")]
pub struct Renamed {
    pub request_id: u64,
    pub zero_based: bool,
    pub a_b: i32,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum Shape {
    Unit,
    UnitTwo,
    Newtype(Named),
    Pair(i64, String),
    Empty(),
    Struct { zeta: f64, alpha: Vec<Shape> },
}

/// Nested containers, a `Value` field and a map with integer keys (which
/// sort as strings: "10" before "9").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Nested {
    pub body: Value,
    pub maybe: Option<Option<u8>>,
    pub grid: Vec<Vec<f64>>,
    pub by_id: BTreeMap<u64, String>,
    pub set: BTreeSet<i32>,
    pub queue: VecDeque<char>,
    pub pair: (u16, Tuple),
    pub boxed: Box<Renamed>,
    pub unit: (),
    pub extremes: (u64, i64, f32),
}

pub const FLOATS: [f64; 12] = [
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    -0.0,
    0.0,
    1e300,
    -1e-300,
    5e-324,
    f64::MAX,
    0.1,
    1e21,
    123_456_789.0,
];

pub const CHARS: [char; 16] = [
    'a', 'Z', '"', '\\', '\n', '\r', '\t', '\u{8}', '\u{c}', '\u{1}', '\u{1f}', '\u{7f}', 'é',
    '日', '😀', '\u{2028}',
];

/// Deterministic source for generated values (xorshift64*).
pub struct Gen(pub u64);

impl Gen {
    pub fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn coin(&mut self) -> bool {
        self.next() & 1 == 1
    }

    pub fn f64(&mut self) -> f64 {
        match self.below(3) {
            0 => FLOATS[self.below(FLOATS.len())],
            1 => f64::from_bits(self.next()),
            _ => self.next() as i64 as f64 / 1e3,
        }
    }

    pub fn u64(&mut self) -> u64 {
        match self.below(3) {
            0 => [0, 1, u64::MAX][self.below(3)],
            _ => self.next() >> self.below(64),
        }
    }

    pub fn i64(&mut self) -> i64 {
        match self.below(3) {
            0 => [i64::MIN, -1, 0, i64::MAX][self.below(4)],
            _ => (self.next() as i64) >> self.below(64),
        }
    }

    pub fn string(&mut self) -> String {
        (0..self.below(8))
            .map(|_| CHARS[self.below(CHARS.len())])
            .collect()
    }

    pub fn vec<T>(&mut self, item: impl Fn(&mut Gen) -> T) -> Vec<T> {
        (0..self.below(4)).map(|_| item(self)).collect()
    }

    pub fn value(&mut self, depth: u32) -> Value {
        match self.below(if depth == 0 { 5 } else { 7 }) {
            0 => Value::Null,
            1 => Value::Bool(self.coin()),
            2 => Value::Number(match self.below(3) {
                0 => Number::PosInt(self.u64()),
                1 => Number::NegInt(self.i64().min(-1)),
                _ => Number::Float(self.f64()),
            }),
            3 | 4 => Value::String(self.string()),
            5 => Value::Array(self.vec(|g| g.value(depth - 1))),
            _ => Value::Object(
                self.vec(|g| (g.string(), g.value(depth - 1)))
                    .into_iter()
                    .collect(),
            ),
        }
    }

    pub fn named(&mut self) -> Named {
        Named {
            zeta: self.u64(),
            alpha: self.string(),
            mid: self.coin().then(|| self.f64()),
            list: self.vec(Gen::i64),
        }
    }

    pub fn tuple(&mut self) -> Tuple {
        Tuple(
            self.next() as u8,
            self.string(),
            self.vec(|g| g.coin().then(|| g.coin())),
        )
    }

    pub fn renamed(&mut self) -> Renamed {
        Renamed {
            request_id: self.u64(),
            zero_based: self.coin(),
            a_b: self.i64() as i32,
        }
    }

    pub fn shape(&mut self, depth: u32) -> Shape {
        match self.below(if depth == 0 { 5 } else { 6 }) {
            0 => Shape::Unit,
            1 => Shape::UnitTwo,
            2 => Shape::Newtype(self.named()),
            3 => Shape::Pair(self.i64(), self.string()),
            4 => Shape::Empty(),
            _ => Shape::Struct {
                zeta: self.f64(),
                alpha: self.vec(|g| g.shape(depth - 1)),
            },
        }
    }

    pub fn nested(&mut self) -> Nested {
        Nested {
            body: self.value(3),
            maybe: match self.below(3) {
                0 => None,
                1 => Some(None),
                _ => Some(Some(self.next() as u8)),
            },
            grid: self.vec(|g| g.vec(Gen::f64)),
            by_id: self
                .vec(|g| (g.u64() % 20, g.string()))
                .into_iter()
                .collect(),
            set: self.vec(|g| g.i64() as i32).into_iter().collect(),
            queue: self.vec(|g| CHARS[g.below(CHARS.len())]).into(),
            pair: (self.next() as u16, self.tuple()),
            boxed: Box::new(self.renamed()),
            unit: (),
            extremes: (self.u64(), self.i64(), self.f64() as f32),
        }
    }
}

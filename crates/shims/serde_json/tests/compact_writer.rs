//! `to_string` writes compact JSON straight from the type; these tests pin
//! it byte for byte to rendering the `Value` tree, across every derive
//! shape and the edge values of each primitive, and pin the decoder's
//! error messages.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use proptest::prelude::*;
use serde::{Deserialize, Serialize};
use serde_json::{Number, Value};

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Named {
    zeta: u64,
    alpha: String,
    mid: Option<f64>,
    list: Vec<i64>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Tuple(u8, String, Vec<Option<bool>>);

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Newtype(f64);

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Unit;

/// Renamed keys sort differently from the Rust names: `aB`, `requestId`,
/// `zeroBased`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "camelCase")]
struct Renamed {
    request_id: u64,
    zero_based: bool,
    a_b: i32,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
enum Shape {
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
struct Nested {
    body: Value,
    maybe: Option<Option<u8>>,
    grid: Vec<Vec<f64>>,
    by_id: BTreeMap<u64, String>,
    set: BTreeSet<i32>,
    queue: VecDeque<char>,
    pair: (u16, Tuple),
    boxed: Box<Renamed>,
    unit: (),
    extremes: (u64, i64, f32),
}

const FLOATS: [f64; 12] = [
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

const CHARS: [char; 16] = [
    'a', 'Z', '"', '\\', '\n', '\r', '\t', '\u{8}', '\u{c}', '\u{1}', '\u{1f}', '\u{7f}', 'é',
    '日', '😀', '\u{2028}',
];

/// Deterministic source for generated values (xorshift64*).
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn coin(&mut self) -> bool {
        self.next() & 1 == 1
    }

    fn f64(&mut self) -> f64 {
        match self.below(3) {
            0 => FLOATS[self.below(FLOATS.len())],
            1 => f64::from_bits(self.next()),
            _ => self.next() as i64 as f64 / 1e3,
        }
    }

    fn u64(&mut self) -> u64 {
        match self.below(3) {
            0 => [0, 1, u64::MAX][self.below(3)],
            _ => self.next() >> self.below(64),
        }
    }

    fn i64(&mut self) -> i64 {
        match self.below(3) {
            0 => [i64::MIN, -1, 0, i64::MAX][self.below(4)],
            _ => (self.next() as i64) >> self.below(64),
        }
    }

    fn string(&mut self) -> String {
        (0..self.below(8))
            .map(|_| CHARS[self.below(CHARS.len())])
            .collect()
    }

    fn vec<T>(&mut self, item: impl Fn(&mut Gen) -> T) -> Vec<T> {
        (0..self.below(4)).map(|_| item(self)).collect()
    }

    fn value(&mut self, depth: u32) -> Value {
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

    fn named(&mut self) -> Named {
        Named {
            zeta: self.u64(),
            alpha: self.string(),
            mid: self.coin().then(|| self.f64()),
            list: self.vec(Gen::i64),
        }
    }

    fn tuple(&mut self) -> Tuple {
        Tuple(
            self.next() as u8,
            self.string(),
            self.vec(|g| g.coin().then(|| g.coin())),
        )
    }

    fn renamed(&mut self) -> Renamed {
        Renamed {
            request_id: self.u64(),
            zero_based: self.coin(),
            a_b: self.i64() as i32,
        }
    }

    fn shape(&mut self, depth: u32) -> Shape {
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

    fn nested(&mut self) -> Nested {
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

/// The direct writer and the `Value` path agree byte for byte.
fn same_bytes<T: Serialize>(x: &T) -> Result<(), TestCaseError> {
    let direct = serde_json::to_string(x).unwrap();
    let via_tree = serde_json::to_value(x).unwrap().to_json_compact();
    prop_assert_eq!(direct, via_tree);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]
    #[test]
    fn to_string_matches_the_value_tree_rendering(seed in any::<u64>()) {
        let mut g = Gen(seed | 1);
        same_bytes(&g.named())?;
        same_bytes(&g.tuple())?;
        same_bytes(&Newtype(g.f64()))?;
        same_bytes(&Unit)?;
        same_bytes(&g.renamed())?;
        same_bytes(&g.shape(3))?;
        same_bytes(&g.nested())?;
        same_bytes(&g.value(4))?;
        same_bytes(&g.string())?;
        same_bytes(&g.vec(|g| g.shape(1)))?;
        same_bytes(&Some(vec![g.u64()]))?;
    }
}

#[test]
fn edge_values_render_as_the_value_path_does() {
    assert_eq!(serde_json::to_string(&f64::NAN).unwrap(), "null");
    assert_eq!(serde_json::to_string(&f64::INFINITY).unwrap(), "null");
    assert_eq!(serde_json::to_string(&f64::NEG_INFINITY).unwrap(), "null");
    assert_eq!(serde_json::to_string(&-0.0f64).unwrap(), "-0");
    assert_eq!(
        serde_json::to_string(&1e300).unwrap(),
        format!("1{}", "0".repeat(300))
    );
    assert_eq!(
        serde_json::to_string(&u64::MAX).unwrap(),
        "18446744073709551615"
    );
    assert_eq!(
        serde_json::to_string(&i64::MIN).unwrap(),
        "-9223372036854775808"
    );
    assert_eq!(
        serde_json::to_string("q\"b\\n\n\u{1}é日").unwrap(),
        r#""q\"b\\n\n\u0001é日""#
    );
    let by_id: BTreeMap<u64, u8> = [(9, 1), (10, 2)].into_iter().collect();
    assert_eq!(serde_json::to_string(&by_id).unwrap(), r#"{"10":2,"9":1}"#);
    assert_eq!(
        serde_json::to_string(&Renamed {
            request_id: 7,
            zero_based: true,
            a_b: -1
        })
        .unwrap(),
        r#"{"aB":-1,"requestId":7,"zeroBased":true}"#
    );
    assert_eq!(
        serde_json::to_string(&Shape::Struct {
            zeta: 0.5,
            alpha: vec![Shape::UnitTwo, Shape::Empty()],
        })
        .unwrap(),
        r#"{"struct":{"alpha":["unit_two",{"empty":[]}],"zeta":0.5}}"#
    );
}

#[test]
fn every_derive_shape_decodes_what_it_wrote() {
    let mut g = Gen(97);
    let tame = |x: f64| if x.is_finite() && x != 0.0 { x } else { 1.5 };
    for _ in 0..64 {
        let mut named = g.named();
        named.mid = named.mid.map(tame);
        let shape = match g.shape(2) {
            Shape::Struct { zeta, alpha } => Shape::Struct {
                zeta: tame(zeta),
                alpha: alpha
                    .into_iter()
                    .filter(|s| !matches!(s, Shape::Struct { .. } | Shape::Newtype(_)))
                    .collect(),
            },
            Shape::Newtype(_) => Shape::Newtype(named.clone()),
            other => other,
        };
        let renamed = g.renamed();
        let tuple = g.tuple();
        assert_eq!(roundtrip(&named), named);
        assert_eq!(roundtrip(&shape), shape);
        assert_eq!(roundtrip(&renamed), renamed);
        assert_eq!(roundtrip(&tuple), tuple);
        assert_eq!(roundtrip(&Unit), Unit);
        assert_eq!(
            roundtrip(&(tuple.clone(), renamed.clone())),
            (tuple, renamed)
        );
    }
}

fn roundtrip<T: Serialize + serde::de::DeserializeOwned>(x: &T) -> T {
    serde_json::from_str(&serde_json::to_string(x).unwrap()).unwrap()
}

fn decode_err<T: serde::de::DeserializeOwned + std::fmt::Debug>(json: &str) -> String {
    serde_json::from_str::<T>(json).unwrap_err().to_string()
}

#[test]
fn decode_errors_name_the_failing_struct_field() {
    assert_eq!(
        decode_err::<Named>(r#"{"zeta":"x","alpha":"a","mid":null,"list":[]}"#),
        r#"Named.zeta: expected u64, got string "x""#
    );
    assert_eq!(
        decode_err::<Named>(r#"{"zeta":1,"alpha":"a","mid":null}"#),
        "Named.list: expected array, got null"
    );
    assert_eq!(
        decode_err::<Renamed>(r#"{"aB":1,"requestId":2,"zeroBased":3}"#),
        "Renamed.zero_based: expected bool, got number PosInt(3)"
    );
    assert_eq!(decode_err::<Named>("[]"), "Named: expected object");
    assert_eq!(
        decode_err::<Newtype>(r#""x""#),
        r#"Newtype: expected f64, got string "x""#
    );
    assert_eq!(
        decode_err::<Tuple>(r#"[1,"s",[true,3]]"#),
        "Tuple.2: array element: expected bool, got number PosInt(3)"
    );
    assert_eq!(decode_err::<Tuple>("[1]"), "Tuple: expected array of 3");
}

#[test]
fn decode_errors_name_the_failing_array_element() {
    assert_eq!(
        decode_err::<Vec<u8>>("[1,300]"),
        "array element: expected u8, got number PosInt(300)"
    );
    assert_eq!(
        decode_err::<Named>(r#"{"zeta":1,"alpha":"a","mid":null,"list":[1,"x"]}"#),
        r#"Named.list: array element: expected i64, got string "x""#
    );
    assert_eq!(
        decode_err::<(u8, bool)>("[1,2]"),
        "tuple element: expected bool, got number PosInt(2)"
    );
    assert_eq!(
        decode_err::<(u8, bool)>("[1]"),
        "expected array of length 2, got array"
    );
}

#[test]
fn decode_errors_name_the_failing_enum_variant() {
    assert_eq!(
        decode_err::<Shape>(r#""nope""#),
        r#"Shape: unknown variant "nope""#
    );
    assert_eq!(
        decode_err::<Shape>(r#"{"nope":1}"#),
        r#"Shape: unknown variant "nope""#
    );
    assert_eq!(decode_err::<Shape>("{}"), "Shape: empty enum object");
    assert_eq!(
        decode_err::<Shape>("1"),
        "Shape: expected string or single-key object"
    );
    assert_eq!(
        decode_err::<Shape>(r#"{"newtype":[]}"#),
        "Shape::Newtype: Named: expected object"
    );
    assert_eq!(
        decode_err::<Shape>(r#"{"pair":[1]}"#),
        "Shape::Pair: expected array of 2"
    );
    assert_eq!(
        decode_err::<Shape>(r#"{"pair":[1,2]}"#),
        "Shape::Pair.1: expected string, got number PosInt(2)"
    );
    assert_eq!(
        decode_err::<Shape>(r#"{"struct":{"zeta":"x","alpha":[]}}"#),
        r#"Shape::Struct.zeta: expected f64, got string "x""#
    );
    assert_eq!(
        decode_err::<Shape>(r#"{"struct":{"zeta":1,"alpha":["bad"]}}"#),
        r#"Shape::Struct.alpha: array element: Shape: unknown variant "bad""#
    );
    assert_eq!(
        decode_err::<Shape>(r#"{"struct":[]}"#),
        "Shape::Struct: expected object"
    );
}

//! `to_string` writes compact JSON straight from the type; these tests pin
//! it byte for byte to rendering the `Value` tree, across every derive
//! shape and the edge values of each primitive, pin the decoder's error
//! messages, and check that parsing a rendering and rendering it again
//! gives the same bytes.

mod shapes;

use std::collections::BTreeMap;

use proptest::prelude::*;
use serde::Serialize;
use serde_json::Value;
use shapes::{Gen, Named, Newtype, Renamed, Shape, Tuple, Unit};

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
        let by_name: BTreeMap<String, Named> =
            (0..g.below(5)).map(|_| (g.string(), g.named())).collect();
        same_bytes(&by_name)?;
    }
}

/// `x`'s rendering is a fixed point of parse-then-render.
fn fixed_point<T: Serialize>(x: &T) -> Result<(), TestCaseError> {
    let text = serde_json::to_string(x).unwrap();
    let again = serde_json::from_str::<Value>(&text).unwrap().to_string();
    prop_assert_eq!(again, text);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]
    #[test]
    fn every_rendering_reads_back_to_the_same_bytes(seed in any::<u64>()) {
        let mut g = Gen(seed | 1);
        fixed_point(&g.named())?;
        fixed_point(&g.tuple())?;
        fixed_point(&g.shape(3))?;
        fixed_point(&g.nested())?;
        fixed_point(&g.value(4))?;
        fixed_point(&(g.f64(), g.u64(), g.string()))?;
    }
}

#[test]
fn negative_zero_reads_back_bit_exactly_and_integers_refuse_it() {
    let floats = [1.0, -0.0, 0.5];
    let text = serde_json::to_string(&floats).unwrap();
    assert_eq!(text, "[1,-0,0.5]");
    let back: Vec<f64> = serde_json::from_str(&text).unwrap();
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&back), bits(&floats));
    assert_eq!(
        serde_json::from_str::<Value>(&text).unwrap().to_string(),
        text
    );
    // Integer targets refuse `-0`, as real serde_json does.
    for err in [
        serde_json::from_str::<i64>("-0").unwrap_err(),
        serde_json::from_str::<u64>("-0").unwrap_err(),
    ] {
        assert!(err.to_string().ends_with("got number Float(-0.0)"), "{err}");
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
    // String keys sort by their unescaped bytes: `"` (0x22) before `#`,
    // though its escape `\"` starts with `\` (0x5c).
    let renamed = |request_id| Renamed {
        request_id,
        zero_based: false,
        a_b: 0,
    };
    let by_name: BTreeMap<String, Renamed> = [("a#", 1), ("a\"", 2), ("", 3), ("é", 4)]
        .into_iter()
        .map(|(k, id)| (k.to_string(), renamed(id)))
        .collect();
    let written = serde_json::to_string(&by_name).unwrap();
    assert_eq!(
        written,
        serde_json::to_value(&by_name).unwrap().to_json_compact()
    );
    assert_eq!(
        written,
        concat!(
            r#"{"":{"aB":0,"requestId":3,"zeroBased":false},"#,
            r#""a\"":{"aB":0,"requestId":2,"zeroBased":false},"#,
            r#""a#":{"aB":0,"requestId":1,"zeroBased":false},"#,
            r#""é":{"aB":0,"requestId":4,"zeroBased":false}}"#
        )
    );
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

//! The two sources a `Deserializer` reads agree: decoding straight from
//! JSON text (`from_str::<T>`) and decoding a parsed tree
//! (`from_value::<T>(from_str::<Value>(..))`) give equal values or
//! byte-identical error messages, over every derive shape and over
//! mutated renderings of them: dropped, repeated, mistyped and unknown
//! keys, reordered keys and added whitespace, truncation at every byte,
//! multi-key enum objects and nesting past the recursion limit.

mod shapes;

use std::collections::BTreeMap;
use std::fmt::Debug;
use std::time::Duration;

use proptest::prelude::*;
use serde::de::DeserializeOwned;
use serde_json::{Map, Value};
use shapes::{Gen, Named, Nested, Newtype, Renamed, Shape, Tuple, Unit};

/// Both decodes of `json` as `T`, rendered for comparison: the value's
/// `Debug` text (which tells NaN, -0.0 and every variant apart) or the
/// error message.
fn both<T: DeserializeOwned + Debug>(json: &str) -> (String, String) {
    let render = |r: Result<T, serde_json::Error>| match r {
        Ok(v) => format!("ok {v:?}"),
        Err(e) => format!("err {e}"),
    };
    let direct = render(serde_json::from_str::<T>(json));
    let via_tree = render(serde_json::from_str::<Value>(json).and_then(serde_json::from_value));
    (direct, via_tree)
}

fn agree<T: DeserializeOwned + Debug>(json: &str) -> Result<(), TestCaseError> {
    let (direct, via_tree) = both::<T>(json);
    prop_assert_eq!(direct, via_tree, "input {:?}", json);
    Ok(())
}

/// Every target type, decoding the same text.
fn agree_all(json: &str) -> Result<(), TestCaseError> {
    agree::<Named>(json)?;
    agree::<Tuple>(json)?;
    agree::<Newtype>(json)?;
    agree::<Unit>(json)?;
    agree::<Renamed>(json)?;
    agree::<Shape>(json)?;
    agree::<Nested>(json)?;
    agree::<Value>(json)?;
    agree::<Vec<Shape>>(json)?;
    agree::<(Tuple, Renamed)>(json)?;
    agree::<Option<Vec<u64>>>(json)?;
    agree::<BTreeMap<u64, Shape>>(json)?;
    agree::<Duration>(json)?;
    Ok(())
}

/// A value of any shape, as a tree.
fn any_shape(g: &mut Gen) -> Value {
    let v = match g.below(9) {
        0 => serde_json::to_value(g.named()),
        1 => serde_json::to_value(g.tuple()),
        2 => serde_json::to_value(Newtype(g.f64())),
        3 => serde_json::to_value(Unit),
        4 => serde_json::to_value(g.renamed()),
        5 => serde_json::to_value(g.shape(3)),
        6 => serde_json::to_value(g.nested()),
        7 => serde_json::to_value(g.vec(|g| g.shape(1))),
        _ => serde_json::to_value((g.tuple(), g.renamed())),
    };
    v.unwrap()
}

/// Visit every object in `v`, depth first, with its index in that order.
fn objects(v: &mut Value, f: &mut dyn FnMut(&mut Map)) {
    match v {
        Value::Object(m) => {
            f(m);
            for item in m.values_mut() {
                objects(item, f);
            }
        }
        Value::Array(a) => a.iter_mut().for_each(|item| objects(item, f)),
        _ => {}
    }
}

/// Apply one tree mutation to a randomly chosen object in `v`: drop a key,
/// give a key a value of another type, or add an unknown key.
fn mutate(v: &mut Value, g: &mut Gen) {
    let mut count = 0;
    objects(v, &mut |_| count += 1);
    if count == 0 {
        return;
    }
    let (target, op, pick) = (g.below(count), g.below(3), g.below(64));
    let replacement = g.value(2);
    let mut seen = 0;
    objects(v, &mut |m| {
        if seen == target {
            let keys: Vec<String> = m.keys().cloned().collect();
            match (op, keys.get(pick % keys.len().max(1))) {
                (0, Some(key)) => {
                    m.remove(key);
                }
                (1, Some(key)) => {
                    m.insert(key.clone(), replacement.clone());
                }
                _ => {
                    m.insert("unknown_key".into(), replacement.clone());
                }
            }
        }
        seen += 1;
    });
}

/// Render `v` as JSON text with random whitespace and member order; with
/// `repeat`, objects sometimes repeat one of their keys, with a different
/// value before or after the original.
fn render(v: &Value, g: &mut Gen, repeat: bool, out: &mut String) {
    let ws = |g: &mut Gen, out: &mut String| {
        for _ in 0..g.below(3) {
            out.push([' ', '\n', '\t', '\r'][g.below(4)]);
        }
    };
    ws(g, out);
    match v {
        Value::Array(a) => {
            out.push('[');
            for (i, item) in a.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render(item, g, repeat, out);
            }
            ws(g, out);
            out.push(']');
        }
        Value::Object(m) => {
            let mut members: Vec<(&String, Value)> =
                m.iter().map(|(k, v)| (k, v.clone())).collect();
            for i in (1..members.len()).rev() {
                members.swap(i, g.below(i + 1));
            }
            if repeat && !members.is_empty() && g.coin() {
                let key = members[g.below(members.len())].0;
                let at = g.below(members.len() + 1);
                members.insert(at, (key, g.value(2)));
            }
            out.push('{');
            for (i, (k, item)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                ws(g, out);
                out.push_str(&serde_json::to_string(k).unwrap());
                ws(g, out);
                out.push(':');
                render(item, g, repeat, out);
            }
            ws(g, out);
            out.push('}');
        }
        scalar => out.push_str(&serde_json::to_string(scalar).unwrap()),
    }
    ws(g, out);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn text_and_tree_decode_alike(seed in any::<u64>()) {
        let mut g = Gen(seed | 1);
        let mut v = any_shape(&mut g);
        agree_all(&serde_json::to_string(&v).unwrap())?;
        if g.coin() {
            mutate(&mut v, &mut g);
        }
        let mut text = String::new();
        render(&v, &mut g, true, &mut text);
        agree_all(&text)?;
    }

    #[test]
    fn multi_key_enum_objects_take_the_smallest_key(seed in any::<u64>()) {
        let mut g = Gen(seed | 1);
        let tags = ["unit", "unit_two", "newtype", "pair", "empty", "struct", "nope", "a", "z"];
        let mut text = String::from("{");
        for i in 0..1 + g.below(4) {
            if i > 0 {
                text.push(',');
            }
            let content = match serde_json::to_value(g.shape(2)).unwrap() {
                Value::Object(m) if g.coin() => m.into_values().next().unwrap(),
                other => other,
            };
            text.push_str(&format!("\"{}\":", tags[g.below(tags.len())]));
            render(&content, &mut g, false, &mut text);
        }
        text.push('}');
        agree::<Shape>(&text)?;
        agree::<Vec<Shape>>(&format!("[{text}]"))?;
    }

    #[test]
    fn nesting_past_the_limit_fails_alike(seed in any::<u64>()) {
        let mut g = Gen(seed | 1);
        let depth = 124 + g.below(8);
        let inner = serde_json::to_string(&g.shape(1)).unwrap();
        let deep = "[".repeat(depth) + &inner + &"]".repeat(depth);
        agree::<Value>(&deep)?;
        agree::<Vec<Shape>>(&deep)?;
        let mut nested = g.nested();
        nested.body = Value::Null;
        let text = serde_json::to_string(&nested)
            .unwrap()
            .replacen("\"body\":null", &format!("\"body\":{deep}"), 1);
        agree::<Nested>(&text)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_truncation_fails_alike(seed in any::<u64>()) {
        let mut g = Gen(seed | 1);
        let v = any_shape(&mut g);
        let mut text = String::new();
        render(&v, &mut g, false, &mut text);
        for cut in (0..text.len()).filter(|&i| text.is_char_boundary(i)) {
            let prefix = &text[..cut];
            agree::<Named>(prefix)?;
            agree::<Shape>(prefix)?;
            agree::<Nested>(prefix)?;
            agree::<(Tuple, Renamed)>(prefix)?;
        }
    }

}

#[test]
fn a_syntax_error_anywhere_wins_over_a_shape_error() {
    let json = r#"{"zeta":"x","alpha":"a","mid":null,"list":[1,}"#;
    let (direct, via_tree) = both::<Named>(json);
    assert_eq!(direct, via_tree);
    assert_eq!(direct, "err unexpected character '}' at byte 45");
}

#[test]
fn the_first_declared_field_wins_among_shape_errors() {
    let json = r#"{"list":[1,"x"],"alpha":"a","mid":null,"zeta":"x"}"#;
    let (direct, via_tree) = both::<Named>(json);
    assert_eq!(direct, via_tree);
    assert_eq!(direct, r#"err Named.zeta: expected u64, got string "x""#);
}

#[test]
fn a_repeated_key_keeps_its_last_value() {
    let json = r#"{"zeta":"x","alpha":"a","mid":null,"list":[],"zeta":3}"#;
    let named: Named = serde_json::from_str(json).unwrap();
    assert_eq!(named.zeta, 3);
    assert_eq!(both::<Named>(json).0, both::<Named>(json).1);
}

#[test]
fn an_enum_object_takes_its_smallest_key() {
    let json = r#"{"unit_two":1,"pair":[1,"x"],"unit":[]}"#;
    assert!(matches!(
        serde_json::from_str::<Shape>(json).unwrap(),
        Shape::Pair(1, ref s) if s == "x"
    ));
    let (direct, via_tree) = both::<Shape>(json);
    assert_eq!(direct, via_tree);
}

#[test]
fn duration_refuses_nanos_past_u32_and_overflowing_carries() {
    for (json, error) in [
        (
            r#"{"secs":7,"nanos":4294967297}"#,
            "Duration: nanos 4294967297 out of range",
        ),
        (
            r#"{"secs":18446744073709551615,"nanos":1000000000}"#,
            "Duration: overflow",
        ),
    ] {
        let (direct, via_tree) = both::<Duration>(json);
        assert_eq!(direct, format!("err {error}"));
        assert_eq!(via_tree, direct);
    }
    let carried: Duration = serde_json::from_str(r#"{"secs":7,"nanos":1500000000}"#).unwrap();
    assert_eq!(carried, Duration::new(8, 500_000_000));
    let round_trip = Duration::new(u64::MAX, 999_999_999);
    let json = serde_json::to_string(&round_trip).unwrap();
    assert_eq!(serde_json::from_str::<Duration>(&json).unwrap(), round_trip);
}

#[test]
fn raw_values_keep_their_text_and_check_its_syntax() {
    #[derive(Debug, serde::Deserialize)]
    struct Envelope {
        body: serde_json::RawValue,
    }
    let env: Envelope = serde_json::from_str(r#"{"body": {"b" : [1, 2]} }"#).unwrap();
    assert_eq!(env.body.get(), r#"{"b" : [1, 2]}"#);
    assert_eq!(serde_json::to_string(&env.body).unwrap(), env.body.get());
    let tree: Value = serde_json::from_str(r#"{"body":{"b":[1,2]}}"#).unwrap();
    let from_tree: Envelope = serde_json::from_value(tree).unwrap();
    assert_eq!(from_tree.body.get(), r#"{"b":[1,2]}"#);
    assert_eq!(
        serde_json::from_str::<Envelope>(r#"{"body":{"b":[1,}}"#)
            .unwrap_err()
            .to_string(),
        "unexpected character '}' at byte 16"
    );
}

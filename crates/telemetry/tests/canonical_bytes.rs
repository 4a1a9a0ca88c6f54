//! The canonical trace bytes, pinned: same-seed traces are compared byte
//! for byte and campaign corpus digests hash whole trace files, so the
//! exported form must not drift.

use std::fmt::Write as _;
use std::sync::Arc;

use neesgrid_telemetry::{Field, FieldList, Telemetry};

#[test]
fn every_field_variant_exports_exact_bytes_with_and_without_a_span() {
    let cases = [
        (Field::U64(u64::MAX), "18446744073709551615".to_string()),
        (Field::I64(i64::MIN), "-9223372036854775808".into()),
        (Field::F64(0.1), "0.1".into()),
        (Field::F64(1.0), "1".into()),
        (Field::F64(-0.0), "-0".into()),
        (Field::F64(1e300), format!("1{}", "0".repeat(300))),
        (Field::F64(f64::NAN), "null".into()),
        (
            Field::Str("q\" b\\ nl\n cr\r tab\t ctl\u{1} 地震 é".into()),
            r#""q\" b\\ nl\n cr\r tab\t ctl\u0001 地震 é""#.into(),
        ),
        (Field::Static("completed"), r#""completed""#.into()),
        (Field::Shared(Arc::from("site-000")), r#""site-000""#.into()),
        (Field::Bool(true), "true".into()),
        (Field::Bool(false), "false".into()),
    ];
    let tel = Telemetry::recording();
    let mut expected = String::new();
    for (i, (field, v)) in cases.into_iter().enumerate() {
        let (t, seq) = (10 * i as u64, 3 * i);
        tel.instant(t, "net", "probe", [("v", field.clone())]);
        let span = tel.span_start(
            t + 1,
            "ntcp",
            "execute",
            [("i", Field::U64(i as u64)), ("v", field)],
        );
        tel.span_end(t + 2, span, FieldList::new());
        let (t1, t2, seq1, seq2, s) = (t + 1, t + 2, seq + 1, seq + 2, span.0);
        writeln!(expected, r#"{{"t":{t},"seq":{seq},"kind":"instant","sub":"net","name":"probe","fields":{{"v":{v}}}}}"#).unwrap();
        writeln!(expected, r#"{{"t":{t1},"seq":{seq1},"kind":"span_start","span":{s},"sub":"ntcp","name":"execute","fields":{{"i":{i},"v":{v}}}}}"#).unwrap();
        writeln!(expected, r#"{{"t":{t2},"seq":{seq2},"kind":"span_end","span":{s},"sub":"ntcp","name":"execute","fields":{{}}}}"#).unwrap();
    }
    assert_eq!(tel.export_jsonl(), expected);
}

#[test]
fn metric_lines_export_exact_bytes() {
    let tel = Telemetry::recording();
    tel.counter_handle("link.sent{coordinator->cu}").add(42);
    tel.counter_handle("a.first").add(1);
    tel.counter_handle("link.dropped{coordinator->cu}");
    tel.lazy_counter("portal.admitted").add(3);
    tel.lazy_counter("portal.shed");
    let rtt = tel.histogram_handle("rpc.rtt_ns");
    rtt.observe_ns(500_000); // 0.5 ms: first bucket
    rtt.observe_ns(45_000_000); // 45 ms: the <=50 ms bucket
    rtt.observe_ns(9_000_000_000); // 9 s: overflow bucket
    assert_eq!(
        tel.export_jsonl(),
        r#"{"kind":"counter","name":"a.first","value":1}
{"kind":"counter","name":"link.dropped{coordinator->cu}","value":0}
{"kind":"counter","name":"link.sent{coordinator->cu}","value":42}
{"kind":"counter","name":"portal.admitted","value":3}
{"kind":"histogram","name":"rpc.rtt_ns","count":3,"sum_ns":9045500000,"max_ns":9000000000,"buckets":[1,0,0,0,0,1,0,0,0,0,0,0,1]}
"#
    );
}

#[test]
fn backspace_and_form_feed_use_their_short_escapes() {
    let tel = Telemetry::recording();
    tel.instant(
        0,
        "net",
        "probe",
        [("v", Field::Str("a\u{8}b\u{c}".into()))],
    );
    assert_eq!(
        tel.export_jsonl(),
        r#"{"t":0,"seq":0,"kind":"instant","sub":"net","name":"probe","fields":{"v":"a\bb\f"}}
"#
    );
}

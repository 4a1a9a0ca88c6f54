//! Hand-rolled `#[derive(Serialize)]` / `#[derive(Deserialize)]` for the
//! vendored serde facade. The container has no syn/quote, so the item is
//! parsed directly from the raw token stream and impls are emitted as
//! formatted strings. Supported shapes cover everything this workspace
//! derives: non-generic structs (named / tuple / unit) and enums with unit,
//! tuple, and struct variants, plus `#[serde(rename_all = "...")]`.
//!
//! `Serialize` gets both `serialize` (the `Value` tree) and `write_json`
//! (compact text written field by field, no tree). `Deserialize` gets one
//! `deserialize` against the shim's pull interface (`serde::de`), which
//! reads JSON text and a borrowed `Value` alike.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, Which::Serialize)
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, Which::Deserialize)
}

enum Which {
    Serialize,
    Deserialize,
}

fn expand(input: TokenStream, which: Which) -> TokenStream {
    let item = match parse_item(input) {
        Ok(item) => item,
        Err(msg) => {
            return format!("compile_error!({msg:?});").parse().unwrap();
        }
    };
    let code = match which {
        Which::Serialize => gen_serialize(&item),
        Which::Deserialize => gen_deserialize(&item),
    };
    code.parse().unwrap()
}

// ---------------------------------------------------------------- parsing

struct Item {
    name: String,
    rename_all: Option<String>,
    body: Body,
}

enum Body {
    NamedStruct(Vec<String>),
    TupleStruct(usize),
    UnitStruct,
    Enum(Vec<Variant>),
}

struct Variant {
    name: String,
    kind: VariantKind,
}

enum VariantKind {
    Unit,
    Tuple(usize),
    Named(Vec<String>),
}

struct Cursor {
    toks: Vec<TokenTree>,
    pos: usize,
}

impl Cursor {
    fn new(ts: TokenStream) -> Self {
        Cursor {
            toks: ts.into_iter().collect(),
            pos: 0,
        }
    }

    fn peek(&self) -> Option<&TokenTree> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Option<TokenTree> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }

    /// Skip a run of outer attributes, returning any `rename_all` value seen.
    fn skip_attrs(&mut self) -> Option<String> {
        let mut rename_all = None;
        while let Some(TokenTree::Punct(p)) = self.peek() {
            if p.as_char() != '#' {
                break;
            }
            self.next();
            if let Some(TokenTree::Group(g)) = self.next() {
                if let Some(r) = extract_rename_all(g.stream()) {
                    rename_all = Some(r);
                }
            }
        }
        rename_all
    }

    fn skip_visibility(&mut self) {
        if let Some(TokenTree::Ident(id)) = self.peek() {
            if id.to_string() == "pub" {
                self.next();
                if let Some(TokenTree::Group(g)) = self.peek() {
                    if g.delimiter() == Delimiter::Parenthesis {
                        self.next();
                    }
                }
            }
        }
    }

    /// Skip tokens of a type (or discriminant expression) until a top-level
    /// comma or end of stream. Groups are atomic; only `<`/`>` need counting.
    fn skip_until_comma(&mut self) {
        let mut angle: i32 = 0;
        while let Some(t) = self.peek() {
            match t {
                TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 => return,
                TokenTree::Punct(p) if p.as_char() == '<' => angle += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => angle -= 1,
                _ => {}
            }
            self.next();
        }
    }
}

fn extract_rename_all(attr: TokenStream) -> Option<String> {
    // Matches `serde ( ... rename_all = "RULE" ... )`.
    let mut toks = attr.into_iter();
    match toks.next() {
        Some(TokenTree::Ident(id)) if id.to_string() == "serde" => {}
        _ => return None,
    }
    let inner = match toks.next() {
        Some(TokenTree::Group(g)) => g.stream(),
        _ => return None,
    };
    let inner: Vec<TokenTree> = inner.into_iter().collect();
    for (i, t) in inner.iter().enumerate() {
        if let TokenTree::Ident(id) = t {
            if id.to_string() == "rename_all" {
                if let Some(TokenTree::Literal(lit)) = inner.get(i + 2) {
                    return Some(lit.to_string().trim_matches('"').to_string());
                }
            }
        }
    }
    None
}

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let mut c = Cursor::new(input);
    let rename_all = c.skip_attrs();
    c.skip_visibility();

    let kw = match c.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        t => {
            return Err(format!(
                "serde shim derive: expected struct/enum, got {t:?}"
            ))
        }
    };
    let name = match c.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        t => return Err(format!("serde shim derive: expected type name, got {t:?}")),
    };
    if let Some(TokenTree::Punct(p)) = c.peek() {
        if p.as_char() == '<' {
            return Err(format!(
                "serde shim derive: generic type {name} not supported"
            ));
        }
    }

    let body = match kw.as_str() {
        "struct" => match c.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Body::NamedStruct(parse_named_fields(g.stream())?)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Body::TupleStruct(count_tuple_fields(g.stream()))
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Body::UnitStruct,
            t => return Err(format!("serde shim derive: bad struct body {t:?}")),
        },
        "enum" => match c.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Body::Enum(parse_variants(g.stream())?)
            }
            t => return Err(format!("serde shim derive: bad enum body {t:?}")),
        },
        other => return Err(format!("serde shim derive: cannot derive for {other}")),
    };

    Ok(Item {
        name,
        rename_all,
        body,
    })
}

fn parse_named_fields(ts: TokenStream) -> Result<Vec<String>, String> {
    let mut c = Cursor::new(ts);
    let mut fields = Vec::new();
    loop {
        c.skip_attrs();
        c.skip_visibility();
        if c.at_end() {
            break;
        }
        let name = match c.next() {
            Some(TokenTree::Ident(id)) => id.to_string(),
            t => return Err(format!("serde shim derive: expected field name, got {t:?}")),
        };
        match c.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            t => return Err(format!("serde shim derive: expected ':', got {t:?}")),
        }
        c.skip_until_comma();
        c.next(); // consume the comma, if any
        fields.push(name);
    }
    Ok(fields)
}

fn count_tuple_fields(ts: TokenStream) -> usize {
    let mut c = Cursor::new(ts);
    if c.at_end() {
        return 0;
    }
    let mut count = 1;
    let mut angle: i32 = 0;
    let mut saw_token_since_comma = false;
    while let Some(t) = c.next() {
        match t {
            TokenTree::Punct(p) if p.as_char() == '<' => angle += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 => {
                saw_token_since_comma = false;
                count += 1;
                continue;
            }
            _ => {}
        }
        saw_token_since_comma = true;
    }
    // Trailing comma adds a phantom field; drop it.
    if !saw_token_since_comma {
        count -= 1;
    }
    count
}

fn parse_variants(ts: TokenStream) -> Result<Vec<Variant>, String> {
    let mut c = Cursor::new(ts);
    let mut variants = Vec::new();
    loop {
        c.skip_attrs();
        if c.at_end() {
            break;
        }
        let name = match c.next() {
            Some(TokenTree::Ident(id)) => id.to_string(),
            t => {
                return Err(format!(
                    "serde shim derive: expected variant name, got {t:?}"
                ))
            }
        };
        let kind = match c.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let n = count_tuple_fields(g.stream());
                c.next();
                VariantKind::Tuple(n)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let fields = parse_named_fields(g.stream())?;
                c.next();
                VariantKind::Named(fields)
            }
            _ => VariantKind::Unit,
        };
        // Skip an optional discriminant, then the separating comma.
        c.skip_until_comma();
        c.next();
        variants.push(Variant { name, kind });
    }
    Ok(variants)
}

// ------------------------------------------------------------- renaming

fn apply_rename(name: &str, rule: Option<&str>) -> String {
    let Some(rule) = rule else {
        return name.to_string();
    };
    let words = split_words(name);
    match rule {
        "lowercase" => name.to_lowercase(),
        "UPPERCASE" => name.to_uppercase(),
        "snake_case" => words.join("_"),
        "SCREAMING_SNAKE_CASE" => words.join("_").to_uppercase(),
        "kebab-case" => words.join("-"),
        "camelCase" => {
            let mut out = String::new();
            for (i, w) in words.iter().enumerate() {
                if i == 0 {
                    out.push_str(w);
                } else {
                    out.push_str(&capitalize(w));
                }
            }
            out
        }
        "PascalCase" => words.iter().map(|w| capitalize(w)).collect(),
        _ => name.to_string(),
    }
}

fn split_words(name: &str) -> Vec<String> {
    let mut words = Vec::new();
    let mut cur = String::new();
    for ch in name.chars() {
        if ch == '_' {
            if !cur.is_empty() {
                words.push(cur.clone());
                cur.clear();
            }
        } else if ch.is_uppercase() && !cur.is_empty() {
            words.push(cur.clone());
            cur.clear();
            cur.push(ch.to_ascii_lowercase());
        } else {
            cur.push(ch.to_ascii_lowercase());
        }
    }
    if !cur.is_empty() {
        words.push(cur);
    }
    words
}

fn capitalize(w: &str) -> String {
    let mut cs = w.chars();
    match cs.next() {
        Some(c) => c.to_uppercase().collect::<String>() + cs.as_str(),
        None => String::new(),
    }
}

// ------------------------------------------------------------ generation

const VALUE: &str = "::serde::__private::Value";
const MAP: &str = "::serde::__private::Map";
const TO_VALUE: &str = "::serde::__private::to_value";
const WRITE_JSON: &str = "::serde::Serialize::write_json";

fn gen_serialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.body {
        Body::NamedStruct(fields) => {
            let mut s = format!("let mut __m = {MAP}::new();\n");
            for f in fields {
                let key = apply_rename(f, item.rename_all.as_deref());
                s.push_str(&format!(
                    "__m.insert(::std::string::String::from({key:?}), {TO_VALUE}(&self.{f}));\n"
                ));
            }
            s.push_str(&format!(
                "__serializer.serialize_value({VALUE}::Object(__m))"
            ));
            s
        }
        Body::TupleStruct(1) => {
            format!("__serializer.serialize_value({TO_VALUE}(&self.0))")
        }
        Body::TupleStruct(n) => {
            let elems: Vec<String> = (0..*n).map(|i| format!("{TO_VALUE}(&self.{i})")).collect();
            format!(
                "__serializer.serialize_value({VALUE}::Array(::std::vec![{}]))",
                elems.join(", ")
            )
        }
        Body::UnitStruct => format!("__serializer.serialize_value({VALUE}::Null)"),
        Body::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                let vname = &v.name;
                let wire = apply_rename(vname, item.rename_all.as_deref());
                match &v.kind {
                    VariantKind::Unit => arms.push_str(&format!(
                        "{name}::{vname} => __serializer.serialize_value(\
                         {VALUE}::String(::std::string::String::from({wire:?}))),\n"
                    )),
                    VariantKind::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|i| format!("__f{i}")).collect();
                        let content = if *n == 1 {
                            format!("{TO_VALUE}(__f0)")
                        } else {
                            let elems: Vec<String> =
                                binds.iter().map(|b| format!("{TO_VALUE}({b})")).collect();
                            format!("{VALUE}::Array(::std::vec![{}])", elems.join(", "))
                        };
                        arms.push_str(&format!(
                            "{name}::{vname}({binds}) => {{\n\
                             let mut __m = {MAP}::new();\n\
                             __m.insert(::std::string::String::from({wire:?}), {content});\n\
                             __serializer.serialize_value({VALUE}::Object(__m))\n}}\n",
                            binds = binds.join(", ")
                        ));
                    }
                    VariantKind::Named(fields) => {
                        let mut inner = format!("let mut __inner = {MAP}::new();\n");
                        for f in fields {
                            inner.push_str(&format!(
                                "__inner.insert(::std::string::String::from({f:?}), {TO_VALUE}({f}));\n"
                            ));
                        }
                        arms.push_str(&format!(
                            "{name}::{vname} {{ {fields} }} => {{\n{inner}\
                             let mut __m = {MAP}::new();\n\
                             __m.insert(::std::string::String::from({wire:?}), {VALUE}::Object(__inner));\n\
                             __serializer.serialize_value({VALUE}::Object(__m))\n}}\n",
                            fields = fields.join(", ")
                        ));
                    }
                }
            }
            format!("match self {{\n{arms}}}")
        }
    };
    let write = gen_write_json(item);
    format!(
        "impl ::serde::Serialize for {name} {{\n\
         fn serialize<__S: ::serde::Serializer>(&self, __serializer: __S) \
         -> ::core::result::Result<__S::Ok, __S::Error> {{\n{body}\n}}\n\
         fn write_json(&self, __out: &mut ::std::string::String) {{\n{write}}}\n}}\n"
    )
}

/// Generated `write_json` statements: literal JSON punctuation and keys
/// interleaved with each field's own `write_json`. The text matches what
/// the `Value` path renders: object members in the sorted key order of the
/// `BTreeMap`-backed `Map` (a later field wins a clashing key, as a later
/// insert does), enums tagged externally.
struct JsonWriter {
    code: String,
    pending: String,
}

impl JsonWriter {
    fn new() -> Self {
        JsonWriter {
            code: String::new(),
            pending: String::new(),
        }
    }

    /// Append literal JSON text. Keys and variant names are identifiers,
    /// which never need JSON escapes.
    fn text(&mut self, json: &str) {
        self.pending.push_str(json);
    }

    /// Append a call writing the value of the expression `expr` (a reference).
    fn value(&mut self, expr: &str) {
        self.flush();
        self.code
            .push_str(&format!("{WRITE_JSON}({expr}, __out);\n"));
    }

    /// `{"k1":v1,"k2":v2}`; `fields` are (key, expression) pairs in
    /// declaration order.
    fn object(&mut self, fields: &[(String, String)]) {
        let sorted: std::collections::BTreeMap<&str, &str> = fields
            .iter()
            .map(|(k, e)| (k.as_str(), e.as_str()))
            .collect();
        self.text("{");
        for (i, (key, expr)) in sorted.into_iter().enumerate() {
            if i > 0 {
                self.text(",");
            }
            self.text(&format!("\"{key}\":"));
            self.value(expr);
        }
        self.text("}");
    }

    /// `[e1,e2]`.
    fn array(&mut self, exprs: &[String]) {
        self.text("[");
        for (i, expr) in exprs.iter().enumerate() {
            if i > 0 {
                self.text(",");
            }
            self.value(expr);
        }
        self.text("]");
    }

    fn flush(&mut self) {
        if !self.pending.is_empty() {
            self.code
                .push_str(&format!("__out.push_str({:?});\n", self.pending));
            self.pending.clear();
        }
    }

    fn finish(mut self) -> String {
        self.flush();
        self.code
    }
}

fn gen_write_json(item: &Item) -> String {
    let name = &item.name;
    let rename_all = item.rename_all.as_deref();
    let mut w = JsonWriter::new();
    match &item.body {
        Body::NamedStruct(fields) => {
            let fields: Vec<(String, String)> = fields
                .iter()
                .map(|f| (apply_rename(f, rename_all), format!("&self.{f}")))
                .collect();
            w.object(&fields);
        }
        Body::TupleStruct(1) => w.value("&self.0"),
        Body::TupleStruct(n) => {
            let exprs: Vec<String> = (0..*n).map(|i| format!("&self.{i}")).collect();
            w.array(&exprs);
        }
        Body::UnitStruct => w.text("null"),
        Body::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                let vname = &v.name;
                let wire = apply_rename(vname, rename_all);
                let mut arm = JsonWriter::new();
                let pattern = match &v.kind {
                    VariantKind::Unit => {
                        arm.text(&format!("\"{wire}\""));
                        format!("{name}::{vname}")
                    }
                    VariantKind::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|i| format!("__f{i}")).collect();
                        arm.text(&format!("{{\"{wire}\":"));
                        if *n == 1 {
                            arm.value("__f0");
                        } else {
                            arm.array(&binds);
                        }
                        arm.text("}");
                        format!("{name}::{vname}({})", binds.join(", "))
                    }
                    VariantKind::Named(fields) => {
                        // Struct-variant fields keep their Rust names:
                        // `rename_all` on an enum renames variants only.
                        let pairs: Vec<(String, String)> =
                            fields.iter().map(|f| (f.clone(), f.clone())).collect();
                        arm.text(&format!("{{\"{wire}\":"));
                        arm.object(&pairs);
                        arm.text("}");
                        format!("{name}::{vname} {{ {} }}", fields.join(", "))
                    }
                };
                arms.push_str(&format!("{pattern} => {{\n{}}}\n", arm.finish()));
            }
            return format!("match self {{\n{arms}}}\n");
        }
    }
    w.finish()
}

/// `return Err("{ctx}: {what}")` inside a generated decoder.
fn de_err(ctx: &str, what: &str) -> String {
    format!(
        "return ::core::result::Result::Err(<__D::Error as ::serde::de::Error>::custom({:?}))",
        format!("{ctx}: {what}")
    )
}

/// `Err("{ctx}: unknown variant {tag:?}")` for the tag expression `tag`.
fn unknown_variant(ctx: &str, tag: &str) -> String {
    format!(
        "::core::result::Result::Err(<__D::Error as ::serde::de::Error>::custom(\
         ::std::format!(\"{ctx}: unknown variant {{:?}}\", {tag})))"
    )
}

/// Decode an object from the deserializer `__d` into `ctor { fields }`.
/// Every member is read; each field keeps its key's last value, and the
/// fields are checked in declared order, a missing one decoding from null.
fn de_named(ctor: &str, fields: &[String], keys: &[String], ctx: &str) -> String {
    let mut code = format!(
        "let mut __map = match ::serde::Deserializer::token(__d)? {{\n\
         ::serde::de::Token::Object(__m) => __m,\n\
         _ => {},\n}};\n",
        de_err(ctx, "expected object")
    );
    let mut arms = String::new();
    let mut inits = String::new();
    for (i, (f, key)) in fields.iter().zip(keys).enumerate() {
        code.push_str(&format!("let mut __f{i} = ::core::option::Option::None;\n"));
        arms.push_str(&format!(
            "{key:?} => __f{i} = ::core::option::Option::Some(\
             ::serde::de::MapAccess::next_value(&mut __map)?),\n"
        ));
        inits.push_str(&format!(
            "{f}: ::serde::de::field(__f{i}, {:?})?,\n",
            format!("{ctx}.{f}")
        ));
    }
    code.push_str(&format!(
        "while let ::core::option::Option::Some(__k) = \
         ::serde::de::MapAccess::next_key(&mut __map)? {{\n\
         match &*__k {{\n{arms}\
         _ => ::serde::de::MapAccess::skip_value(&mut __map)?,\n}}\n}}\n\
         ::core::result::Result::Ok({ctor} {{\n{inits}}})"
    ));
    code
}

/// Decode an array of exactly `n` elements from `__d` into `ctor(..)`.
/// A wrong length wins over an element's error, as the length is a
/// property of the whole array.
fn de_tuple(ctor: &str, n: usize, ctx: &str) -> String {
    let mut code = format!(
        "let mut __seq = match ::serde::Deserializer::token(__d)? {{\n\
         ::serde::de::Token::Array(__s) => __s,\n\
         _ => {},\n}};\n",
        de_err(ctx, &format!("expected array of {n}"))
    );
    let mut scrutinee = String::new();
    let mut pattern = String::new();
    let mut elems = Vec::new();
    for i in 0..n {
        code.push_str(&format!(
            "let __e{i} = ::serde::de::SeqAccess::next_element(&mut __seq)?;\n"
        ));
        scrutinee.push_str(&format!("__e{i}, "));
        pattern.push_str(&format!("::core::option::Option::Some(__e{i}), "));
        elems.push(format!(
            "__e{i}.map_err(|__e| ::serde::de::context({:?}, __e))?",
            format!("{ctx}.{i}")
        ));
    }
    code.push_str(&format!(
        "match ({scrutinee}::serde::de::has_more(&mut __seq)?,) {{\n\
         ({pattern}false,) => ::core::result::Result::Ok({ctor}({})),\n\
         _ => {},\n}}",
        elems.join(", "),
        de_err(ctx, &format!("expected array of {n}"))
    ));
    code
}

/// Decode `__d` as the single field of `ctor(..)`.
fn de_newtype(ctor: &str, ctx: &str) -> String {
    format!(
        "::core::result::Result::Ok({ctor}(::serde::Deserialize::deserialize(__d)\
         .map_err(|__e| ::serde::de::context({ctx:?}, __e))?))"
    )
}

/// The generated `Deserialize` impl: one `deserialize` written against the
/// pull interface, so it reads JSON text and a borrowed `Value` alike.
/// Enums also get `DeserializeVariant`, which decodes a tagged object's
/// content once the reader has picked the tag.
fn gen_deserialize(item: &Item) -> String {
    let name = &item.name;
    let rename_all = item.rename_all.as_deref();
    let body = match &item.body {
        Body::NamedStruct(fields) => {
            let keys: Vec<String> = fields.iter().map(|f| apply_rename(f, rename_all)).collect();
            de_named(name, fields, &keys, name)
        }
        Body::TupleStruct(1) => de_newtype(name, name),
        Body::TupleStruct(n) => de_tuple(name, *n, name),
        Body::UnitStruct => {
            format!("::serde::Deserializer::skip(__d)?;\n::core::result::Result::Ok({name})")
        }
        Body::Enum(variants) => {
            let mut unit_arms = String::new();
            let mut content_arms = String::new();
            for v in variants {
                let vname = &v.name;
                let ctx = format!("{name}::{vname}");
                let wire = apply_rename(vname, rename_all);
                let content = match &v.kind {
                    VariantKind::Unit => {
                        unit_arms
                            .push_str(&format!("{wire:?} => ::core::result::Result::Ok({ctx}),\n"));
                        // Also accept the `{"Variant": ...}` object form.
                        format!(
                            "::serde::Deserializer::skip(__d)?;\n::core::result::Result::Ok({ctx})"
                        )
                    }
                    VariantKind::Tuple(1) => de_newtype(&ctx, &ctx),
                    VariantKind::Tuple(n) => de_tuple(&ctx, *n, &ctx),
                    // Struct-variant fields keep their Rust names:
                    // `rename_all` on an enum renames variants only.
                    VariantKind::Named(fields) => de_named(&ctx, fields, fields, &ctx),
                };
                content_arms.push_str(&format!("{wire:?} => {{\n{content}\n}}\n"));
            }
            let deserialize = format!(
                "match ::serde::Deserializer::token(__d)? {{\n\
                 ::serde::de::Token::Str(__s) => match &*__s {{\n{unit_arms}\
                 __other => {unknown},\n}},\n\
                 ::serde::de::Token::Object(__m) => \
                 match ::serde::de::MapAccess::variant::<Self>(__m)? {{\n\
                 ::core::option::Option::Some(__v) => ::core::result::Result::Ok(__v),\n\
                 ::core::option::Option::None => {err_empty},\n}},\n\
                 _ => {err_shape},\n}}",
                unknown = unknown_variant(name, "__other"),
                err_empty = de_err(name, "empty enum object"),
                err_shape = de_err(name, "expected string or single-key object"),
            );
            return format!(
                "impl<'de> ::serde::Deserialize<'de> for {name} {{\n\
                 fn deserialize<__D: ::serde::Deserializer<'de>>(__d: __D) \
                 -> ::core::result::Result<Self, __D::Error> {{\n{deserialize}\n}}\n}}\n\
                 impl<'de> ::serde::de::DeserializeVariant<'de> for {name} {{\n\
                 fn deserialize_variant<__D: ::serde::Deserializer<'de>>(\
                 __tag: &str, __d: __D) -> ::core::result::Result<Self, __D::Error> {{\n\
                 match __tag {{\n{content_arms}__other => {unknown},\n}}\n}}\n}}\n",
                unknown = unknown_variant(name, "__other"),
            );
        }
    };
    format!(
        "impl<'de> ::serde::Deserialize<'de> for {name} {{\n\
         fn deserialize<__D: ::serde::Deserializer<'de>>(__d: __D) \
         -> ::core::result::Result<Self, __D::Error> {{\n{body}\n}}\n}}\n"
    )
}

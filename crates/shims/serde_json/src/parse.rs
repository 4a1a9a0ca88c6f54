//! The JSON text reader: a recursive-descent parser that hands values out
//! through the shim's pull interface ([`serde::de`]) instead of building a
//! tree. A typed target decodes straight from the text; a `Value` is built
//! only where one is asked for.
//!
//! Decoding and building a `Value` run the same grammar functions through
//! [`Deserializer::token`]. Skipping (unknown fields, `RawValue`s, the
//! re-scan after a decode error) walks the bytes once without building
//! tokens, strings or numbers; it shares the string and number scanners
//! and the error texts with the token path, so every path accepts the same
//! documents and reports the same first syntax error at the same byte
//! (the `skip_is_the_value_walk` test pins that).

use std::borrow::Cow;
use std::cell::Cell;
use std::fmt;

use serde::de::{Deserialize, DeserializeVariant, Deserializer, Kind, MapAccess, SeqAccess, Token};
use serde::value::Number;

use crate::Error;

/// Deepest array/object nesting accepted, real serde_json's recursion
/// limit. Each level recurses once, so without a bound a hostile input of
/// nothing but `[` overflows the stack and aborts the process.
const MAX_DEPTH: usize = 128;

/// The magnitude of `i64::MIN`, the largest negative integer's.
const I64_MIN_MAGNITUDE: u64 = 1 << 63;

/// What a number checked against the grammar is.
enum Shape {
    /// An integer: its sign and how many digits it has.
    Int { negative: bool, digits: usize },
    /// A fraction or an exponent.
    Float,
}

/// Whether the integer `text` (digits after an optional `-`) has a
/// magnitude of at most `u64::MAX`.
#[cold]
fn magnitude_fits(text: &[u8]) -> bool {
    let digits = text.strip_prefix(b"-").unwrap_or(text);
    digits
        .iter()
        .try_fold(0u64, |m, &c| {
            m.checked_mul(10)?.checked_add(u64::from(c - b'0'))
        })
        .is_some()
}

/// The offset of the first byte at or after `at` that is not an ASCII
/// digit, or the input's length. Steps eight bytes at a time while every
/// byte of the word is in `'0'..='9'` (high nibble 3, and still so after
/// adding 6).
#[inline]
fn digits_end(bytes: &[u8], mut at: usize) -> usize {
    const NIBBLES: u64 = u64::from_ne_bytes([0xF0; 8]);
    const THREES: u64 = u64::from_ne_bytes([0x30; 8]);
    const SIXES: u64 = u64::from_ne_bytes([0x06; 8]);
    while let Some(word) = bytes.get(at..at + 8) {
        let mut le = [0u8; 8];
        le.copy_from_slice(word);
        let w = u64::from_le_bytes(le);
        if w & NIBBLES != THREES || w.wrapping_add(SIXES) & NIBBLES != THREES {
            break;
        }
        at += 8;
    }
    while matches!(bytes.get(at), Some(b'0'..=b'9')) {
        at += 1;
    }
    at
}

/// The offset of the first byte at or after `at` that ends a run of plain
/// string text (`"`, `\` or a control byte below 0x20), or the input's
/// length. Tests eight bytes per step: in each little-endian word, a byte's
/// high bit marks "equal to zero" (`(w - 0x01..) & !w`) or "below 0x20"
/// (`(w - 0x20..) & !w`). Borrows run only upward from the first byte that
/// matches, so the lowest marked byte is the first match.
#[inline]
fn plain_run_end(bytes: &[u8], mut at: usize) -> usize {
    const ONES: u64 = u64::from_ne_bytes([0x01; 8]);
    const HIGH: u64 = u64::from_ne_bytes([0x80; 8]);
    const QUOTES: u64 = u64::from_ne_bytes([b'"'; 8]);
    const BACKSLASHES: u64 = u64::from_ne_bytes([b'\\'; 8]);
    const SPACES: u64 = u64::from_ne_bytes([0x20; 8]);
    let zero = |w: u64| w.wrapping_sub(ONES) & !w;
    while let Some(word) = bytes.get(at..at + 8) {
        let mut le = [0u8; 8];
        le.copy_from_slice(word);
        let w = u64::from_le_bytes(le);
        let found =
            (zero(w ^ QUOTES) | zero(w ^ BACKSLASHES) | (w.wrapping_sub(SPACES) & !w)) & HIGH;
        if found != 0 {
            return at + (found.trailing_zeros() / 8) as usize;
        }
        at += 8;
    }
    while matches!(bytes.get(at), Some(&b) if b != b'"' && b != b'\\' && b >= 0x20) {
        at += 1;
    }
    at
}

/// Decode one document. A decode error is reported only if the whole
/// document is well-formed: otherwise its first syntax error is.
pub(crate) fn from_str<'de, T: Deserialize<'de>>(src: &'de str) -> Result<T, Error> {
    Reader::new(src)
        .document(|r| T::deserialize(r))
        .map_err(|e| match Reader::new(src).document(|r| r.skip()) {
            Err(syntax) => syntax,
            Ok(()) => e,
        })
}

/// A reader over one JSON text.
pub(crate) struct Reader<'de> {
    src: &'de str,
    bytes: &'de [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
    /// Set by the first syntax error: the document is malformed, so no
    /// decode error is recovered from after it.
    malformed: Cell<bool>,
}

impl<'de> Reader<'de> {
    fn new(src: &'de str) -> Self {
        Reader {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            depth: 0,
            malformed: Cell::new(false),
        }
    }

    /// Run `f` on the document's one value, then refuse trailing text.
    fn document<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<T, Error>) -> Result<T, Error> {
        self.skip_ws();
        let v = f(self)?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing characters after JSON value"));
        }
        Ok(v)
    }

    /// Decode the value at the current position with `f`. A shape error
    /// puts the reader back and skips the value, so reading may go on; a
    /// syntax error (met by `f`, or by that skip if `f` stopped early) is
    /// the outer error.
    fn recover<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, Error>,
    ) -> Result<Result<T, Error>, Error> {
        let (pos, depth) = (self.pos, self.depth);
        match f(self) {
            Ok(v) => Ok(Ok(v)),
            Err(e) if self.malformed.get() => Err(e),
            Err(e) => {
                self.pos = pos;
                self.depth = depth;
                self.skip()?;
                Ok(Err(e))
            }
        }
    }

    /// A syntax error at the current position. Errors are the cold path:
    /// kept out of line, so the scanners stay small.
    #[cold]
    #[inline(never)]
    fn err(&self, msg: impl fmt::Display) -> Error {
        self.malformed.set(true);
        Error(format!("{msg} at byte {}", self.pos))
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    #[inline]
    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    #[inline]
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    #[inline]
    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format_args!("expected {:?}", b as char)))
        }
    }

    /// The colon after an object member's key, with the whitespace around it.
    #[inline]
    fn colon(&mut self) -> Result<(), Error> {
        self.skip_ws();
        self.expect(b':')?;
        self.skip_ws();
        Ok(())
    }

    fn keyword(&mut self, kw: &str) -> Result<(), Error> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(())
        } else {
            Err(self.err(format_args!("invalid literal, expected {kw}")))
        }
    }

    /// Open an array or object: one level deeper.
    #[inline]
    fn open(&mut self) -> Result<(), Error> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("recursion limit exceeded"));
        }
        self.depth += 1;
        self.pos += 1;
        Ok(())
    }

    /// A string literal. Text without escapes is borrowed from the input;
    /// the input is a `str`, and every byte that ends a run (`"`, `\`) is
    /// ASCII, so run boundaries are char boundaries.
    #[inline]
    fn string(&mut self) -> Result<Cow<'de, str>, Error> {
        self.expect(b'"')?;
        let start = self.pos;
        self.pos = plain_run_end(self.bytes, start);
        if self.peek() != Some(b'"') {
            return self.unescape(start).map(Cow::Owned);
        }
        self.pos += 1;
        Ok(Cow::Borrowed(&self.src[start..self.pos - 1]))
    }

    /// The rest of a string literal whose first run, from `start`, ended
    /// on something other than its closing quote: an escape, or an error.
    #[inline(never)]
    fn unescape(&mut self, start: usize) -> Result<String, Error> {
        let src = self.src;
        let mut out = String::new();
        let mut run = start;
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    out.push_str(&src[run..self.pos - 1]);
                    return Ok(out);
                }
                Some(b'\\') => {
                    out.push_str(&src[run..self.pos - 1]);
                    out.push(self.escape()?);
                    run = self.pos;
                }
                Some(_) => return Err(self.err("raw control character in string")),
            }
            self.pos = plain_run_end(self.bytes, self.pos);
        }
    }

    /// Check a string literal, keeping nothing: [`Reader::string`]'s
    /// grammar and errors.
    fn skip_string(&mut self) -> Result<(), Error> {
        self.expect(b'"')?;
        loop {
            self.pos = plain_run_end(self.bytes, self.pos);
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(()),
                Some(b'\\') => {
                    self.escape()?;
                }
                Some(_) => return Err(self.err("raw control character in string")),
            }
        }
    }

    /// One escape sequence, its backslash already read: the character it
    /// stands for.
    fn escape(&mut self) -> Result<char, Error> {
        Ok(match self.bump() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{08}',
            Some(b'f') => '\u{0c}',
            Some(b'u') => {
                let hi = self.hex4()?;
                if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair: expect \uXXXX low half.
                    if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                        return Err(self.err("expected low surrogate"));
                    }
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(self.err("invalid low surrogate"));
                    }
                    let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                    char::from_u32(c).ok_or_else(|| self.err("invalid surrogate pair"))?
                } else {
                    char::from_u32(hi).ok_or_else(|| self.err("invalid unicode escape"))?
                }
            }
            _ => return Err(self.err("invalid escape sequence")),
        })
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let mut v = 0u32;
        for _ in 0..4 {
            let c = self
                .bump()
                .ok_or_else(|| self.err("short unicode escape"))?;
            let d = (c as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid hex digit"))?;
            v = v * 16 + d;
        }
        Ok(v)
    }

    /// Scan the number at the current position in one pass, handing each
    /// digit of its integer part to `digit` as it goes by. The scanned span
    /// is the longest run of number characters (digits, `.`, `e`, `E`,
    /// `+`, `-`) after an optional `-`; a span that is not an RFC 8259
    /// number (`01`, `1.`, `-.5`, `1-2`…) is refused with its text and the
    /// byte after it.
    #[inline]
    fn scan_number(&mut self, mut digit: impl FnMut(u8)) -> Result<Shape, Error> {
        let (bytes, start) = (self.bytes, self.pos);
        let negative = bytes.get(start) == Some(&b'-');
        let int_start = start + usize::from(negative);
        let mut i = int_start;
        while let Some(&c @ b'0'..=b'9') = bytes.get(i) {
            digit(c);
            i += 1;
        }
        let digits = i - int_start;
        let mut valid = digits == 1 || (digits > 1 && bytes[int_start] != b'0');
        let mut float = false;
        if bytes.get(i) == Some(&b'.') {
            float = true;
            let end = digits_end(bytes, i + 1);
            valid &= end > i + 1;
            i = end;
        }
        if matches!(bytes.get(i), Some(b'e' | b'E')) {
            float = true;
            i += 1;
            if matches!(bytes.get(i), Some(b'+' | b'-')) {
                i += 1;
            }
            let end = digits_end(bytes, i);
            valid &= end > i;
            i = end;
        }
        // Number characters past a complete number belong to the span.
        while matches!(
            bytes.get(i),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            valid = false;
            i += 1;
        }
        self.pos = i;
        if !valid {
            let text = &self.src[start..i];
            return Err(self.err(format_args!("invalid number {text:?}")));
        }
        Ok(if float {
            Shape::Float
        } else {
            Shape::Int { negative, digits }
        })
    }

    /// Read the number at the current position: an integer's magnitude is
    /// accumulated as it is scanned; the `f64` parser reads only floats,
    /// `-0` and integers out of 64-bit range.
    fn number(&mut self) -> Result<Number, Error> {
        let start = self.pos;
        let mut magnitude = 0u64;
        let shape = self.scan_number(|c| {
            magnitude = magnitude.wrapping_mul(10).wrapping_add(u64::from(c - b'0'));
        })?;
        // Nineteen digits always fit in a `u64`; past that, check.
        let fits = |digits: usize| digits <= 19 || magnitude_fits(&self.bytes[start..self.pos]);
        match shape {
            Shape::Int {
                negative: false,
                digits,
            } if fits(digits) => return Ok(Number::PosInt(magnitude)),
            // `-0` is the float -0.0, as real serde_json reads it: the
            // writer spells -0.0 that way, and an integer would drop the sign.
            Shape::Int {
                negative: true,
                digits,
            } if fits(digits) && (1..=I64_MIN_MAGNITUDE).contains(&magnitude) => {
                return Ok(Number::NegInt((magnitude as i64).wrapping_neg()));
            }
            _ => {}
        }
        let text = &self.src[start..self.pos];
        text.parse::<f64>()
            .map(Number::Float)
            .map_err(|_| self.err(format_args!("invalid number {text:?}")))
    }

    /// The error for a value that cannot start with the next byte.
    fn not_a_value(&self) -> Error {
        match self.peek() {
            Some(c) => self.err(format_args!("unexpected character {:?}", c as char)),
            None => self.err("unexpected end of input"),
        }
    }
}

impl<'a, 'de> Deserializer<'de> for &'a mut Reader<'de> {
    type Error = Error;
    type Seq = SeqReader<'a, 'de>;
    type Map = MapReader<'a, 'de>;

    #[inline]
    fn kind(&mut self) -> Result<Kind, Error> {
        Ok(match self.peek() {
            Some(b'n') => Kind::Null,
            Some(b't' | b'f') => Kind::Bool,
            Some(b'"') => Kind::String,
            Some(b'[') => Kind::Array,
            Some(b'{') => Kind::Object,
            Some(c) if c == b'-' || c.is_ascii_digit() => Kind::Number,
            _ => return Err(self.not_a_value()),
        })
    }

    // Inlined into every decoder, so the `Token` it builds is matched away
    // instead of returned through memory.
    #[inline(always)]
    fn token(self) -> Result<Token<'de, Self::Seq, Self::Map>, Error> {
        Ok(match self.peek() {
            Some(b'n') => self.keyword("null").map(|()| Token::Null)?,
            Some(b't') => self.keyword("true").map(|()| Token::Bool(true))?,
            Some(b'f') => self.keyword("false").map(|()| Token::Bool(false))?,
            Some(b'"') => Token::Str(self.string()?),
            Some(b'[') => {
                self.open()?;
                Token::Array(SeqReader {
                    r: self,
                    first: true,
                    done: false,
                })
            }
            Some(b'{') => {
                self.open()?;
                Token::Object(MapReader {
                    r: self,
                    first: true,
                    done: false,
                })
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => Token::Number(self.number()?),
            _ => return Err(self.not_a_value()),
        })
    }

    fn skip(self) -> Result<(), Error> {
        Reader::skip(self)
    }

    fn raw(self) -> Result<Cow<'de, str>, Error> {
        let (src, start) = (self.src, self.pos);
        self.skip()?;
        Ok(Cow::Borrowed(&src[start..self.pos]))
    }
}

/// The elements of an array being read.
pub(crate) struct SeqReader<'a, 'de> {
    r: &'a mut Reader<'de>,
    first: bool,
    done: bool,
}

impl SeqReader<'_, '_> {
    /// Step over the separator before the next element: `true` if there is
    /// one, `false` once the closing `]` is read.
    #[inline]
    fn advance(&mut self) -> Result<bool, Error> {
        if self.done {
            return Ok(false);
        }
        self.r.skip_ws();
        if self.first {
            self.first = false;
            if self.r.peek() == Some(b']') {
                self.r.pos += 1;
                return Ok(self.close());
            }
        } else {
            match self.r.bump() {
                Some(b',') => {}
                Some(b']') => return Ok(self.close()),
                _ => return Err(self.r.err("expected ',' or ']' in array")),
            }
        }
        self.r.skip_ws();
        Ok(true)
    }

    #[inline]
    fn close(&mut self) -> bool {
        self.done = true;
        self.r.depth -= 1;
        false
    }
}

impl<'de> SeqAccess<'de> for SeqReader<'_, 'de> {
    type Error = Error;

    fn next_element<T: Deserialize<'de>>(&mut self) -> Result<Option<Result<T, Error>>, Error> {
        if !self.advance()? {
            return Ok(None);
        }
        self.r.recover(|r| T::deserialize(r)).map(Some)
    }
}

/// The members of an object being read.
pub(crate) struct MapReader<'a, 'de> {
    r: &'a mut Reader<'de>,
    first: bool,
    done: bool,
}

impl MapReader<'_, '_> {
    #[inline]
    fn close(&mut self) {
        self.done = true;
        self.r.depth -= 1;
    }
}

impl<'de> MapAccess<'de> for MapReader<'_, 'de> {
    type Error = Error;

    #[inline]
    fn next_key(&mut self) -> Result<Option<Cow<'de, str>>, Error> {
        if self.done {
            return Ok(None);
        }
        self.r.skip_ws();
        if self.first {
            self.first = false;
            if self.r.peek() == Some(b'}') {
                self.r.pos += 1;
                self.close();
                return Ok(None);
            }
        } else {
            match self.r.bump() {
                Some(b',') => {}
                Some(b'}') => {
                    self.close();
                    return Ok(None);
                }
                _ => return Err(self.r.err("expected ',' or '}' in object")),
            }
        }
        self.r.skip_ws();
        let key = self.r.string()?;
        self.r.colon()?;
        Ok(Some(key))
    }

    fn next_value<T: Deserialize<'de>>(&mut self) -> Result<Result<T, Error>, Error> {
        self.r.recover(|r| T::deserialize(r))
    }

    #[inline]
    fn skip_value(&mut self) -> Result<(), Error> {
        self.r.skip()
    }

    /// Decodes the first member's content as it reads it. Only when a later
    /// key sorts before it (or repeats it) does the reader go back and
    /// decode that member instead.
    fn variant<T: DeserializeVariant<'de>>(mut self) -> Result<Option<T>, Error> {
        let Some(mut tag) = self.next_key()? else {
            return Ok(None);
        };
        let first = self.r.recover(|r| T::deserialize_variant(&tag, r))?;
        let mut winner = None;
        while let Some(key) = self.next_key()? {
            if key <= tag {
                tag = key;
                winner = Some(self.r.pos);
            }
            self.skip_value()?;
        }
        let Some(content) = winner else {
            return first.map(Some);
        };
        let end = self.r.pos;
        self.r.pos = content;
        // The content sits inside this object, which is closed again now.
        self.r.depth += 1;
        let v = T::deserialize_variant(&tag, &mut *self.r)?;
        self.r.pos = end;
        self.r.depth -= 1;
        Ok(Some(v))
    }
}

impl Reader<'_> {
    /// Consume the next value, checking it but keeping nothing. The same
    /// grammar and errors as reading it through [`Deserializer::token`],
    /// walked in one loop: the open arrays and objects are bits of
    /// `objects` (1 for an object), at most [`MAX_DEPTH`] of them.
    fn skip(&mut self) -> Result<(), Error> {
        let base = self.depth;
        let mut objects = 0u128;
        loop {
            // A value starts here.
            match self.peek() {
                Some(b'"') => self.skip_string()?,
                Some(b'[') => {
                    self.open()?;
                    objects <<= 1;
                    self.skip_ws();
                    if self.peek() != Some(b']') {
                        continue;
                    }
                    self.pos += 1;
                    self.depth -= 1;
                    objects >>= 1;
                }
                Some(b'{') => {
                    self.open()?;
                    objects = objects << 1 | 1;
                    self.skip_ws();
                    if self.peek() != Some(b'}') {
                        self.skip_key()?;
                        continue;
                    }
                    self.pos += 1;
                    self.depth -= 1;
                    objects >>= 1;
                }
                Some(b'n') => self.keyword("null")?,
                Some(b't') => self.keyword("true")?,
                Some(b'f') => self.keyword("false")?,
                Some(c) if c == b'-' || c.is_ascii_digit() => {
                    self.scan_number(|_| {})?;
                }
                _ => return Err(self.not_a_value()),
            }
            // A value ended: close what it ends, up to the next one.
            loop {
                if self.depth == base {
                    return Ok(());
                }
                self.skip_ws();
                let in_object = objects & 1 == 1;
                match self.bump() {
                    Some(b',') => {
                        self.skip_ws();
                        if in_object {
                            self.skip_key()?;
                        }
                        break;
                    }
                    Some(b']') if !in_object => {}
                    Some(b'}') if in_object => {}
                    _ if in_object => return Err(self.err("expected ',' or '}' in object")),
                    _ => return Err(self.err("expected ',' or ']' in array")),
                }
                self.depth -= 1;
                objects >>= 1;
            }
        }
    }

    /// Check an object member's key and the colon after it.
    fn skip_key(&mut self) -> Result<(), Error> {
        self.skip_string()?;
        self.colon()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::value::Value;

    fn parse(s: &str) -> Result<Value, Error> {
        from_str(s)
    }

    #[test]
    fn nesting_stops_at_the_recursion_limit() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.0, "recursion limit exceeded at byte 128");
    }

    #[test]
    fn hundred_thousand_levels_are_an_error_not_a_stack_overflow() {
        for unit in ["[", r#"{"a":"#, r#"[{"a":"#] {
            let err = parse(&unit.repeat(100_000)).unwrap_err();
            assert!(err.0.starts_with("recursion limit exceeded"), "{err}");
        }
    }

    #[test]
    fn numbers_outside_the_json_grammar_are_refused() {
        for (text, at) in [
            ("01", 2),
            ("-01", 3),
            ("00", 2),
            ("007", 3),
            ("1.", 2),
            ("-.5", 3),
            ("1.e5", 4),
            ("1e", 2),
            ("-", 1),
            ("1-2", 3),
        ] {
            let err = parse(text).unwrap_err();
            assert_eq!(err.0, format!("invalid number {text:?} at byte {at}"));
            // The same span and byte inside a document, on every path.
            let doc = format!("[{text}]");
            let want = format!("invalid number {text:?} at byte {}", at + 1);
            assert_eq!(parse(&doc).unwrap_err().0, want);
            let raw = from_str::<crate::RawValue>(&doc).unwrap_err();
            assert_eq!(raw.0, want);
        }
    }

    #[test]
    fn json_numbers_read_as_before() {
        let number = |text: &str| match parse(text) {
            Ok(Value::Number(n)) => n,
            other => panic!("{text} read as {other:?}"),
        };
        let float = |text: &str| match number(text) {
            Number::Float(f) => f.to_bits(),
            other => panic!("{text} read as {other:?}"),
        };
        assert_eq!(float("-0"), (-0.0f64).to_bits());
        assert_eq!(float("-0.0"), (-0.0f64).to_bits());
        assert_eq!(float("1e5"), 1e5f64.to_bits());
        assert_eq!(float("1E+2"), 100f64.to_bits());
        assert_eq!(float("-1.5e-3"), (-1.5e-3f64).to_bits());
        assert_eq!(float("0.1"), 0.1f64.to_bits());
        assert_eq!(
            float("18446744073709551616"),
            18446744073709551616f64.to_bits()
        );
        assert_eq!(
            float("-9223372036854775809"),
            (-9223372036854775809f64).to_bits()
        );
        assert!(matches!(number("0"), Number::PosInt(0)));
        assert!(matches!(number("10"), Number::PosInt(10)));
        assert!(matches!(
            number("18446744073709551615"),
            Number::PosInt(u64::MAX)
        ));
        assert!(matches!(number("-1"), Number::NegInt(-1)));
        assert!(matches!(
            number("-9223372036854775808"),
            Number::NegInt(i64::MIN)
        ));
    }

    #[test]
    fn the_word_scan_finds_the_first_end_of_a_run() {
        for len in 0..20 {
            for at in 0..=len {
                for end in ["\"", "\\", "\u{0}", "\u{1f}"] {
                    let mut text = "é".repeat(len / 2) + &"a".repeat(len % 2);
                    let stop = text.char_indices().map(|(i, _)| i).chain([text.len()]);
                    let stop = stop.take(at + 1).last().unwrap_or(0);
                    text.insert_str(stop, end);
                    text.push('"');
                    assert_eq!(plain_run_end(text.as_bytes(), 0), stop, "{text:?}");
                }
            }
            let plain = "\u{7f}~ é日😀".repeat(len);
            assert_eq!(plain_run_end(plain.as_bytes(), 0), plain.len());
        }
    }

    /// How walking the one value at the start of `text` ended: the byte it
    /// stopped at, or the error.
    fn walk(text: &str, f: impl FnOnce(&mut Reader) -> Result<(), Error>) -> Result<usize, String> {
        let mut r = Reader::new(text);
        r.skip_ws();
        f(&mut r).map(|()| r.pos).map_err(|e| e.0)
    }

    /// The byte-level skip and the token path's `Value` walk agree.
    fn skip_is_the_value_walk(text: &str) {
        let skipped = walk(text, |r| r.skip());
        let walked = walk(text, |r| Deserializer::value(r).map(drop));
        assert_eq!(skipped, walked, "input {text:?}");
    }

    /// Every cut, and every byte flipped by every mask, of `text`.
    fn cut_and_flipped(text: &str) {
        let bytes = text.as_bytes();
        for at in 0..bytes.len() {
            skip_is_the_value_walk(&String::from_utf8_lossy(&bytes[..at]));
            let mut flipped = bytes.to_vec();
            for mask in 1..=255u8 {
                flipped[at] = bytes[at] ^ mask;
                skip_is_the_value_walk(&String::from_utf8_lossy(&flipped));
            }
        }
    }

    /// A real `Samples` reply body: four samples of the MOST public run.
    const SAMPLES_REPLY: &str = r#"{"Samples":{"done":false,"dropped":0,"samples":[{"channel":"ncsa/dof-1/disp","t":764565679839,"value":0.00010206091599068355},{"channel":"ncsa/dof-1/force","t":764565679839,"value":637.9591287178997},{"channel":"uiuc/dof-0/disp","t":764745679839,"value":-0.000242},{"channel":"uiuc/dof-0/force","t":764745679839,"value":-211.5}]}}"#;

    /// Real trace lines of a three-site run: spans, a counter, a histogram.
    const TRACE_LINES: [&str; 5] = [
        r#"{"t":30873985,"seq":5,"kind":"span_start","span":6,"sub":"ntcp","name":"propose","fields":{"site":"site-002","tx":"step-000000-a0","corr":3}}"#,
        r#"{"t":60969401,"seq":11,"kind":"span_end","span":5,"sub":"rpc","name":"call","fields":{"attempts":1,"ok":true}}"#,
        r#"{"t":0,"seq":0,"kind":"span_start","span":1,"sub":"coordinator","name":"step","fields":{"step":0,"attempt":0}}"#,
        r#"{"kind":"counter","name":"link.bytes{coordinator->site-002}","value":1070}"#,
        r#"{"kind":"histogram","name":"rpc.rtt_ns","count":18,"sum_ns":2123294616,"max_ns":225163647,"buckets":[0,0,0,0,0,0,9,6,3,0,0,0,0]}"#,
    ];

    #[test]
    fn skip_walks_real_bodies_as_the_value_walk_does_cut_and_flipped() {
        cut_and_flipped(SAMPLES_REPLY);
        for line in TRACE_LINES {
            cut_and_flipped(line);
        }
    }

    #[test]
    fn skip_stops_at_the_recursion_limit_as_the_value_walk_does() {
        for depth in [MAX_DEPTH - 1, MAX_DEPTH, MAX_DEPTH + 1] {
            for (open, close) in [("[", "]"), (r#"{"a":"#, "}"), (r#"[{"a":"#, "}]")] {
                let nested = open.repeat(depth) + "1" + &close.repeat(depth);
                skip_is_the_value_walk(&nested);
                cut_and_flipped(&nested[nested.len() - 8..]);
            }
            skip_is_the_value_walk(&("[".repeat(depth) + &"]".repeat(depth)));
        }
    }

    /// JSON tokens, edge numbers and escapes, whitespace and stray bytes.
    const SOUP: [&str; 44] = [
        "[",
        "]",
        "{",
        "}",
        "\"",
        ":",
        ",",
        " ",
        "\n",
        "\\",
        "\\u",
        "d83d",
        "dc00",
        "00e9",
        "\\n",
        "\\x",
        "0",
        "1",
        "-",
        "+",
        ".",
        "e",
        "E",
        "01",
        "1.5",
        "-0",
        "1e999",
        "18446744073709551616",
        "-9223372036854775809",
        "null",
        "nul",
        "true",
        "tru",
        "false",
        "é",
        "日",
        "\u{1}",
        "\u{1f}",
        "\u{7f}",
        "\"kind\"",
        "\"a\":",
        "[]",
        "{}",
        "x",
    ];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]
        #[test]
        fn skip_walks_token_soup_as_the_value_walk_does(
            picks in proptest::collection::vec(0..SOUP.len(), 0..64),
        ) {
            let soup: String = picks.iter().map(|&i| SOUP[i]).collect();
            skip_is_the_value_walk(&soup);
        }
    }
}

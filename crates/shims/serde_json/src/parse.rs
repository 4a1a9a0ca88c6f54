//! The JSON text reader: a recursive-descent parser that hands values out
//! through the shim's pull interface ([`serde::de`]) instead of building a
//! tree. A typed target decodes straight from the text; a `Value` is built
//! only where one is asked for.
//!
//! Every path through a document (decoding, skipping, building a `Value`)
//! runs the same grammar functions, so they accept the same documents and
//! report the same first syntax error at the same byte.

use std::borrow::Cow;
use std::cell::Cell;

use serde::de::{Deserialize, DeserializeVariant, Deserializer, Kind, MapAccess, SeqAccess, Token};
use serde::value::Number;

use crate::Error;

/// Deepest array/object nesting accepted, real serde_json's recursion
/// limit. Each level recurses once, so without a bound a hostile input of
/// nothing but `[` overflows the stack and aborts the process.
const MAX_DEPTH: usize = 128;

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

    /// A syntax error at the current position.
    fn err(&self, msg: &str) -> Error {
        self.malformed.set(true);
        Error(format!("{msg} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn keyword(&mut self, kw: &str) -> Result<(), Error> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(())
        } else {
            Err(self.err(&format!("invalid literal, expected {kw}")))
        }
    }

    /// Open an array or object: one level deeper.
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
    fn string(&mut self) -> Result<Cow<'de, str>, Error> {
        self.expect(b'"')?;
        let src: &'de str = self.src;
        let mut unescaped: Option<String> = None;
        let mut run = self.pos;
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    let tail = &src[run..self.pos - 1];
                    return Ok(match unescaped {
                        None => Cow::Borrowed(tail),
                        Some(out) => Cow::Owned(out + tail),
                    });
                }
                Some(b'\\') => {
                    let out = unescaped.get_or_insert_with(String::new);
                    out.push_str(&src[run..self.pos - 1]);
                    self.escape(out)?;
                    run = self.pos;
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {}
            }
        }
    }

    /// One escape sequence, its backslash already read.
    fn escape(&mut self, out: &mut String) -> Result<(), Error> {
        match self.bump() {
            Some(b'"') => out.push('"'),
            Some(b'\\') => out.push('\\'),
            Some(b'/') => out.push('/'),
            Some(b'n') => out.push('\n'),
            Some(b'r') => out.push('\r'),
            Some(b't') => out.push('\t'),
            Some(b'b') => out.push('\u{08}'),
            Some(b'f') => out.push('\u{0c}'),
            Some(b'u') => {
                let hi = self.hex4()?;
                let c = if (0xD800..0xDC00).contains(&hi) {
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
                };
                out.push(c);
            }
            _ => return Err(self.err("invalid escape sequence")),
        }
        Ok(())
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

    fn number(&mut self) -> Result<Number, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.src[start..self.pos];
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Number::PosInt(u));
            }
            // `-0` is the float -0.0, as real serde_json reads it: the
            // writer spells -0.0 that way, and an integer would drop the sign.
            if let Ok(i @ ..=-1) = text.parse::<i64>() {
                return Ok(Number::NegInt(i));
            }
            // Negative zero, or an integer out of 64-bit range: f64.
        }
        text.parse::<f64>()
            .map(Number::Float)
            .map_err(|_| self.err(&format!("invalid number {text:?}")))
    }

    /// The error for a value that cannot start with the next byte.
    fn not_a_value(&self) -> Error {
        match self.peek() {
            Some(c) => self.err(&format!("unexpected character {:?}", c as char)),
            None => self.err("unexpected end of input"),
        }
    }
}

impl<'a, 'de> Deserializer<'de> for &'a mut Reader<'de> {
    type Error = Error;
    type Seq = SeqReader<'a, 'de>;
    type Map = MapReader<'a, 'de>;

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
    fn close(&mut self) {
        self.done = true;
        self.r.depth -= 1;
    }
}

impl<'de> MapAccess<'de> for MapReader<'_, 'de> {
    type Error = Error;

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
        self.r.skip_ws();
        self.r.expect(b':')?;
        self.r.skip_ws();
        Ok(Some(key))
    }

    fn next_value<T: Deserialize<'de>>(&mut self) -> Result<Result<T, Error>, Error> {
        self.r.recover(|r| T::deserialize(r))
    }

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
    fn skip(&mut self) -> Result<(), Error> {
        Deserializer::skip(self)
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
}

//! A deterministic JSON encoder/decoder over [`Value`] trees.
//!
//! This is the shim's `serde_json`: [`to_value`] runs any [`Serialize`] impl
//! through a value-building [`crate::ser::Serializer`], [`to_string`] /
//! [`to_string_pretty`] print deterministically (object entries keep
//! insertion order, floats use Rust's shortest round-trip formatting), and
//! [`from_str`] parses back into [`Value`] for [`Deserialize`].
//!
//! Determinism matters here: the chaos harness promises byte-identical
//! reports for identical seeds, and diffs of saved schedules must reflect
//! semantic changes only.

use crate::de::Deserialize;
use crate::ser::{self, Serialize};
use std::fmt;

/// A JSON document.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A signed integer.
    I64(i64),
    /// An unsigned integer above `i64::MAX`.
    U64(u64),
    /// A float.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; entries keep insertion order for deterministic output.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// A short name of the value's JSON type, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::I64(_) | Value::U64(_) => "integer",
            Value::F64(_) => "number",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }

    /// The object entries, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(entries) => Some(entries),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Looks up a key, if this is an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Numeric view as `f64` (integers convert).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::I64(v) => Some(v as f64),
            Value::U64(v) => Some(v as f64),
            Value::F64(v) => Some(v),
            _ => None,
        }
    }

    /// Numeric view as `u64`, if in range.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::I64(v) => u64::try_from(v).ok(),
            Value::U64(v) => Some(v),
            _ => None,
        }
    }

    /// Numeric view as `i64`, if in range.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Value::I64(v) => Some(v),
            Value::U64(v) => i64::try_from(v).ok(),
            _ => None,
        }
    }
}

/// JSON encode/decode error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl ser::Error for Error {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        Error(msg.to_string())
    }
}

impl Error {
    /// Builds an error from a message (mirror of [`ser::Error::custom`]).
    pub fn custom<T: fmt::Display>(msg: T) -> Self {
        Error(msg.to_string())
    }
}

// ---------------------------------------------------------------------------
// Serialization: Serialize -> Value
// ---------------------------------------------------------------------------

/// Converts any serializable value to a [`Value`] tree.
///
/// # Errors
///
/// Fails on non-finite floats and map keys that are not strings.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Result<Value, Error> {
    value.serialize(ValueSerializer)
}

/// Encodes to compact JSON.
///
/// # Errors
///
/// Same conditions as [`to_value`].
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(print(&to_value(value)?, None))
}

/// Encodes to pretty (2-space indented) JSON with a trailing newline-free
/// body; output is byte-deterministic for equal inputs.
///
/// # Errors
///
/// Same conditions as [`to_value`].
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(print(&to_value(value)?, Some(0)))
}

/// The deepest array/object nesting [`parse`] accepts (serde_json's
/// default). The parser recurses once per level, so without a cap a
/// hostile `[[[…]]]` would overflow the stack instead of returning an error.
pub const MAX_DEPTH: usize = 128;

/// Parses JSON text into a [`Value`].
///
/// # Errors
///
/// Returns an error describing the first syntax problem, or nesting deeper
/// than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error(format!("trailing input at byte {}", p.pos)));
    }
    Ok(v)
}

/// Parses JSON text straight into a deserializable type.
///
/// # Errors
///
/// Propagates syntax errors from [`parse`] and shape errors from the
/// target's [`Deserialize`] impl.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T, Error> {
    T::deserialize(&parse(text)?)
}

/// Converts a [`Value`] into a deserializable type.
///
/// # Errors
///
/// Propagates shape errors from the target's [`Deserialize`] impl.
pub fn from_value<T: Deserialize>(value: &Value) -> Result<T, Error> {
    T::deserialize(value)
}

struct ValueSerializer;

fn finite(v: f64) -> Result<Value, Error> {
    if v.is_finite() {
        Ok(Value::F64(v))
    } else {
        Err(Error(format!("non-finite float {v} has no JSON form")))
    }
}

/// Builder for arrays (sequences, tuples, tuple structs/variants).
struct ArrayBuilder {
    items: Vec<Value>,
    /// For variants: wrap the finished array as `{variant: [...]}`.
    variant: Option<&'static str>,
}

/// Builder for objects (maps, structs, struct variants).
struct ObjectBuilder {
    entries: Vec<(String, Value)>,
    pending_key: Option<String>,
    variant: Option<&'static str>,
}

fn wrap(variant: Option<&'static str>, v: Value) -> Value {
    match variant {
        Some(name) => Value::Object(vec![(name.to_owned(), v)]),
        None => v,
    }
}

impl ser::Serializer for ValueSerializer {
    type Ok = Value;
    type Error = Error;
    type SerializeSeq = ArrayBuilder;
    type SerializeTuple = ArrayBuilder;
    type SerializeTupleStruct = ArrayBuilder;
    type SerializeTupleVariant = ArrayBuilder;
    type SerializeMap = ObjectBuilder;
    type SerializeStruct = ObjectBuilder;
    type SerializeStructVariant = ObjectBuilder;

    fn serialize_bool(self, v: bool) -> Result<Value, Error> {
        Ok(Value::Bool(v))
    }
    fn serialize_i8(self, v: i8) -> Result<Value, Error> {
        Ok(Value::I64(v.into()))
    }
    fn serialize_i16(self, v: i16) -> Result<Value, Error> {
        Ok(Value::I64(v.into()))
    }
    fn serialize_i32(self, v: i32) -> Result<Value, Error> {
        Ok(Value::I64(v.into()))
    }
    fn serialize_i64(self, v: i64) -> Result<Value, Error> {
        Ok(Value::I64(v))
    }
    fn serialize_i128(self, v: i128) -> Result<Value, Error> {
        i64::try_from(v)
            .map(Value::I64)
            .map_err(|_| Error(format!("i128 {v} out of JSON integer range")))
    }
    fn serialize_u8(self, v: u8) -> Result<Value, Error> {
        Ok(Value::I64(v.into()))
    }
    fn serialize_u16(self, v: u16) -> Result<Value, Error> {
        Ok(Value::I64(v.into()))
    }
    fn serialize_u32(self, v: u32) -> Result<Value, Error> {
        Ok(Value::I64(v.into()))
    }
    fn serialize_u64(self, v: u64) -> Result<Value, Error> {
        Ok(match i64::try_from(v) {
            Ok(i) => Value::I64(i),
            Err(_) => Value::U64(v),
        })
    }
    fn serialize_u128(self, v: u128) -> Result<Value, Error> {
        u64::try_from(v)
            .map(|u| match i64::try_from(u) {
                Ok(i) => Value::I64(i),
                Err(_) => Value::U64(u),
            })
            .map_err(|_| Error(format!("u128 {v} out of JSON integer range")))
    }
    fn serialize_f32(self, v: f32) -> Result<Value, Error> {
        finite(v.into())
    }
    fn serialize_f64(self, v: f64) -> Result<Value, Error> {
        finite(v)
    }
    fn serialize_char(self, v: char) -> Result<Value, Error> {
        Ok(Value::Str(v.to_string()))
    }
    fn serialize_str(self, v: &str) -> Result<Value, Error> {
        Ok(Value::Str(v.to_owned()))
    }
    fn serialize_bytes(self, v: &[u8]) -> Result<Value, Error> {
        Ok(Value::Array(
            v.iter().map(|&b| Value::I64(b.into())).collect(),
        ))
    }
    fn serialize_none(self) -> Result<Value, Error> {
        Ok(Value::Null)
    }
    fn serialize_some<T: Serialize + ?Sized>(self, value: &T) -> Result<Value, Error> {
        value.serialize(ValueSerializer)
    }
    fn serialize_unit(self) -> Result<Value, Error> {
        Ok(Value::Null)
    }
    fn serialize_unit_struct(self, _name: &'static str) -> Result<Value, Error> {
        Ok(Value::Null)
    }
    fn serialize_unit_variant(
        self,
        _name: &'static str,
        _variant_index: u32,
        variant: &'static str,
    ) -> Result<Value, Error> {
        Ok(Value::Str(variant.to_owned()))
    }
    fn serialize_newtype_struct<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        value: &T,
    ) -> Result<Value, Error> {
        value.serialize(ValueSerializer)
    }
    fn serialize_newtype_variant<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        _variant_index: u32,
        variant: &'static str,
        value: &T,
    ) -> Result<Value, Error> {
        Ok(wrap(Some(variant), value.serialize(ValueSerializer)?))
    }
    fn serialize_seq(self, len: Option<usize>) -> Result<ArrayBuilder, Error> {
        Ok(ArrayBuilder {
            items: Vec::with_capacity(len.unwrap_or(0)),
            variant: None,
        })
    }
    fn serialize_tuple(self, len: usize) -> Result<ArrayBuilder, Error> {
        self.serialize_seq(Some(len))
    }
    fn serialize_tuple_struct(
        self,
        _name: &'static str,
        len: usize,
    ) -> Result<ArrayBuilder, Error> {
        self.serialize_seq(Some(len))
    }
    fn serialize_tuple_variant(
        self,
        _name: &'static str,
        _variant_index: u32,
        variant: &'static str,
        len: usize,
    ) -> Result<ArrayBuilder, Error> {
        Ok(ArrayBuilder {
            items: Vec::with_capacity(len),
            variant: Some(variant),
        })
    }
    fn serialize_map(self, len: Option<usize>) -> Result<ObjectBuilder, Error> {
        Ok(ObjectBuilder {
            entries: Vec::with_capacity(len.unwrap_or(0)),
            pending_key: None,
            variant: None,
        })
    }
    fn serialize_struct(self, _name: &'static str, len: usize) -> Result<ObjectBuilder, Error> {
        self.serialize_map(Some(len))
    }
    fn serialize_struct_variant(
        self,
        _name: &'static str,
        _variant_index: u32,
        variant: &'static str,
        len: usize,
    ) -> Result<ObjectBuilder, Error> {
        Ok(ObjectBuilder {
            entries: Vec::with_capacity(len),
            pending_key: None,
            variant: Some(variant),
        })
    }
}

impl ser::SerializeSeq for ArrayBuilder {
    type Ok = Value;
    type Error = Error;
    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Error> {
        self.items.push(value.serialize(ValueSerializer)?);
        Ok(())
    }
    fn end(self) -> Result<Value, Error> {
        Ok(wrap(self.variant, Value::Array(self.items)))
    }
}

macro_rules! array_like {
    ($trait:path, $method:ident) => {
        impl $trait for ArrayBuilder {
            type Ok = Value;
            type Error = Error;
            fn $method<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Error> {
                self.items.push(value.serialize(ValueSerializer)?);
                Ok(())
            }
            fn end(self) -> Result<Value, Error> {
                Ok(wrap(self.variant, Value::Array(self.items)))
            }
        }
    };
}

array_like!(ser::SerializeTuple, serialize_element);
array_like!(ser::SerializeTupleStruct, serialize_field);
array_like!(ser::SerializeTupleVariant, serialize_field);

impl ser::SerializeMap for ObjectBuilder {
    type Ok = Value;
    type Error = Error;
    fn serialize_key<T: Serialize + ?Sized>(&mut self, key: &T) -> Result<(), Error> {
        match key.serialize(ValueSerializer)? {
            Value::Str(s) => {
                self.pending_key = Some(s);
                Ok(())
            }
            other => Err(Error(format!(
                "JSON map keys must be strings, got {}",
                other.kind()
            ))),
        }
    }
    fn serialize_value<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Error> {
        let key = self
            .pending_key
            .take()
            .ok_or_else(|| Error("serialize_value before serialize_key".to_owned()))?;
        self.entries.push((key, value.serialize(ValueSerializer)?));
        Ok(())
    }
    fn end(self) -> Result<Value, Error> {
        Ok(wrap(self.variant, Value::Object(self.entries)))
    }
}

macro_rules! object_like {
    ($trait:path) => {
        impl $trait for ObjectBuilder {
            type Ok = Value;
            type Error = Error;
            fn serialize_field<T: Serialize + ?Sized>(
                &mut self,
                key: &'static str,
                value: &T,
            ) -> Result<(), Error> {
                self.entries
                    .push((key.to_owned(), value.serialize(ValueSerializer)?));
                Ok(())
            }
            fn end(self) -> Result<Value, Error> {
                Ok(wrap(self.variant, Value::Object(self.entries)))
            }
        }
    };
}

object_like!(ser::SerializeStruct);
object_like!(ser::SerializeStructVariant);

// ---------------------------------------------------------------------------
// Printing
// ---------------------------------------------------------------------------

fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Formats a float deterministically: Rust's shortest round-trip repr, with
/// a `.0` suffix when it would otherwise read as an integer.
fn fmt_f64(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') || s.contains('E') {
        s
    } else {
        format!("{s}.0")
    }
}

/// `indent = None` prints compact JSON; `Some(level)` pretty-prints.
fn print(v: &Value, indent: Option<usize>) -> String {
    let mut out = String::new();
    print_into(&mut out, v, indent);
    out
}

fn print_into(out: &mut String, v: &Value, indent: Option<usize>) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::I64(n) => out.push_str(&n.to_string()),
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::F64(x) => out.push_str(&fmt_f64(*x)),
        Value::Str(s) => escape_into(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (k, item) in items.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                match indent {
                    Some(level) => {
                        out.push('\n');
                        out.push_str(&"  ".repeat(level + 1));
                        print_into(out, item, Some(level + 1));
                    }
                    None => print_into(out, item, None),
                }
            }
            if let Some(level) = indent {
                out.push('\n');
                out.push_str(&"  ".repeat(level));
            }
            out.push(']');
        }
        Value::Object(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (k, (key, val)) in entries.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                match indent {
                    Some(level) => {
                        out.push('\n');
                        out.push_str(&"  ".repeat(level + 1));
                        escape_into(out, key);
                        out.push_str(": ");
                        print_into(out, val, Some(level + 1));
                    }
                    None => {
                        escape_into(out, key);
                        out.push(':');
                        print_into(out, val, None);
                    }
                }
            }
            if let Some(level) = indent {
                out.push('\n');
                out.push_str(&"  ".repeat(level));
            }
            out.push('}');
        }
    }
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), Error> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(())
        } else {
            Err(Error(format!("expected `{kw}` at byte {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => self.expect_keyword("null").map(|()| Value::Null),
            Some(b't') => self.expect_keyword("true").map(|()| Value::Bool(true)),
            Some(b'f') => self.expect_keyword("false").map(|()| Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(Error(format!(
                "unexpected `{}` at byte {}",
                b.escape_ascii(),
                self.pos
            ))),
            None => Err(Error("unexpected end of input".to_owned())),
        }
    }

    /// Parses an array or object one level deeper, failing past
    /// [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000C}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| Error("truncated \\u escape".to_owned()))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error("bad \\u escape".to_owned()))?,
                                16,
                            )
                            .map_err(|_| Error("bad \\u escape".to_owned()))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error("bad \\u code point".to_owned()))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(Error(format!("bad escape at byte {}", self.pos))),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 code point.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| Error("invalid UTF-8 in string".to_owned()))?;
                    let c = rest.chars().next().expect("nonempty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
                None => return Err(Error("unterminated string".to_owned())),
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("ascii digits are valid UTF-8");
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::I64(i));
            }
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::U64(u));
            }
        }
        match text.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Value::F64(v)),
            // As serde_json: a literal past f64's range is an error, not
            // an infinity that no value can serialize back.
            Ok(_) => Err(Error(format!("number `{text}` out of range"))),
            Err(_) => Err(Error(format!("bad number `{text}`"))),
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(Error(format!("expected `,` or `]` at byte {}", self.pos))),
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            entries.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                _ => return Err(Error(format!("expected `,` or `}}` at byte {}", self.pos))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn print_parse_roundtrip() {
        let v = Value::Object(vec![
            ("a".to_owned(), Value::I64(-3)),
            (
                "b".to_owned(),
                Value::Array(vec![Value::Bool(true), Value::Null]),
            ),
            ("c".to_owned(), Value::F64(0.5)),
            ("d".to_owned(), Value::Str("x\"\\\n".to_owned())),
            ("e".to_owned(), Value::U64(u64::MAX)),
        ]);
        for pretty in [false, true] {
            let text = print(&v, if pretty { Some(0) } else { None });
            assert_eq!(parse(&text).unwrap(), v, "pretty = {pretty}");
        }
    }

    #[test]
    fn floats_keep_a_decimal_point() {
        assert_eq!(fmt_f64(1.0), "1.0");
        assert_eq!(fmt_f64(0.125), "0.125");
        assert_eq!(parse("1.0").unwrap(), Value::F64(1.0));
        assert_eq!(parse("1").unwrap(), Value::I64(1));
    }

    #[test]
    fn printing_is_deterministic() {
        let v = Value::Object(vec![
            ("z".to_owned(), Value::I64(1)),
            ("a".to_owned(), Value::I64(2)),
        ]);
        // Insertion order, not sorted: deterministic, diff-friendly.
        assert_eq!(print(&v, None), "{\"z\":1,\"a\":2}");
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("nul").is_err());
        assert!(parse("1 2").is_err());

        let nest = |open: &str, close: &str, depth: usize| {
            format!("{}1{}", open.repeat(depth), close.repeat(depth))
        };
        assert!(parse(&nest("[", "]", MAX_DEPTH)).is_ok());
        let err = parse(&nest("[", "]", MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(
            err.to_string(),
            format!("nesting deeper than {MAX_DEPTH} levels at byte {MAX_DEPTH}")
        );
        // Deep enough to overflow the stack without the cap.
        let err = parse(&nest("{\"a\":", "}", 50_000)).unwrap_err();
        assert!(err.to_string().starts_with("nesting deeper than"), "{err}");
    }

    #[test]
    fn numbers_past_f64_range_are_errors() {
        let huge_int = format!("1{}", "0".repeat(400));
        for text in ["1e400", "-1e400", "1.5E+309", huge_int.as_str()] {
            let err = parse(text).unwrap_err();
            assert_eq!(err.to_string(), format!("number `{text}` out of range"));
            assert!(parse(&format!("{{\"x\":[{text}]}}")).is_err(), "{text}");
        }
        // Underflow rounds to zero, as serde_json reads it.
        assert_eq!(parse("1e-400").unwrap(), Value::F64(0.0));
        assert_eq!(
            parse("1.7976931348623157e308").unwrap(),
            Value::F64(f64::MAX)
        );
    }
}

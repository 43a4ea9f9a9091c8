//! The record kit: one ordered `field => "wire key"` table per
//! `key=value` record, from which both directions of its text mapping
//! are derived.
//!
//! Responses and transport records (`stats`, `balance`,
//! `list-sessions`, the session image, process-shard reports) are rows
//! of whitespace-separated `key=value` tokens.
//! [`wire_record!`](crate::wire_record) declares such a record's type
//! and its wire keys in one listing and emits `put_fields` /
//! `get_fields` — inverse by construction, so adding a counter to a row
//! is one table line. The key is spelled beside the field because
//! several differ from it (`busy`, `trigger`, `missing`, …). A record
//! inside a row (the latency histogram's two keys in a `shard` row) is
//! a table of its own, put and got beside the row's.
//!
//! Two forms:
//!
//! - **struct**: `field: Type => "key" [as Spelling],` lines in wire
//!   order, then optionally `..` and fields that carry no key;
//! - **enum**: one `Variant = "keyword" { <struct body> },` per row kind,
//!   then optionally `..` and wrapped variants,
//!   `Variant = "keyword" (Record),` whose record is a struct-form table
//!   of its own. The enum also gets `keyword()`, and its `get_fields`
//!   takes the keyword that picks the variant.
//!
//! A value is written as its [`Token`] unless the field names a
//! [`Spelling`]: [`YesNo`], [`OnOff`], [`Fixed3`] (`{:.3}`), [`Sci3`]
//! (`{:.3e}`), [`Hex16`] (sixteen hex digits) or [`Spaced`]. Display
//! floats read back as the value displayed, not the original bits.
//!
//! A [`Spaced`] value (a name or a path) may hold spaces: it runs to the
//! last ` <next key>=` of its table, or to the end of the line when it is
//! the table's last key, and the table's other keys are looked up
//! outside it — so a name may even hold the text of the key after it. A
//! table has at most one spaced field. [`lead`] applies the same rule to
//! a name that leads its row.
//!
//! What is not a single token stays hand-written around the kit call,
//! on purpose: leading positional tokens (`shard <i>`, `session <name>`,
//! a frame's `<w>x<h>`), row counts checked against their header, and
//! multi-line bodies.

use crate::cache::CacheStats;
use crate::codec::BalanceMode;
use crate::error::ApiError;
use crate::response::DamageRect;
use std::fmt::{Display, LowerExp, Write};
use std::str::FromStr;

/// Sentinel for empty lists and absent optionals on the wire.
pub(crate) const NONE: &str = "-";

/// A value that travels as one whitespace-free `key=value` token.
pub trait Token: Sized {
    /// Append the canonical token text.
    fn put(&self, out: &mut String);
    /// Parse the token text; `None` if it is not one of ours.
    fn get(token: &str) -> Option<Self>;
}

macro_rules! display_tokens {
    ($($ty:ty),*) => {$(
        impl Token for $ty {
            fn put(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
            fn get(token: &str) -> Option<Self> {
                token.parse().ok()
            }
        }
    )*};
}
// Floats keep Rust's shortest round-trip `Display` form.
display_tokens!(u32, u64, usize, f64, String, BalanceMode);

/// An optional value; absent is `-`.
impl<T: Token> Token for Option<T> {
    fn put(&self, out: &mut String) {
        match self {
            Some(value) => value.put(out),
            None => out.push_str(NONE),
        }
    }
    fn get(token: &str) -> Option<Self> {
        if token == NONE {
            Some(None)
        } else {
            T::get(token).map(Some)
        }
    }
}

/// A list, `<a>,<b>,…`; `-` is the empty list. Items are trimmed and
/// none may be empty.
impl<T: Token> Token for Vec<T> {
    fn put(&self, out: &mut String) {
        if self.is_empty() {
            out.push_str(NONE);
        }
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.put(out);
        }
    }
    fn get(token: &str) -> Option<Self> {
        if token == NONE {
            return Some(Vec::new());
        }
        let item = |text: &str| Some(text.trim()).filter(|t| !t.is_empty()).and_then(T::get);
        token.split(',').map(item).collect()
    }
}

/// A flag, `0` or `1`.
impl Token for bool {
    fn put(&self, out: &mut String) {
        out.push(if *self { '1' } else { '0' });
    }
    fn get(token: &str) -> Option<Self> {
        match token {
            "0" => Some(false),
            "1" => Some(true),
            _ => None,
        }
    }
}

/// Pixel dimensions, `<w>x<h>`.
impl Token for (usize, usize) {
    fn put(&self, out: &mut String) {
        let _ = write!(out, "{}x{}", self.0, self.1);
    }
    fn get(token: &str) -> Option<Self> {
        let (w, h) = token.split_once('x')?;
        Some((w.parse().ok()?, h.parse().ok()?))
    }
}

/// A damaged scene rectangle, `<x>:<y>:<w>:<h>`.
impl Token for DamageRect {
    fn put(&self, out: &mut String) {
        let _ = write!(out, "{}:{}:{}:{}", self.x, self.y, self.w, self.h);
    }
    fn get(token: &str) -> Option<Self> {
        let mut parts = token.split(':').map(str::parse);
        let mut next = || parts.next()?.ok();
        let rect = DamageRect {
            x: next()?,
            y: next()?,
            w: next()?,
            h: next()?,
        };
        parts.next().is_none().then_some(rect)
    }
}

/// A fixed-length count list, `<c0>,<c1>,…`: exactly `N` counts.
impl<const N: usize> Token for [u64; N] {
    fn put(&self, out: &mut String) {
        for (i, count) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            count.put(out);
        }
    }
    fn get(token: &str) -> Option<Self> {
        let mut counts = [0; N];
        let mut parts = token.split(',');
        for count in &mut counts {
            *count = parts.next()?.parse().ok()?;
        }
        parts.next().is_none().then_some(counts)
    }
}

/// Dataset-cache gauges as one seven-count list, in field order.
impl Token for CacheStats {
    fn put(&self, out: &mut String) {
        [
            self.entries as u64,
            self.hits,
            self.misses,
            self.evictions,
            self.derived_entries as u64,
            self.derived_hits,
            self.derived_misses,
        ]
        .put(out);
    }
    fn get(token: &str) -> Option<Self> {
        let [entries, hits, misses, evictions, derived_entries, derived_hits, derived_misses] =
            <[u64; 7]>::get(token)?;
        Some(CacheStats {
            entries: entries.try_into().ok()?,
            hits,
            misses,
            evictions,
            derived_entries: derived_entries.try_into().ok()?,
            derived_hits,
            derived_misses,
        })
    }
}

/// How a keyed field's value is written and read, when a table names
/// it (`=> "key" as Spelling`); a field that names none is [`Plain`].
pub trait Spelling<T> {
    /// Whether the value may hold spaces (see [`Spaced`]).
    const SPACED: bool = false;
    /// Append the value's text.
    fn put(value: &T, out: &mut String);
    /// Parse the value's text; `None` if it is not one of ours.
    fn get(text: &str) -> Option<T>;
}

/// The value's own [`Token`]; `Plain<true>` is [`Spaced`].
pub struct Plain<const SPACED: bool = false>;

impl<T: Token, const SPACED: bool> Spelling<T> for Plain<SPACED> {
    const SPACED: bool = SPACED;
    fn put(value: &T, out: &mut String) {
        value.put(out);
    }
    fn get(text: &str) -> Option<T> {
        T::get(text)
    }
}

/// A name or path that may hold spaces, written as its [`Token`]; see
/// the [module docs](self).
pub type Spaced = Plain<true>;

macro_rules! flag_spellings {
    ($($(#[$meta:meta])* $name:ident = $yes:literal / $no:literal;)*) => {$(
        $(#[$meta])*
        pub struct $name;

        impl Spelling<bool> for $name {
            fn put(value: &bool, out: &mut String) {
                out.push_str(if *value { $yes } else { $no });
            }
            fn get(text: &str) -> Option<bool> {
                match text {
                    $yes => Some(true),
                    $no => Some(false),
                    _ => None,
                }
            }
        }
    )*};
}
flag_spellings! {
    /// A flag, `yes` or `no`.
    YesNo = "yes" / "no";
    /// A flag, `on` or `off`.
    OnOff = "on" / "off";
}

/// A float at three decimals, `{:.3}`.
pub struct Fixed3;

impl<T: Display + FromStr> Spelling<T> for Fixed3 {
    fn put(value: &T, out: &mut String) {
        let _ = write!(out, "{value:.3}");
    }
    fn get(text: &str) -> Option<T> {
        text.parse().ok()
    }
}

/// A float in scientific notation at three decimals, `{:.3e}`.
pub struct Sci3;

impl<T: LowerExp + FromStr> Spelling<T> for Sci3 {
    fn put(value: &T, out: &mut String) {
        let _ = write!(out, "{value:.3e}");
    }
    fn get(text: &str) -> Option<T> {
        text.parse().ok()
    }
}

/// A 64-bit checksum as sixteen hex digits, `{:016x}`.
pub struct Hex16;

impl Spelling<u64> for Hex16 {
    fn put(value: &u64, out: &mut String) {
        let _ = write!(out, "{value:016x}");
    }
    fn get(text: &str) -> Option<u64> {
        u64::from_str_radix(text, 16).ok()
    }
}

/// Append ` key=value`, the value spelled `S`.
pub fn put_as<S: Spelling<T>, T>(out: &mut String, key: &str, value: &T) {
    out.push(' ');
    out.push_str(key);
    out.push('=');
    S::put(value, out);
}

/// Append ` key=value`.
pub fn put<T: Token>(out: &mut String, key: &str, value: &T) {
    put_as::<Plain, T>(out, key, value);
}

/// Look `key` up among the whitespace-separated tokens of `text` and
/// parse its value; a missing key or a bad value is a typed `E_PARSE`.
pub fn get<T: Token>(text: &str, key: &str) -> Result<T, ApiError> {
    parse_as::<Plain, T>(field(text, key)?, key)
}

fn parse_as<S: Spelling<T>, T>(text: &str, key: &str) -> Result<T, ApiError> {
    S::get(text).ok_or_else(|| ApiError::parse(format!("bad {key}: {text:?}")))
}

/// The value of the whitespace-separated `key=value` token in `text`;
/// the first one wins. Only for values without spaces — a table reads
/// its [`Spaced`] field through [`Row`].
pub fn field<'a>(text: &'a str, key: &str) -> Result<&'a str, ApiError> {
    find(text, key).ok_or_else(|| missing(key))
}

fn find<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    text.split_whitespace()
        .find_map(|token| token.strip_prefix(key)?.strip_prefix('='))
}

fn missing(key: &str) -> ApiError {
    ApiError::parse(format!("missing field {key}="))
}

/// Parse a numeric value; `what` names it in the error.
pub fn num<T: FromStr>(token: &str, what: &str) -> Result<T, ApiError> {
    token
        .parse()
        .map_err(|_| ApiError::parse(format!("bad {what}: {token:?}")))
}

/// Byte offset of the `=` of the last ` key=` in `text`.
fn last_key(text: &str, key: &str) -> Option<usize> {
    text.rmatch_indices(key)
        .map(|(at, _)| at)
        .find(|&at| text[..at].ends_with(' ') && text[at + key.len()..].starts_with('='))
        .map(|at| at + key.len())
}

/// Split a row led by a name at the last ` <key>=`: the name, and the
/// rest of the row from `key` on. The name may hold spaces, and even the
/// text of `key`.
pub fn lead<'a>(row: &'a str, key: &str) -> Result<(&'a str, &'a str), ApiError> {
    let at = last_key(row, key).ok_or_else(|| missing(key))? - key.len();
    Ok((&row[..at - 1], &row[at..]))
}

/// One row's text as a table reads it: its spaced value (if the table
/// has one) cut out, every other key looked up before or after it.
pub struct Row<'a> {
    before: &'a str,
    spaced: Option<(&'static str, &'a str)>,
    after: &'a str,
}

impl<'a> Row<'a> {
    /// `keys` is the table in wire order, each key beside whether its
    /// value is [`Spaced`].
    pub fn new(text: &'a str, keys: &[(&'static str, bool)]) -> Result<Row<'a>, ApiError> {
        let Some(i) = keys.iter().position(|&(_, spaced)| spaced) else {
            return Ok(Row {
                before: text,
                spaced: None,
                after: "",
            });
        };
        let key = keys[i].0;
        let mut at = text.match_indices(key).map(|(at, _)| at).filter(|&at| {
            (at == 0 || text[..at].ends_with(char::is_whitespace))
                && text[at + key.len()..].starts_with('=')
        });
        let start = at.next().ok_or_else(|| missing(key))? + key.len() + 1;
        let rest = &text[start..];
        let end = match keys.get(i + 1) {
            Some(&(next, _)) => last_key(rest, next).ok_or_else(|| missing(next))? - next.len() - 1,
            None => rest.len(),
        };
        Ok(Row {
            before: &text[..start - key.len() - 1],
            spaced: Some((key, &rest[..end])),
            after: &rest[end..],
        })
    }

    /// The value of `key`, spelled `S`.
    pub fn get<S: Spelling<T>, T>(&self, key: &str) -> Result<T, ApiError> {
        let text = match self.spaced {
            Some((spaced, value)) if spaced == key => value,
            _ => find(self.before, key)
                .or_else(|| find(self.after, key))
                .ok_or_else(|| missing(key))?,
        };
        parse_as::<S, T>(text, key)
    }
}

/// The spelling a table line names, [`Plain`] when it names none.
#[doc(hidden)]
#[macro_export]
macro_rules! __spelling {
    () => {
        $crate::record::Plain
    };
    ($spelling:ident) => {
        $crate::record::$spelling
    };
}

/// Declare a `key=value` record — a struct, or an enum of row kinds —
/// and, per keyed field, its wire key and spelling: `field: Type =>
/// "key" [as Spelling],` in wire order. Fields after a `..` line carry
/// no key; the caller writes and reads them around the kit call. See
/// the [module docs](crate::record).
#[macro_export]
macro_rules! wire_record {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$fmeta:meta])* $fvis:vis $field:ident : $fty:ty => $key:literal
                $(as $spelling:ident)?, )*
            $( .. $( $(#[$emeta:meta])* $evis:vis $extra:ident : $ety:ty, )* )?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $( $(#[$fmeta])* $fvis $field: $fty, )*
            $( $( $(#[$emeta])* $evis $extra: $ety, )* )?
        }

        impl $name {
            /// Append ` key=value` for every keyed field, in table order.
            pub(crate) fn put_fields(&self, out: &mut String) {
                $( $crate::record::put_as::<$crate::__spelling!($($spelling)?), $fty>(
                    out, $key, &self.$field); )*
            }

            /// Inverse of `put_fields`: every keyed field looked up in
            /// `text`, the un-keyed ones at their `Default`.
            pub(crate) fn get_fields(text: &str) -> Result<Self, $crate::ApiError> {
                #[allow(unused_variables, reason = "a record with no keyed fields never reads its row")]
                let row = $crate::record::Row::new(text, &[$( ($key,
                    <$crate::__spelling!($($spelling)?) as $crate::record::Spelling<$fty>>::SPACED),
                )*])?;
                Ok($name {
                    $( $field: row.get::<$crate::__spelling!($($spelling)?), $fty>($key)?, )*
                    $( $( $extra: Default::default(), )* )?
                })
            }
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $( $(#[$vmeta:meta])* $variant:ident = $keyword:literal {
                $( $(#[$fmeta:meta])* $field:ident : $fty:ty => $key:literal
                    $(as $spelling:ident)?, )*
                $( .. $( $(#[$emeta:meta])* $extra:ident : $ety:ty, )* )?
            }, )*
            $( .. $( $(#[$wmeta:meta])* $wrapped:ident = $wkeyword:literal ($record:ty), )* )?
        }
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $( $(#[$vmeta])* $variant {
                $( $(#[$fmeta])* $field: $fty, )*
                $( $( $(#[$emeta])* $extra: $ety, )* )?
            }, )*
            $( $( $(#[$wmeta])* $wrapped($record), )* )?
        }

        impl $name {
            /// The keyword that leads this kind's row.
            pub(crate) fn keyword(&self) -> &'static str {
                match self {
                    $( Self::$variant { .. } => $keyword, )*
                    $( $( Self::$wrapped(_) => $wkeyword, )* )?
                }
            }

            /// Append ` key=value` for every keyed field of this kind, in
            /// table order.
            pub(crate) fn put_fields(&self, out: &mut String) {
                match self {
                    $( Self::$variant { $( $field, )* .. } => {
                        $( $crate::record::put_as::<$crate::__spelling!($($spelling)?), $fty>(
                            out, $key, $field); )*
                    } )*
                    $( $( Self::$wrapped(record) => record.put_fields(out), )* )?
                }
            }

            /// Inverse of `put_fields` for the kind `keyword` names: every
            /// keyed field looked up in `text`, the un-keyed ones at their
            /// `Default`.
            pub(crate) fn get_fields(keyword: &str, text: &str) -> Result<Self, $crate::ApiError> {
                match keyword {
                    $( $keyword => {
                        #[allow(unused_variables, reason = "a record with no keyed fields never reads its row")]
                        let row = $crate::record::Row::new(text, &[$( ($key,
                            <$crate::__spelling!($($spelling)?)
                                as $crate::record::Spelling<$fty>>::SPACED),
                        )*])?;
                        Ok(Self::$variant {
                            $( $field: row.get::<$crate::__spelling!($($spelling)?), $fty>($key)?, )*
                            $( $( $extra: Default::default(), )* )?
                        })
                    } )*
                    $( $( $wkeyword => Ok(Self::$wrapped(<$record>::get_fields(text)?)), )* )?
                    other => Err($crate::ApiError::parse(format!(
                        "unknown {} {other:?}",
                        stringify!($name)
                    ))),
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    wire_record! {
        #[derive(Debug, PartialEq)]
        struct Sample {
            count: u64 => "n",
            ratio: f64 => "ratio",
            seen: Option<u64> => "seen",
            dims: (usize, usize) => "dims",
            mode: BalanceMode => "mode",
            counts: [u64; 3] => "counts",
            ..
            name: String,
        }
    }

    wire_record! {
        #[derive(Debug, PartialEq)]
        enum Kind {
            Spelled = "spelled" {
                ok: bool => "ok" as YesNo,
                sync: bool => "sync" as OnOff,
                mean: f64 => "mean" as Fixed3,
                p: f64 => "p" as Sci3,
                sum: u64 => "sum" as Hex16,
                damage: Vec<DamageRect> => "damage",
            },
            Named = "named" {
                id: usize => "id",
                name: String => "name" as Spaced,
                genes: usize => "genes",
                ..
                note: String,
            },
            Tail = "tail" {
                files: Vec<String> => "files" as Spaced,
            },
            ..
            Wrapped = "wrapped" (Sample),
        }
    }

    #[test]
    fn both_directions_come_from_the_one_table() {
        let row = Sample {
            count: 7,
            ratio: 1.15,
            seen: None,
            dims: (800, 600),
            mode: BalanceMode::Auto,
            counts: [0, 2, 812],
            name: String::new(),
        };
        let mut text = String::from("row");
        row.put_fields(&mut text);
        assert_eq!(
            text,
            "row n=7 ratio=1.15 seen=- dims=800x600 mode=auto counts=0,2,812"
        );
        assert_eq!(Sample::get_fields(&text).unwrap(), row);
        // a missing key and a bad value are both typed parse errors — a
        // count list of the wrong length too
        for bad in [
            "row n=7 ratio=1.15 seen=- dims=800x600 counts=0,2,812",
            "row n=7 ratio=1.15 seen=- dims=800 mode=auto counts=0,2,812",
            "row n=-1 ratio=1.15 seen=- dims=800x600 mode=auto counts=0,2,812",
            "row n=7 ratio=1.15 seen=- dims=800x600 mode=auto counts=0,2",
            "row n=7 ratio=1.15 seen=- dims=800x600 mode=auto counts=0,2,812,1",
        ] {
            let err = Sample::get_fields(bad).unwrap_err();
            assert_eq!(err.code, crate::error::ErrorCode::Parse, "{bad:?}");
        }
    }

    #[test]
    fn the_enum_form_spells_and_finds_every_kind() {
        let rect = |x| DamageRect {
            x,
            y: 1,
            w: 2,
            h: 3,
        };
        for (kind, text) in [
            (
                Kind::Spelled {
                    ok: true,
                    sync: false,
                    mean: 0.125,
                    p: 1.5e-9,
                    sum: 0xbeef,
                    damage: vec![rect(0), rect(9)],
                },
                "spelled ok=yes sync=off mean=0.125 p=1.500e-9 sum=000000000000beef \
                 damage=0:1:2:3,9:1:2:3",
            ),
            (
                Kind::Named {
                    id: 1,
                    name: "a genes=5 id=3".into(),
                    genes: 80,
                    note: String::new(),
                },
                "named id=1 name=a genes=5 id=3 genes=80",
            ),
            (
                Kind::Tail {
                    files: vec!["my data.cdt".into(), "my data.gtr".into()],
                },
                "tail files=my data.cdt,my data.gtr",
            ),
            (Kind::Tail { files: vec![] }, "tail files=-"),
            (
                Kind::Wrapped(Sample {
                    count: 1,
                    ratio: 0.5,
                    seen: Some(2),
                    dims: (1, 1),
                    mode: BalanceMode::Off,
                    counts: [0; 3],
                    name: String::new(),
                }),
                "wrapped n=1 ratio=0.5 seen=2 dims=1x1 mode=off counts=0,0,0",
            ),
        ] {
            let mut out = String::from(kind.keyword());
            kind.put_fields(&mut out);
            assert_eq!(out, text);
            let (keyword, rest) = text.split_once(' ').unwrap();
            assert_eq!(Kind::get_fields(keyword, rest).unwrap(), kind);
        }
        for (keyword, bad) in [
            (
                "spelled",
                "ok=maybe sync=off mean=0.125 p=1.5e-9 sum=1 damage=-",
            ),
            (
                "spelled",
                "ok=yes sync=off mean=0.125 p=1.5e-9 sum=1 damage=0:1:2",
            ),
            ("named", "id=1 name=a b genes=x"),
            ("named", "id=1 name=a b"),
            ("named", "name=a genes=1"),
            ("tail", "files=a,,b"),
            ("wat", ""),
        ] {
            let err = Kind::get_fields(keyword, bad).unwrap_err();
            assert_eq!(err.code, crate::error::ErrorCode::Parse, "{bad:?}");
        }
    }

    #[test]
    fn a_leading_name_runs_to_the_last_key() {
        assert_eq!(
            lead("heat weight=1 weight=2.000 present=3", "weight").unwrap(),
            ("heat weight=1", "weight=2.000 present=3")
        );
        assert!(lead("heat present=3", "weight").is_err());
        assert!(lead("weight=2", "weight").is_err(), "a name comes first");
    }
}

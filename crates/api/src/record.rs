//! The record kit: one ordered table per wire record, from which both
//! directions of its text mapping are derived.
//!
//! Responses and transport records (`stats`, `balance`,
//! `list-sessions`, the session image, process-shard reports) are a
//! header row of whitespace-separated `key=value` tokens, and the
//! multi-row ones indented continuation lines after it.
//! [`wire_record!`](crate::wire_record) declares such a record's type
//! and its text in one listing and emits `put_fields` / `get_fields`
//! and a [`Record`] impl — inverse by construction, so adding a counter
//! to a row is one table line. Two forms:
//!
//! - **struct**: `field: Type => <place> [as Spelling],` lines in wire
//!   order, then optionally `..` and fields that carry no text;
//! - **enum**: one `Variant = "keyword" { <lines> },` per row kind, then
//!   optionally `..` and wrapped variants, `Variant = "keyword"
//!   (Record),` whose record is a struct-form table of its own. The enum
//!   is written whole by `put_text` and read by `get_record(keyword,
//!   head, rows)`.
//!
//! A line's `<place>` is where its value goes:
//!
//! - `"key"`: a ` key=value` token (several keys differ from their field:
//!   `busy`, `trigger`, `missing`, …);
//! - `_`: a **leading value**, ` value`, before every key (`shard <i>`,
//!   `move <session> <from> <to>`, a frame's `<w>x<h>`); spelled
//!   [`Optional`], an absent one is no text at all (`unsubscribed`);
//! - `..`: an **embedded record**, its own table's tokens (a shard row's
//!   latency histogram);
//! - `["count" rows "word"]`: a **counted row section**, ` count=<n>` here
//!   and one `\n  word <row>` line per element of the `Vec`, written by
//!   the element's [`Record`] impl. Sections follow the header in
//!   declared order. An empty word holds bare lines (a session image's
//!   request lines); `[rows "word"]`, uncounted, comes last; `[row
//!   "word"]` is exactly one row;
//! - `["count" body]`: a **byte-counted body**, ` count=<bytes>` here and
//!   the text's lines, indented, after every row;
//! - `["count" counts "key"]`: ` count=<n> key=<list>`.
//!
//! `Copy` fields may share a line, `a: A, b: B => <place> as Spelling,`,
//! written as one value (`<w>x<h>`, `overlap=<a>/<b>`, `clustered=gene`).
//!
//! A value is written as its [`Token`] unless the line names a
//! [`Spelling`]: [`YesNo`], [`OnOff`], [`Fixed3`] (`{:.3}`), [`Sci3`]
//! (`{:.3e}`), [`Hex16`] (sixteen hex digits), [`Fraction`],
//! [`Clustered`], [`Spaced`] or [`Path`]. Display floats read back as the
//! value displayed, not the original bits. A [`Spaced`] value (a name or
//! a path, or a SPELL row's leading name) may hold spaces: it runs to the
//! last ` <next key>=` of its table, or to the end of the line when no
//! key follows, and the other keys are looked up outside it — so a name
//! may even hold the text of the key after it. A table has at most one.
//!
//! Reading never trusts a count: a count checks the rows found and
//! reserves nothing; rows past a count, missing rows, rows out of
//! declared order and rows under an unknown word are refused.
//!
//! The kit also declares the lines clients send: `line_table!` derives a
//! family's parser and formatter from rows of a keyword, positional
//! arguments and the value they build (see `codec.rs`). An argument is
//! written as its [`Token`] — a request's `f32` in `{:?}` form — or
//! through a line spelling: [`OrAll`] (`all|<d>`), [`OrSelection`],
//! [`Optional`] (an absent last argument), [`Path`], [`Name`] (a session
//! name) or [`Grid`] (`<TX>x<TY>`). A token or spelling that refuses a
//! text says why ([`Token::refuse`], [`Spelling::refuse`]).

use crate::cache::CacheStats;
use crate::error::ApiError;
use crate::response::DamageRect;
use std::cell::Cell;
use std::fmt::{Display, LowerExp, Write};
use std::iter::Peekable;
use std::str::{FromStr, Lines};

/// Sentinel for empty lists and absent optionals on the wire.
pub(crate) const NONE: &str = "-";

/// A value that travels as one whitespace-free `key=value` token.
pub trait Token: Sized {
    /// Append the canonical token text.
    fn put(&self, out: &mut String);
    /// Parse the token text; `None` if it is not one of ours.
    fn get(token: &str) -> Option<Self>;
    /// The error a line argument gets when `get` refuses `token`;
    /// `what` names the argument.
    fn refuse(token: &str, what: &str) -> ApiError {
        ApiError::parse(format!("bad {what}: {token:?}"))
    }
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
display_tokens!(u32, u64, usize, i64, f64, String);

/// A request's float, in Rust's shortest round-trip `{:?}` form (`2.0`,
/// `1e-7`), so no precision is lost.
impl Token for f32 {
    fn put(&self, out: &mut String) {
        let _ = write!(out, "{self:?}");
    }
    fn get(token: &str) -> Option<Self> {
        token.parse().ok()
    }
}

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
    /// An empty item refuses the list; otherwise the first item its
    /// token refuses is named.
    fn refuse(token: &str, what: &str) -> ApiError {
        let bad_item = <Vec<String>>::get(token)
            .and_then(|items| items.into_iter().find(|item| T::get(item).is_none()));
        match bad_item {
            Some(item) => T::refuse(&item, what),
            None => ApiError::parse(format!(
                "expected a comma-separated list without empty items (or `-`), got {token:?}"
            )),
        }
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
    /// Whether some value is written as nothing ([`Optional`]'s `None`);
    /// a leading value so written takes its space with it.
    const ELIDES: bool = false;
    /// Append the value's text.
    fn put(value: &T, out: &mut String);
    /// Parse the value's text; `None` if it is not one of ours.
    fn get(text: &str) -> Option<T>;
    /// The error a line argument gets when `get` refuses `text`; `what`
    /// names the argument.
    fn refuse(text: &str, what: &str) -> ApiError {
        ApiError::parse(format!("bad {what}: {text:?}"))
    }
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
    fn refuse(text: &str, what: &str) -> ApiError {
        T::refuse(text, what)
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

/// Spellings of line arguments that stand for `None` with a word.
macro_rules! word_or_value {
    ($($(#[$meta:meta])* $name:ident = $word:literal;)*) => {$(
        $(#[$meta])*
        pub struct $name;

        impl<T: Token> Spelling<Option<T>> for $name {
            const ELIDES: bool = $word.is_empty();
            fn put(value: &Option<T>, out: &mut String) {
                match value {
                    Some(value) => value.put(out),
                    None => out.push_str($word),
                }
            }
            fn get(text: &str) -> Option<Option<T>> {
                if text == $word {
                    Some(None)
                } else {
                    T::get(text).map(Some)
                }
            }
            fn refuse(text: &str, what: &str) -> ApiError {
                T::refuse(text, what)
            }
        }
    )*};
}
word_or_value! {
    /// `all` or a value: every dataset, or the one named.
    OrAll = "all";
    /// `selection` or a value: the current selection, or the genes named.
    OrSelection = "selection";
    /// Nothing or a value: an optional last argument (`render … [path]`),
    /// or an optional leading value, its space written only with it.
    Optional = "";
}

/// Free text that is neither empty nor padded with whitespace: a path.
/// In a table it is [`Spaced`].
pub struct Path;

impl Spelling<String> for Path {
    const SPACED: bool = true;
    fn put(value: &String, out: &mut String) {
        out.push_str(value);
    }
    fn get(text: &str) -> Option<String> {
        (!text.is_empty() && text.trim() == text).then(|| text.to_string())
    }
}

/// A part of a whole, `<part>/<whole>` (an enriched term's overlap).
pub struct Fraction;

impl Spelling<(usize, usize)> for Fraction {
    fn put(&(part, whole): &(usize, usize), out: &mut String) {
        let _ = write!(out, "{part}/{whole}");
    }
    fn get(text: &str) -> Option<(usize, usize)> {
        let (part, whole) = text.split_once('/')?;
        Some((part.parse().ok()?, whole.parse().ok()?))
    }
}

/// A dataset's cluster state, (gene axis, array axis), as one word:
/// `gene+array`, `gene`, `array` or `none`.
pub struct Clustered;

const CLUSTERED: [&str; 4] = ["none", "array", "gene", "gene+array"];

impl Spelling<(bool, bool)> for Clustered {
    fn put(&(gene, array): &(bool, bool), out: &mut String) {
        out.push_str(CLUSTERED[usize::from(gene) * 2 + usize::from(array)]);
    }
    fn get(text: &str) -> Option<(bool, bool)> {
        let at = CLUSTERED.iter().position(|&word| word == text)?;
        Some((at >= 2, at % 2 == 1))
    }
}

/// A session name: one whitespace-free token.
pub struct Name;

impl Spelling<String> for Name {
    fn put(value: &String, out: &mut String) {
        out.push_str(value);
    }
    fn get(text: &str) -> Option<String> {
        let token = !text.is_empty() && !text.contains(char::is_whitespace);
        token.then(|| text.to_string())
    }
    fn refuse(_: &str, _: &str) -> ApiError {
        ApiError::parse("session names are single tokens")
    }
}

/// A subscriber's tile grid, `<tiles_x>x<tiles_y>`, both non-zero.
pub struct Grid;

impl Spelling<(usize, usize)> for Grid {
    fn put(value: &(usize, usize), out: &mut String) {
        value.put(out);
    }
    fn get(text: &str) -> Option<(usize, usize)> {
        <(usize, usize)>::get(text).filter(|&(x, y)| x > 0 && y > 0)
    }
    fn refuse(text: &str, _: &str) -> ApiError {
        let Some((x, y)) = text.split_once('x') else {
            return ApiError::parse(format!("tile grid is <tiles_x>x<tiles_y>, got {text:?}"));
        };
        match (num::<usize>(x, "tiles_x"), num::<usize>(y, "tiles_y")) {
            (Err(e), _) | (_, Err(e)) => e,
            _ => ApiError::parse("tile counts must be non-zero"),
        }
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

/// `text` read through its spelling; a text it refuses is the typed
/// `E_PARSE` its spelling gives, naming `what` (a key, an argument).
pub fn parse_as<S: Spelling<T>, T>(text: &str, what: &str) -> Result<T, ApiError> {
    S::get(text).ok_or_else(|| S::refuse(text, what))
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

/// What a table line puts in its row, as [`Row::new`] cuts it: a leading
/// value, a ` key=`, or nothing it looks for.
#[doc(hidden)]
#[derive(Clone, Copy)]
pub enum Slot {
    Lead { spaced: bool },
    Key { key: &'static str, spaced: bool },
    Other,
}

/// The first key among `slots`.
fn first_key(slots: &[Slot]) -> Option<&'static str> {
    slots.iter().find_map(|slot| match *slot {
        Slot::Key { key, .. } => Some(key),
        _ => None,
    })
}

/// One row's text as a table reads it: its leading values, then its
/// spaced value (if the table has one) cut out, every other key looked
/// up before or after it.
pub struct Row<'a> {
    /// The leading values not read yet.
    leads: Cell<&'a str>,
    /// The text after the leading values: where an embedded record is.
    keyed: &'a str,
    before: &'a str,
    spaced: Option<(&'static str, &'a str)>,
    after: &'a str,
}

impl<'a> Row<'a> {
    /// `slots` is the table in wire order, its leading values first. A
    /// leading value runs to the next space; a spaced one to the last
    /// ` <key>=` of the first key after it.
    pub fn new(text: &'a str, slots: &[Slot]) -> Result<Row<'a>, ApiError> {
        let mut keyed = text;
        for (i, slot) in slots.iter().enumerate() {
            let Slot::Lead { spaced } = *slot else { break };
            keyed = match (spaced, first_key(&slots[i + 1..])) {
                (true, Some(key)) => {
                    &keyed[last_key(keyed, key).ok_or_else(|| missing(key))? - key.len()..]
                }
                (true, None) => "",
                (false, _) => keyed.split_once(' ').map_or("", |(_, rest)| rest),
            };
        }
        // the space between the leading values and the keys is neither's
        let leads = &text[..text.len() - keyed.len()];
        let leads = leads.strip_suffix(' ').unwrap_or(leads);
        let spaced = slots.iter().enumerate().find_map(|(i, slot)| match *slot {
            Slot::Key { key, spaced: true } => Some((i, key)),
            _ => None,
        });
        let (before, spaced, after) = match spaced {
            None => (keyed, None, ""),
            Some((i, key)) => {
                let mut at = keyed.match_indices(key).map(|(at, _)| at).filter(|&at| {
                    (at == 0 || keyed[..at].ends_with(char::is_whitespace))
                        && keyed[at + key.len()..].starts_with('=')
                });
                let start = at.next().ok_or_else(|| missing(key))? + key.len() + 1;
                let rest = &keyed[start..];
                let end = match first_key(&slots[i + 1..]) {
                    Some(next) => {
                        last_key(rest, next).ok_or_else(|| missing(next))? - next.len() - 1
                    }
                    None => rest.len(),
                };
                let before = &keyed[..start - key.len() - 1];
                (before, Some((key, &rest[..end])), &rest[end..])
            }
        };
        let leads = Cell::new(leads);
        Ok(Row {
            leads,
            keyed,
            before,
            spaced,
            after,
        })
    }

    /// The next leading value, spelled `S`; `what` names it in an error.
    pub fn lead<S: Spelling<T>, T>(&self, what: &str) -> Result<T, ApiError> {
        let leads = self.leads.get();
        let (text, rest) = match S::SPACED {
            true => (leads, ""),
            false => leads.split_once(' ').unwrap_or((leads, "")),
        };
        self.leads.set(rest);
        parse_as::<S, T>(text, what)
    }

    /// The embedded record.
    pub fn embedded<R: Record>(&self) -> Result<R, ApiError> {
        R::get_record(self.keyed, &mut Rows::none())
    }

    /// The count under `key`.
    pub fn count(&self, key: &str) -> Result<usize, ApiError> {
        self.get::<Plain, usize>(key)
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

/// The continuation lines of a multi-row text, each indented two spaces,
/// taken section by section in declared order.
pub struct Rows<'a>(Peekable<Lines<'a>>);

impl<'a> Rows<'a> {
    /// A text's first line and the rows after it; `None` for no text.
    pub(crate) fn split(text: &'a str) -> Option<(&'a str, Rows<'a>)> {
        let mut lines = text.lines();
        Some((lines.next()?, Rows(lines.peekable())))
    }

    /// No rows: what a one-line record is read with.
    pub fn none() -> Rows<'a> {
        Rows("".lines().peekable())
    }

    /// The next line's text after its indent, `word` and a space, if it
    /// is a row under `word` — any indented line when `word` is empty.
    fn take(&mut self, word: &str) -> Option<&'a str> {
        let line: &'a str = self.0.peek()?;
        let row = line.strip_prefix("  ")?;
        let row = match word {
            "" => row,
            _ => row.strip_prefix(word)?.strip_prefix(' ')?,
        };
        self.0.next();
        Some(row)
    }

    /// Refuse a line that no section took.
    pub(crate) fn end(mut self) -> Result<(), ApiError> {
        match self.0.next() {
            None => Ok(()),
            Some(line) => Err(ApiError::parse(format!("unexpected row {line:?}"))),
        }
    }
}

/// A record as text: a header row's tokens after its keyword, then
/// continuation lines. Struct-form tables implement it, and so does
/// whatever else is a section's row (a session image's log mutation).
pub trait Record: Sized {
    /// Append the header's text after the keyword, then the continuation
    /// lines.
    fn put_record(&self, out: &mut String);
    /// Read it back from its header after the keyword and the rows after
    /// it, taking only its own.
    fn get_record(head: &str, rows: &mut Rows<'_>) -> Result<Self, ApiError>;
}

/// A multi-row text: `keyword`, then `record`'s header and rows.
pub fn write_text<R: Record>(keyword: &str, record: &R) -> String {
    let mut out = String::with_capacity(64);
    out.push_str(keyword);
    record.put_record(&mut out);
    out
}

/// Inverse of [`write_text`]: the record under `keyword`, every row its
/// own.
pub fn read_text<R: Record>(keyword: &str, text: &str) -> Result<R, ApiError> {
    let (head, mut rows) =
        Rows::split(text).ok_or_else(|| ApiError::parse(format!("empty {keyword} text")))?;
    let head = head
        .strip_prefix(keyword)
        .and_then(|rest| rest.strip_prefix(' '))
        .ok_or_else(|| ApiError::parse(format!("not a {keyword} text: {head:?}")))?;
    let record = R::get_record(head, &mut rows)?;
    rows.end()?;
    Ok(record)
}

/// Append one `\n  <word>` line per row, the row's header after it.
#[doc(hidden)]
pub fn write_rows<R: Record>(out: &mut String, word: &str, rows: &[R]) {
    for row in rows {
        out.push_str("\n  ");
        out.push_str(word);
        row.put_record(out);
    }
}

/// The rows under `word`, as many as follow; a `(key, count)` must
/// count them.
#[doc(hidden)]
pub fn read_rows<R: Record>(
    rows: &mut Rows<'_>,
    word: &str,
    count: Option<(&str, usize)>,
) -> Result<Vec<R>, ApiError> {
    // a count is wire input: it checks the rows found and sizes nothing
    let mut found = Vec::new();
    while let Some(text) = rows.take(word) {
        found.push(R::get_record(text, &mut Rows::none())?);
    }
    if let Some((key, count)) = count {
        check_count(key, count, found.len())?;
    }
    Ok(found)
}

/// The one row under `word`.
#[doc(hidden)]
pub fn read_row<R: Record>(rows: &mut Rows<'_>, word: &str) -> Result<R, ApiError> {
    let text = rows
        .take(word)
        .ok_or_else(|| ApiError::parse(format!("missing {word} row")))?;
    R::get_record(text, &mut Rows::none())
}

/// `key=<count>` against the `found` items it counts.
#[doc(hidden)]
pub fn check_count(key: &str, count: usize, found: usize) -> Result<(), ApiError> {
    let disagree = || ApiError::parse(format!("{key}={count}, but the text holds {found}"));
    (count == found).then_some(()).ok_or_else(disagree)
}

/// Append a multi-line body, each line indented two spaces.
#[doc(hidden)]
pub fn write_body(out: &mut String, text: &str) {
    for line in text.lines() {
        out.push_str("\n  ");
        out.push_str(line);
    }
}

/// The body: every line left, de-indented. `key=<bytes>` tells a final
/// newline apart.
#[doc(hidden)]
pub fn read_body(rows: &mut Rows<'_>, key: &str, bytes: usize) -> Result<String, ApiError> {
    let mut text = String::new();
    for (i, line) in rows.0.by_ref().enumerate() {
        let line = line
            .strip_prefix("  ")
            .ok_or_else(|| ApiError::parse(format!("continuation line not indented: {line:?}")))?;
        if i > 0 {
            text.push('\n');
        }
        text.push_str(line);
    }
    if text.len() + 1 == bytes {
        text.push('\n');
    }
    check_count(key, bytes, text.len()).map(|()| text)
}

/// One table line, by what is asked of it: the spelling it names
/// ([`Plain`] when none), its [`Slot`], what it puts in the header row,
/// its continuation lines, and its value read back.
#[doc(hidden)]
#[macro_export]
macro_rules! __line {
    (spelling) => {
        $crate::record::Plain
    };
    (spelling $spelling:ident) => {
        $crate::record::$spelling
    };
    (slot _, $spelling:ty, $ty:ty) => {
        $crate::record::Slot::Lead {
            spaced: <$spelling as $crate::record::Spelling<$ty>>::SPACED,
        }
    };
    (slot $key:literal, $spelling:ty, $ty:ty) => {
        $crate::record::Slot::Key {
            key: $key,
            spaced: <$spelling as $crate::record::Spelling<$ty>>::SPACED,
        }
    };
    (slot [$count:literal $($section:tt)+], $spelling:ty, $ty:ty) => {
        $crate::record::Slot::Key {
            key: $count,
            spaced: false,
        }
    };
    (slot $($other:tt)+) => {
        $crate::record::Slot::Other
    };
    (put $out:ident, _, $spelling:ty, $ty:ty, $value:expr) => {{
        $out.push(' ');
        let at = $out.len();
        <$spelling as $crate::record::Spelling<$ty>>::put($value, $out);
        if <$spelling as $crate::record::Spelling<$ty>>::ELIDES && $out.len() == at {
            $out.pop();
        }
    }};
    (put $out:ident, .., $spelling:ty, $ty:ty, $value:expr) => {
        $crate::record::Record::put_record($value, $out)
    };
    (put $out:ident, [$count:literal counts $key:literal], $spelling:ty, $ty:ty, $value:expr) => {{
        $crate::record::put($out, $count, &$value.len());
        $crate::record::put($out, $key, $value);
    }};
    (put $out:ident, [$count:literal $($section:tt)+], $spelling:ty, $ty:ty, $value:expr) => {
        $crate::record::put($out, $count, &$value.len())
    };
    (put $out:ident, [$($section:tt)+], $spelling:ty, $ty:ty, $value:expr) => {};
    (put $out:ident, $key:literal, $spelling:ty, $ty:ty, $value:expr) => {
        $crate::record::put_as::<$spelling, $ty>($out, $key, $value)
    };
    (rows $out:ident, [$($count:literal)? rows $word:literal], $value:expr) => {
        $crate::record::write_rows($out, $word, $value)
    };
    (rows $out:ident, [row $word:literal], $value:expr) => {
        $crate::record::write_rows($out, $word, ::std::slice::from_ref($value))
    };
    (rows $out:ident, [$count:literal body], $value:expr) => {
        $crate::record::write_body($out, $value)
    };
    (rows $out:ident, $($other:tt)+) => {};
    (get $row:ident, $rows:ident, _, $spelling:ty, $ty:ty, $what:expr) => {
        $row.lead::<$spelling, $ty>($what)?
    };
    (get $row:ident, $rows:ident, .., $spelling:ty, $ty:ty, $what:expr) => {
        $row.embedded::<$ty>()?
    };
    (get $row:ident, $rows:ident, [$count:literal counts $key:literal], $spelling:ty, $ty:ty, $what:expr) => {{
        let list: $ty = $row.get::<$crate::record::Plain, $ty>($key)?;
        $crate::record::check_count($count, $row.count($count)?, list.len())?;
        list
    }};
    (get $row:ident, $rows:ident, [$count:literal rows $word:literal], $spelling:ty, $ty:ty, $what:expr) => {
        $crate::record::read_rows($rows, $word, Some(($count, $row.count($count)?)))?
    };
    (get $row:ident, $rows:ident, [rows $word:literal], $spelling:ty, $ty:ty, $what:expr) => {
        $crate::record::read_rows($rows, $word, None)?
    };
    (get $row:ident, $rows:ident, [row $word:literal], $spelling:ty, $ty:ty, $what:expr) => {
        $crate::record::read_row($rows, $word)?
    };
    (get $row:ident, $rows:ident, [$count:literal body], $spelling:ty, $ty:ty, $what:expr) => {
        $crate::record::read_body($rows, $count, $row.count($count)?)?
    };
    (get $row:ident, $rows:ident, $key:literal, $spelling:ty, $ty:ty, $what:expr) => {
        $row.get::<$spelling, $ty>($key)?
    };
}

/// Declare a record — a struct, or an enum of row kinds — and where each
/// field sits in its wire text, `field: Type => <place> [as Spelling],`
/// in wire order; see the [module docs](crate::record).
#[macro_export]
macro_rules! wire_record {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $( $(#[$fmeta:meta])* $fvis:vis $field:ident : $fty:ty ),+ => $place:tt
                $(as $spelling:ident)?, )*
            $( .. $( $(#[$emeta:meta])* $evis:vis $extra:ident : $ety:ty, )* )?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $( $( $(#[$fmeta])* $fvis $field: $fty, )+ )*
            $( $( $(#[$emeta])* $evis $extra: $ety, )* )?
        }

        #[allow(dead_code, unused_parens, reason = "generated: a record read only as a whole \
            text reads no one row, and a line's fields are a tuple of one or more")]
        impl $name {
            /// Append the header row's text in table order, then the
            /// continuation lines.
            pub(crate) fn put_fields(&self, out: &mut String) {
                $( $crate::__line!(put out, $place, $crate::__line!(spelling $($spelling)?), ($($fty),+),
                    &($(self.$field),+)); )*
                $( $crate::__line!(rows out, $place, &($(self.$field),+)); )*
            }

            /// Inverse of `put_fields` for a one-row text; the fields
            /// that carry no text at their `Default`.
            pub(crate) fn get_fields(text: &str) -> Result<Self, $crate::ApiError> {
                <Self as $crate::record::Record>::get_record(text, &mut $crate::record::Rows::none())
            }
        }

        #[allow(unused_parens, unused_variables, reason = "generated: a line's fields are a \
            tuple of one or more, and a record without sections reads no rows")]
        impl $crate::record::Record for $name {
            fn put_record(&self, out: &mut String) {
                self.put_fields(out);
            }

            fn get_record(
                head: &str,
                rows: &mut $crate::record::Rows<'_>,
            ) -> Result<Self, $crate::ApiError> {
                let row = $crate::record::Row::new(head, &[$(
                    $crate::__line!(slot $place, $crate::__line!(spelling $($spelling)?), ($($fty),+)),
                )*])?;
                $( let ($($field),+) = $crate::__line!(get row, rows, $place,
                    $crate::__line!(spelling $($spelling)?), ($($fty),+), stringify!($($field),+)); )*
                Ok($name {
                    $( $( $field, )+ )*
                    $( $( $extra: Default::default(), )* )?
                })
            }
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $( $(#[$vmeta:meta])* $variant:ident = $keyword:literal {
                $( $( $(#[$fmeta:meta])* $field:ident : $fty:ty ),+ => $place:tt
                    $(as $spelling:ident)?, )*
            }, )*
            $( .. $( $(#[$wmeta:meta])* $wrapped:ident = $wkeyword:literal ($record:ty), )* )?
        }
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $( $(#[$vmeta])* $variant {
                $( $( $(#[$fmeta])* $field: $fty, )+ )*
            }, )*
            $( $( $(#[$wmeta])* $wrapped($record), )* )?
        }

        #[allow(unused_parens, unused_variables, reason = "generated: a line's fields are a \
            tuple of one or more, and a kind without sections reads no rows")]
        impl $name {
            /// Append this kind's text: its keyword, its header row in
            /// table order, then its continuation lines.
            pub(crate) fn put_text(&self, out: &mut String) {
                match self {
                    $( Self::$variant { $( $( $field, )+ )* } => {
                        out.push_str($keyword);
                        $( $crate::__line!(put out, $place, $crate::__line!(spelling $($spelling)?),
                            ($($fty),+), &($(*$field),+)); )*
                        $( $crate::__line!(rows out, $place, &($(*$field),+)); )*
                    } )*
                    $( $( Self::$wrapped(record) => {
                        out.push_str($wkeyword);
                        record.put_fields(out);
                    } )* )?
                }
            }

            /// Inverse of `put_text` for the kind
            /// `keyword` names: `head` is its header row after the
            /// keyword, `rows` the lines after it.
            pub(crate) fn get_record(
                keyword: &str,
                head: &str,
                rows: &mut $crate::record::Rows<'_>,
            ) -> Result<Self, $crate::ApiError> {
                match keyword {
                    $( $keyword => {
                        let row = $crate::record::Row::new(head, &[$(
                            $crate::__line!(slot $place, $crate::__line!(spelling $($spelling)?), ($($fty),+)),
                        )*])?;
                        $( let ($($field),+) = $crate::__line!(get row, rows, $place,
                            $crate::__line!(spelling $($spelling)?), ($($fty),+),
                            stringify!($($field),+)); )*
                        Ok(Self::$variant { $( $( $field, )+ )* })
                    } )*
                    $( $( $wkeyword => Ok(Self::$wrapped(
                        <$record as $crate::record::Record>::get_record(head, rows)?)), )* )?
                    other => Err($crate::ApiError::parse(format!(
                        "unknown {} {other:?}",
                        stringify!($name)
                    ))),
                }
            }
        }
    };
}

// ── line tables ─────────────────────────────────────────────────────────

/// A row's arguments, trimmed, when the line is the row's; `after` is
/// what follows the line's first word, the row's keyword. Any request
/// line with that word is its row's (`exact: false`); a control line or
/// a directive (`exact: true`) is the bare word when it takes no
/// arguments, else the word, one space and its arguments.
pub(crate) fn claim(after: &str, takes_args: bool, exact: bool) -> Option<&str> {
    let claimed = match (exact, takes_args) {
        (false, _) => true,
        (true, false) => after.is_empty(),
        (true, true) => after.starts_with(' '),
    };
    claimed.then(|| after.trim())
}

/// A row's `N` argument texts from the `rest` of its line. Without a
/// tail: exactly `N` whitespace-separated tokens. With one: the `N - 1`
/// arguments before it each run to the next whitespace character, and
/// the tail is the trimmed rest of the line.
pub(crate) fn cut<'a, const N: usize>(
    keyword: &str,
    rest: &'a str,
    tail: bool,
    usage: Option<&str>,
) -> Result<[&'a str; N], ApiError> {
    let mut texts = [""; N];
    if tail {
        let mut left = rest;
        for text in texts.iter_mut().take(N.saturating_sub(1)) {
            if left.is_empty() {
                return Err(needs(keyword, usage));
            }
            (*text, left) = left.split_once(char::is_whitespace).unwrap_or((left, ""));
        }
        if let Some(last) = texts.last_mut() {
            *last = left.trim();
        }
        return Ok(texts);
    }
    let found = rest.split_whitespace().count();
    if found != N {
        return Err(ApiError::parse(match N {
            0 => format!("{keyword} takes no arguments"),
            _ => format!("{keyword} needs {N} argument(s), got {found}"),
        }));
    }
    for (text, token) in texts.iter_mut().zip(rest.split_whitespace()) {
        *text = token;
    }
    Ok(texts)
}

fn needs(keyword: &str, usage: Option<&str>) -> ApiError {
    let usage = usage.unwrap_or("more arguments");
    ApiError::parse(format!("{keyword} needs {usage}"))
}

/// The tail argument, read as [`parse_as`] reads one — except that an empty
/// tail its spelling refuses is missing, refused with the row's usage
/// when it has one.
pub(crate) fn tail<S: Spelling<T>, T>(
    text: &str,
    what: &str,
    keyword: &str,
    usage: Option<&str>,
) -> Result<T, ApiError> {
    parse_as::<S, T>(text, what).map_err(|e| match usage {
        Some(_) if text.is_empty() => needs(keyword, usage),
        _ => e,
    })
}

/// Append ` <value>`, spelled `S`; a value spelled as nothing (an absent
/// optional, empty free text) appends nothing.
pub(crate) fn put_arg<S: Spelling<T>, T>(out: &mut String, value: &T) {
    out.push(' ');
    let at = out.len();
    S::put(value, out);
    if out.len() == at {
        out.pop();
    }
}

/// Declare one family of wire lines as a table of rows and derive both
/// directions from it: `fn $read(line, word) -> Result<Option<$ty>,
/// ApiError>` of a trimmed line and its first word (`Ok(None)` when no
/// row claims the line; see [`claim`] for `exact`) and `fn $write(&$ty,
/// &mut String)`.
///
/// A row is `"keyword" arguments => (Constructor);`. Arguments are
/// `name [as Spelling] ["what"]`, in wire order; the last may be a
/// *tail*, `..name`, which runs to the end of the line (free text,
/// paths, lists), and a row with a tail may say what it `needs` when an
/// argument is missing. The tail is read first, then the others in
/// order; the first one refused is the line's error. The constructor
/// names the arguments: it is the
/// expression a parsed line builds and the pattern a value is written
/// from. `in [Outer::Variant, …] { rows }` wraps a group's constructors
/// in those variants where a value is written; `else Ty::Variant(x) =>
/// write_x;` hands the one variant the table leaves out to another
/// table's writer.
macro_rules! line_table {
    (@nest [] $($inner:tt)+) => { $($inner)+ };
    (@nest [$outer:path $(, $wrap:path)*] $($inner:tt)+) => {
        $outer($crate::record::line_table!(@nest [$($wrap),*] $($inner)+))
    };
    (@what $arg:ident) => { stringify!($arg) };
    (@what $arg:ident $what:literal) => { $what };
    (@some) => { false };
    (@some $($name:ident)+) => { true };
    (@usage) => { None };
    (@usage $usage:literal) => { Some($usage) };
    (
        fn $read:ident / $write:ident for $ty:ty, exact: $exact:literal;
        $( in $wrap:tt {
            $( $keyword:literal
                $( $arg:ident $(as $spelling:ident)? $($what:literal)? ),* $(,)?
                $( .. $tail:ident $(as $tail_spelling:ident)? $($tail_what:literal)?
                    $(, needs $usage:literal)? )?
                => ( $($ctor:tt)+ );
            )*
        } )*
        $( else $($other:ident)::+ ($inner:ident) => $delegate:ident; )?
    ) => {
        #[allow(clippy::useless_conversion, reason = "a row may build the table's own type")]
        fn $read(line: &str, word: &str) -> Result<Option<$ty>, $crate::ApiError> {
            use $crate::record::line_table;
            let after = &line[word.len()..];
            $( $(
                let takes_args = line_table!(@some $($arg)* $($tail)?);
                let claimed = if word == $keyword {
                    $crate::record::claim(after, takes_args, $exact)
                } else {
                    None
                };
                if let Some(rest) = claimed {
                    let usage: Option<&str> = line_table!(@usage $($($usage)?)?);
                    let [$($arg,)* $($tail)?] =
                        $crate::record::cut($keyword, rest, line_table!(@some $($tail)?), usage)?;
                    $( let $tail = $crate::record::tail::<$crate::__line!(spelling $($tail_spelling)?), _>(
                        $tail, line_table!(@what $tail $($tail_what)?), $keyword, usage)?; )?
                    $( let $arg = $crate::record::parse_as::<$crate::__line!(spelling $($spelling)?), _>(
                        $arg, line_table!(@what $arg $($what)?))?; )*
                    return Ok(Some(<$ty>::from($($ctor)+)));
                }
            )* )*
            Ok(None)
        }

        fn $write(value: &$ty, out: &mut String) {
            use $crate::record::{line_table, put_arg};
            match value {
                $( $( line_table!(@nest $wrap $($ctor)+) => {
                    out.push_str($keyword);
                    $( put_arg::<$crate::__line!(spelling $($spelling)?), _>(out, $arg); )*
                    $( put_arg::<$crate::__line!(spelling $($tail_spelling)?), _>(out, $tail); )?
                } )* )*
                $( $($other)::+ ($inner) => $delegate($inner, out), )?
            }
        }
    };
}
pub(crate) use line_table;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::BalanceMode;

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
            let mut out = String::new();
            kind.put_text(&mut out);
            assert_eq!(out, text);
            let (keyword, rest) = text.split_once(' ').unwrap();
            assert_eq!(
                Kind::get_record(keyword, rest, &mut Rows::none()).unwrap(),
                kind
            );
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
            let err = Kind::get_record(keyword, bad, &mut Rows::none()).unwrap_err();
            assert_eq!(err.code, crate::error::ErrorCode::Parse, "{bad:?}");
        }
    }

    wire_record! {
        #[derive(Debug, PartialEq)]
        struct Gauge {
            n: u64 => "n",
            max: u64 => "max",
        }
    }

    wire_record! {
        #[derive(Debug, PartialEq)]
        struct Item {
            name: String => _ as Spaced,
            weight: u64 => "weight",
        }
    }

    wire_record! {
        #[derive(Debug, PartialEq)]
        struct Pair {
            id: usize => _,
            part: usize,
            whole: usize => "of" as Fraction,
            gauge: Gauge => ..,
        }
    }

    wire_record! {
        #[derive(Debug, PartialEq)]
        struct Listing {
            gauge: Gauge => [row "gauge"],
            items: Vec<Item> => ["items" rows "item"],
            mode: BalanceMode => "mode",
            pairs: Vec<Pair> => ["pairs" rows "pair"],
            note: String => ["bytes" body],
        }
    }

    const LISTING: &str = "listing items=2 mode=auto pairs=1 bytes=6\n  \
        gauge n=1 max=2\n  \
        item heat weight=1 weight=2\n  \
        item cold weight=3\n  \
        pair 7 of=1/2 n=4 max=9\n  \
        G1\n  \
        G2";

    #[test]
    fn a_leading_name_runs_to_the_last_key() {
        let item = |name: &str, weight| Item {
            name: name.into(),
            weight,
        };
        for (text, value) in [
            ("heat weight=1 weight=2", item("heat weight=1", 2)),
            ("heat shock weight=3", item("heat shock", 3)),
            (" weight=4", item("", 4)),
        ] {
            assert_eq!(Item::get_fields(text).unwrap(), value);
            let mut out = String::new();
            value.put_fields(&mut out);
            assert_eq!(out, format!(" {text}"));
        }
        assert!(Item::get_fields("heat present=3").is_err());
        assert!(Item::get_fields("weight=2").is_err(), "a name comes first");
    }

    #[test]
    fn rows_sections_and_bodies_come_from_the_one_table() {
        let listing = Listing {
            gauge: Gauge { n: 1, max: 2 },
            items: vec![
                Item {
                    name: "heat weight=1".into(),
                    weight: 2,
                },
                Item {
                    name: "cold".into(),
                    weight: 3,
                },
            ],
            mode: BalanceMode::Auto,
            pairs: vec![Pair {
                id: 7,
                part: 1,
                whole: 2,
                gauge: Gauge { n: 4, max: 9 },
            }],
            note: "G1\nG2\n".into(),
        };
        assert_eq!(write_text("listing", &listing), LISTING);
        assert_eq!(read_text::<Listing>("listing", LISTING).unwrap(), listing);
        let empty = Listing {
            items: vec![],
            pairs: vec![],
            note: String::new(),
            ..listing
        };
        let text = "listing items=0 mode=auto pairs=0 bytes=0\n  gauge n=1 max=2";
        assert_eq!(write_text("listing", &empty), text);
        assert_eq!(read_text::<Listing>("listing", text).unwrap(), empty);
    }

    #[test]
    fn rows_the_header_does_not_declare_are_refused() {
        let swap = |from: &str, to: &str| LISTING.replacen(from, to, 1);
        for bad in [
            // a count that disagrees with its rows: too many, too few
            swap("items=2", "items=3"),
            swap("items=2", "items=1"),
            swap("pairs=1", "pairs=0"),
            // a count no text could hold: refused, and nothing reserved
            swap("items=2", "items=18446744073709551615"),
            // rows out of declared order
            swap(
                "  item cold weight=3\n  pair 7 of=1/2 n=4 max=9",
                "  pair 7 of=1/2 n=4 max=9\n  item cold weight=3",
            ),
            swap(
                "  gauge n=1 max=2\n  item heat weight=1 weight=2",
                "  item heat weight=1 weight=2\n  gauge n=1 max=2",
            ),
            // a row under an unknown word, a missing single row
            swap("  item cold", "  wat cold"),
            swap("  gauge n=1 max=2\n", ""),
            // a body whose length disagrees, an unindented body line
            swap("bytes=6", "bytes=4"),
            swap("  G2", "G2"),
            // a bad leading value, a bad pair, an embedded record short a key
            swap("pair 7", "pair x"),
            swap("of=1/2", "of=1-2"),
            swap(" max=9", ""),
            // another text's keyword
            swap("listing", "listings"),
        ] {
            let err = read_text::<Listing>("listing", &bad).unwrap_err();
            assert_eq!(err.code, crate::error::ErrorCode::Parse, "{bad:?}");
        }
        // rows past a count are refused by the count, not read as the
        // next section's
        let extra = format!("{LISTING}\n  item more weight=1");
        assert!(read_text::<Listing>("listing", &extra).is_err());
    }
}

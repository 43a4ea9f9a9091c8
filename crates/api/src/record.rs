//! The record kit: one ordered `field => "wire key"` table per
//! `key=value` record, from which both directions of its text mapping
//! are derived.
//!
//! Transport records (`stats`, `balance`, `list-sessions`, the session
//! image, process-shard reports) are rows of whitespace-separated
//! `key=value` tokens. [`wire_record!`](crate::wire_record) declares such
//! a record's struct and its wire keys in one listing and emits
//! `put_fields` / `get_fields` — inverse by construction, so adding a
//! counter to a row is one table line. The key is spelled beside the
//! field because several differ from it (`busy`, `trigger`, `bytes`, …).
//! A record inside a row (the latency histogram's two keys in a `shard`
//! row) is a table of its own, put and got beside the row's.
//!
//! What is not a single [`Token`] stays hand-written around the kit
//! call, on purpose: leading positional tokens (`shard <i>`,
//! `session <name>`), a trailing free-text `path=`, and row counts
//! checked against their header.

use crate::cache::CacheStats;
use crate::codec::{BalanceMode, NONE};
use crate::decode::field;
use crate::error::ApiError;
use std::fmt::Write;

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

/// An optional count; absent is `-`.
impl Token for Option<u64> {
    fn put(&self, out: &mut String) {
        match self {
            Some(n) => n.put(out),
            None => out.push_str(NONE),
        }
    }
    fn get(token: &str) -> Option<Self> {
        if token == NONE {
            Some(None)
        } else {
            token.parse().ok().map(Some)
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

/// Append ` key=value`.
pub fn put<T: Token>(out: &mut String, key: &str, value: &T) {
    out.push(' ');
    out.push_str(key);
    out.push('=');
    value.put(out);
}

/// Look `key` up among the whitespace-separated tokens of `text` and
/// parse its value; a missing key or a bad value is a typed `E_PARSE`.
pub fn get<T: Token>(text: &str, key: &str) -> Result<T, ApiError> {
    let token = field(text, key)?;
    T::get(token).ok_or_else(|| ApiError::parse(format!("bad {key}: {token:?}")))
}

/// Declare a `key=value` record: the struct and, per keyed field, its
/// wire key — `field: Type => "key",` in wire order. Fields after a `..`
/// line carry no key; the caller writes and reads them around the kit
/// call. See the [module docs](crate::record).
#[macro_export]
macro_rules! wire_record {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$fmeta:meta])* $fvis:vis $field:ident : $fty:ty => $key:literal, )*
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
                $( $crate::record::put(out, $key, &self.$field); )*
            }

            /// Inverse of `put_fields`: every keyed field looked up in
            /// `text`, the un-keyed ones at their `Default`.
            pub(crate) fn get_fields(text: &str) -> Result<Self, $crate::ApiError> {
                Ok($name {
                    $( $field: $crate::record::get(text, $key)?, )*
                    $( $( $extra: Default::default(), )* )?
                })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    wire_record! {
        #[derive(Debug, PartialEq)]
        struct Row {
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

    #[test]
    fn both_directions_come_from_the_one_table() {
        let row = Row {
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
        assert_eq!(Row::get_fields(&text).unwrap(), row);
        // a missing key and a bad value are both typed parse errors — a
        // count list of the wrong length too
        for bad in [
            "row n=7 ratio=1.15 seen=- dims=800x600 counts=0,2,812",
            "row n=7 ratio=1.15 seen=- dims=800 mode=auto counts=0,2,812",
            "row n=-1 ratio=1.15 seen=- dims=800x600 mode=auto counts=0,2,812",
            "row n=7 ratio=1.15 seen=- dims=800x600 mode=auto counts=0,2",
            "row n=7 ratio=1.15 seen=- dims=800x600 mode=auto counts=0,2,812,1",
        ] {
            let err = Row::get_fields(bad).unwrap_err();
            assert_eq!(err.code, crate::error::ErrorCode::Parse, "{bad:?}");
        }
    }
}

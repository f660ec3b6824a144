//! Parser for the power-grid benchmark subset of SPICE.
//!
//! Supported: `R`/`V`/`I` element cards (`<name> <node+> <node-> <value>`),
//! `*` comment lines, `.op`/`.end`/other dot directives (ignored), blank
//! lines, case-insensitive element letters, and engineering suffixes on
//! values (`f p n u m k meg g t`).

use std::error::Error;
use std::fmt;

use crate::netlist::{Element, Netlist};

/// A parse failure, with the 1-based line number.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// 1-based line of the offending card.
    pub line: usize,
    /// What went wrong.
    pub kind: ParseErrorKind,
}

/// The kinds of parse failure.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseErrorKind {
    /// A card had fewer than 4 fields.
    MissingFields,
    /// The value field did not parse as a number.
    BadValue(String),
    /// The element letter is not one of R/V/I.
    UnsupportedElement(char),
    /// A resistor with a non-positive value.
    NonPositiveResistance(f64),
    /// The deck is larger than the netlist's `u32` name offsets can
    /// address (4 GiB); carries the deck's size in bytes.
    TooLarge(usize),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            ParseErrorKind::MissingFields => {
                write!(f, "line {}: element card needs 4 fields", self.line)
            }
            ParseErrorKind::BadValue(v) => {
                write!(f, "line {}: invalid value `{v}`", self.line)
            }
            ParseErrorKind::UnsupportedElement(c) => {
                write!(f, "line {}: unsupported element type `{c}`", self.line)
            }
            ParseErrorKind::NonPositiveResistance(v) => {
                write!(f, "line {}: non-positive resistance {v}", self.line)
            }
            ParseErrorKind::TooLarge(bytes) => {
                write!(f, "deck of {bytes} bytes exceeds the 4 GiB limit")
            }
        }
    }
}

impl Error for ParseError {}

/// Engineering suffixes and their scales, longest first.
const SUFFIXES: [(&str, f64); 9] = [
    ("meg", 1e6),
    ("f", 1e-15),
    ("p", 1e-12),
    ("n", 1e-9),
    ("u", 1e-6),
    ("m", 1e-3),
    ("k", 1e3),
    ("g", 1e9),
    ("t", 1e12),
];

/// Parses a numeric field with optional engineering suffix (any case).
///
/// Returns `None` on malformed input, and on values that are not finite:
/// `nan`, `inf`, `infinity`, and numbers that overflow, with or without
/// the suffix's scale.
pub fn parse_value(field: &str) -> Option<f64> {
    let value = SUFFIXES
        .iter()
        .find_map(|&(suffix, scale)| {
            let cut = field.len().checked_sub(suffix.len())?;
            if !field.is_char_boundary(cut) || !field[cut..].eq_ignore_ascii_case(suffix) {
                return None;
            }
            let mantissa = &field[..cut];
            // Guard against stripping the exponent `e` forms ("1e3" has no
            // suffix) and against empty mantissas.
            if mantissa.is_empty() || mantissa.ends_with(['e', 'E']) {
                return None;
            }
            mantissa.parse::<f64>().ok().map(|v| v * scale)
        })
        .or_else(|| field.parse().ok())?;
    value.is_finite().then_some(value)
}

/// The first four fields of `line`, split as `str::split_whitespace`
/// splits them. An ASCII line, which a deck's card is, splits byte by
/// byte at the same six whitespace characters without decoding UTF-8.
fn first_fields(line: &str) -> [Option<&str>; 4] {
    let mut fields = [None; 4];
    if line.is_ascii() {
        let pieces = line
            .as_bytes()
            .split(|&b| matches!(b, b'\t'..=b'\r' | b' '))
            .filter(|piece| !piece.is_empty());
        for (field, piece) in fields.iter_mut().zip(pieces) {
            *field = std::str::from_utf8(piece).ok();
        }
    } else {
        for (field, piece) in fields.iter_mut().zip(line.split_whitespace()) {
            *field = Some(piece);
        }
    }
    fields
}

/// Parses a SPICE deck into a [`Netlist`].
///
/// # Errors
///
/// Returns [`ParseError`] with the offending line on malformed cards.
///
/// # Example
///
/// ```
/// let n = emgrid_spice::parse("R1 a b 2k\nV1 a 0 1.8\nI1 b 0 1m\n.end")?;
/// assert_eq!(n.counts(), (1, 1, 1));
/// # Ok::<(), emgrid_spice::ParseError>(())
/// ```
pub fn parse(deck: &str) -> Result<Netlist, ParseError> {
    if u32::try_from(deck.len()).is_err() {
        return Err(ParseError {
            line: 1,
            kind: ParseErrorKind::TooLarge(deck.len()),
        });
    }
    // Each card takes a line. Counting newlines a chunk at a time into a
    // byte lets the compiler vectorize the count (255 keeps it in range).
    let lines = deck
        .as_bytes()
        .chunks(255)
        .map(|chunk| usize::from(chunk.iter().fold(0u8, |n, &b| n + u8::from(b == b'\n'))))
        .sum::<usize>()
        + 1;
    let mut netlist = Netlist::with_capacity(lines);
    for (lineno, raw) in deck.lines().enumerate() {
        let line = lineno + 1;
        let [Some(name), a, b, value] = first_fields(raw) else {
            continue;
        };
        if name.starts_with(['*', '.']) {
            continue;
        }
        let (Some(a), Some(b), Some(value)) = (a, b, value) else {
            return Err(ParseError {
                line,
                kind: ParseErrorKind::MissingFields,
            });
        };
        let value = parse_value(value).ok_or_else(|| ParseError {
            line,
            kind: ParseErrorKind::BadValue(value.to_owned()),
        })?;
        let na = netlist.intern(a);
        let nb = netlist.intern(b);
        let kind = name.chars().next().expect("non-empty name");
        let element = match kind.to_ascii_uppercase() {
            'R' => {
                if value <= 0.0 {
                    return Err(ParseError {
                        line,
                        kind: ParseErrorKind::NonPositiveResistance(value),
                    });
                }
                Element::Resistor {
                    a: na,
                    b: nb,
                    value,
                }
            }
            'V' => Element::VoltageSource {
                pos: na,
                neg: nb,
                value,
            },
            'I' => Element::CurrentSource {
                pos: na,
                neg: nb,
                value,
            },
            other => {
                return Err(ParseError {
                    line,
                    kind: ParseErrorKind::UnsupportedElement(other),
                })
            }
        };
        netlist.push(name, element);
    }
    Ok(netlist)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Node;
    use proptest::prelude::*;

    #[test]
    fn parses_benchmark_style_deck() {
        let deck = "\
* IBM-style fragment
R1 n1_0_0 n1_1_0 0.5
r2 n1_1_0 n1_2_0 0.5
Rv1 n1_1_0 n2_1_0 1.0
V1 n2_0_0 0 1.8
i_load n1_2_0 0 0.0003
.op
.end
";
        let n = parse(deck).unwrap();
        assert_eq!(n.counts(), (3, 1, 1));
        assert_eq!(n.node_count(), 5);
    }

    #[test]
    fn engineering_suffixes() {
        assert_eq!(parse_value("1k"), Some(1e3));
        assert_eq!(parse_value("2.5m"), Some(2.5e-3));
        assert_eq!(parse_value("3meg"), Some(3e6));
        assert!((parse_value("10u").unwrap() - 1e-5).abs() < 1e-18);
        assert_eq!(parse_value("1e3"), Some(1000.0));
        assert_eq!(parse_value("1E-2"), Some(0.01));
        assert_eq!(parse_value("7"), Some(7.0));
        assert_eq!(parse_value("1n"), Some(1e-9));
        assert_eq!(parse_value("x"), None);
        assert_eq!(parse_value("k"), None);
    }

    #[test]
    fn reports_line_numbers() {
        let err = parse("R1 a b 1.0\nR2 a b\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert_eq!(err.kind, ParseErrorKind::MissingFields);
    }

    #[test]
    fn rejects_bad_value_and_type() {
        let err = parse("R1 a b abc").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::BadValue(_)));
        let err = parse("C1 a b 1p").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::UnsupportedElement('C')));
        let err = parse("R1 a b 0").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::NonPositiveResistance(_)));
    }

    #[test]
    fn rejects_nan_values() {
        for deck in ["R1 a b nan", "V1 a 0 NaN", "I1 a 0 nan"] {
            let err = parse(deck).unwrap_err();
            assert!(matches!(err.kind, ParseErrorKind::BadValue(_)), "{deck}");
        }
    }

    #[test]
    fn rejects_infinite_values() {
        for deck in ["R1 a b inf", "V1 a 0 -inf", "I1 a 0 +INF"] {
            let err = parse(deck).unwrap_err();
            assert!(matches!(err.kind, ParseErrorKind::BadValue(_)), "{deck}");
        }
    }

    #[test]
    fn rejects_infinity_spelled_out() {
        for deck in ["R1 a b infinity", "V1 a 0 -Infinity", "I1 a 0 INFINITY"] {
            let err = parse(deck).unwrap_err();
            assert!(matches!(err.kind, ParseErrorKind::BadValue(_)), "{deck}");
        }
    }

    #[test]
    fn rejects_values_that_overflow() {
        // Finite before the suffix's scale, infinite after it; and too
        // large to parse at all.
        for field in ["1e300t", "2e303MEG", "1e309", "-1e309"] {
            assert_eq!(parse_value(field), None, "{field}");
            let err = parse(&format!("R1 a b {field}")).unwrap_err();
            assert!(matches!(err.kind, ParseErrorKind::BadValue(_)), "{field}");
        }
        assert_eq!(parse_value("1e290t"), Some(1e302));
    }

    #[test]
    fn ground_aliases() {
        let n = parse("R1 a 0 1\nR2 b gnd 1\n").unwrap();
        for (_, e) in n.resistors() {
            if let Element::Resistor { b, .. } = e {
                assert_eq!(*b, Node::Ground);
            }
        }
    }

    /// `parse_value` as it was before it stopped lowercasing each field:
    /// the oracle the case-insensitive suffix match must agree with.
    fn lowercase_then_strip(field: &str) -> Option<f64> {
        let lower = field.to_ascii_lowercase();
        // Longest suffix first.
        const SUFFIXES: [(&str, f64); 9] = [
            ("meg", 1e6),
            ("f", 1e-15),
            ("p", 1e-12),
            ("n", 1e-9),
            ("u", 1e-6),
            ("m", 1e-3),
            ("k", 1e3),
            ("g", 1e9),
            ("t", 1e12),
        ];
        for (suffix, scale) in SUFFIXES {
            if let Some(stripped) = lower.strip_suffix(suffix) {
                if !stripped.is_empty() && !stripped.ends_with(['e', 'E']) {
                    if let Ok(v) = stripped.parse::<f64>() {
                        return Some(v * scale);
                    }
                }
            }
        }
        lower.parse().ok()
    }

    /// Pieces value fields are made of: digits, signs, points, exponents,
    /// every suffix in mixed case, the non-finite spellings, and non-ASCII
    /// characters next to which a suffix cannot be cut.
    const PIECES: [&str; 32] = [
        "0", "1", "7", "42", "3.5", ".", "-", "+", "e", "E", "e-", "1e308", "9e300", "meg", "MeG",
        "f", "F", "p", "n", "N", "u", "m", "M", "k", "K", "g", "t", "T", "inf", "NaN", "µ", "é",
    ];

    /// Pieces lines are made of: every ASCII whitespace character
    /// (vertical tab and form feed too), non-ASCII whitespace, and field
    /// text with and without non-ASCII letters.
    const LINE_PIECES: [&str; 14] = [
        " ", "\t", "\x0b", "\x0c", "\r", "\u{a0}", "\u{2003}", "\u{85}", "R1", "n1_0_0", "é", "*",
        ".", "1k",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn fields_split_as_split_whitespace_does(
            picks in proptest::collection::vec(0usize..14, 0..12),
        ) {
            let line: String = picks.iter().map(|&i| LINE_PIECES[i]).collect();
            let mut want = [None; 4];
            for (slot, field) in want.iter_mut().zip(line.split_whitespace()) {
                *slot = Some(field);
            }
            prop_assert_eq!(first_fields(&line), want);
        }

        #[test]
        fn parse_value_agrees_with_the_lowercasing_oracle(
            field in "[ -~]{0,12}",
            picks in proptest::collection::vec(0usize..32, 0..6),
        ) {
            let built: String = picks.iter().map(|&i| PIECES[i]).collect();
            for f in [field.as_str(), built.as_str()] {
                let want = lowercase_then_strip(f).filter(|v| v.is_finite());
                prop_assert_eq!(parse_value(f).map(f64::to_bits), want.map(f64::to_bits));
            }
        }
    }

    proptest! {
        #[test]
        fn parse_value_handles_plain_floats(v in -1e6f64..1e6) {
            let s = format!("{v}");
            let parsed = parse_value(&s).unwrap();
            prop_assert!((parsed - v).abs() <= 1e-9 * v.abs().max(1.0));
        }

        #[test]
        fn parser_never_panics_on_arbitrary_text(deck in "[ -~\n]{0,200}") {
            // Any printable input must either parse or produce a ParseError
            // with a line number inside the deck.
            match parse(&deck) {
                Ok(_) => {}
                Err(e) => prop_assert!(e.line >= 1 && e.line <= deck.lines().count().max(1)),
            }
        }

        #[test]
        fn parser_round_trips_structured_decks(
            values in proptest::collection::vec(0.001f64..1000.0, 1..20),
        ) {
            let mut deck = String::from("V1 n2_0_0 0 1.8\n");
            for (i, v) in values.iter().enumerate() {
                deck.push_str(&format!("R{i} n1_{i}_0 n1_{}_0 {v}\n", i + 1));
            }
            let n = parse(&deck).unwrap();
            let rendered = crate::writer::write_string(&n);
            let again = parse(&rendered).unwrap();
            prop_assert_eq!(n.counts(), again.counts());
            prop_assert_eq!(n.node_count(), again.node_count());
        }
    }
}

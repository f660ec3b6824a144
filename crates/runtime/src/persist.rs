//! Persisted Monte Carlo state: the one checkpoint codec, `f64` field
//! codec and atomic file write that every on-disk store in the workspace
//! goes through.
//!
//! Both Monte Carlo levels of the paper persist the same thing — the
//! committed trial prefix plus the Welford stream over it — as
//! line-oriented text with every `f64` stored as its 16-hex-digit
//! IEEE-754 bit pattern, so a resumed session restores the prefix
//! *bit-exactly* and replays into the same final statistics as an
//! uninterrupted run:
//!
//! ```text
//! <format line>
//! stream <count> <mean> <m2> <min> <max>
//! <tag> <fields of trial 0>
//! <tag> <fields of trial 1>
//! ...
//! ```
//!
//! [`Checkpoint`] writes and checks that framing; a [`TrialRecord`]
//! supplies only the format line, the line tag and one trial's fields.

use std::fmt;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;
use std::str::SplitWhitespace;
use std::sync::atomic::{AtomicU64, Ordering};

use emgrid_stats::OnlineStats;

/// Committed state of a Monte Carlo session: the outputs of a strict
/// prefix of the trial sequence, in trial order, and the observable
/// stream accumulated over exactly those trials.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint<T> {
    /// Outputs of trials `0..outputs.len()`, in trial order.
    pub outputs: Vec<T>,
    /// The observable stream over those outputs (restored bit-exactly via
    /// [`OnlineStats::from_raw_parts`]).
    pub stream: OnlineStats,
}

/// One trial's output as a checkpoint line.
pub trait TrialRecord: Sized {
    /// The versioned first line of the text format.
    const FORMAT: &'static str;
    /// The token opening each trial line.
    const TAG: &'static str;

    /// Appends this trial's fields, each preceded by one space.
    fn encode_fields(&self, out: &mut String);

    /// Parses one trial from the tokens after its tag.
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] on a missing or malformed field.
    fn decode_fields(fields: SplitWhitespace<'_>) -> Result<Self, CheckpointError>;
}

/// A malformed or truncated checkpoint. Callers treat it as absent: the
/// run restarts from trial zero.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointError(pub String);

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad checkpoint: {}", self.0)
    }
}

impl std::error::Error for CheckpointError {}

impl<T> Checkpoint<T> {
    /// Whether this state can resume a `trials`-trial run: at most
    /// `trials` outputs, and a stream over exactly those outputs.
    pub(crate) fn fits(&self, trials: usize) -> bool {
        self.outputs.len() <= trials && self.stream.count() == self.outputs.len() as u64
    }
}

impl<T: TrialRecord> Checkpoint<T> {
    /// Serializes to the versioned text format.
    pub fn encode(&self) -> String {
        let (count, mean, m2, min, max) = self.stream.raw_parts();
        let mut out = String::new();
        out.push_str(T::FORMAT);
        let _ = write!(out, "\nstream {count}");
        for x in [mean, m2, min, max] {
            out.push(' ');
            push_f64(&mut out, x);
        }
        out.push('\n');
        for output in &self.outputs {
            out.push_str(T::TAG);
            output.encode_fields(&mut out);
            out.push('\n');
        }
        out
    }

    /// Parses the text format back, validating the format line and that
    /// the stream count matches the number of trial lines.
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] on any malformed line or count mismatch.
    pub fn decode(text: &str) -> Result<Self, CheckpointError> {
        let mut lines = text.lines();
        match lines.next() {
            Some(line) if line == T::FORMAT => {}
            other => return Err(CheckpointError(format!("bad header {other:?}"))),
        }
        let mut fields = lines.next().unwrap_or("").split_whitespace();
        if fields.next() != Some("stream") {
            return Err(CheckpointError("missing stream line".into()));
        }
        let count: u64 = fields
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| CheckpointError("bad stream count".into()))?;
        let mut raw = [0.0; 4];
        for x in &mut raw {
            *x = decode_f64(fields.next())?;
        }
        let [mean, m2, min, max] = raw;
        let stream = OnlineStats::from_raw_parts(count, mean, m2, min, max);

        let mut outputs = Vec::new();
        for line in lines {
            let mut fields = line.split_whitespace();
            match fields.next() {
                None => continue,
                Some(tag) if tag == T::TAG => outputs.push(T::decode_fields(fields)?),
                Some(_) => return Err(CheckpointError(format!("bad line {line:?}"))),
            }
        }
        if outputs.len() as u64 != count {
            return Err(CheckpointError(format!(
                "stream count {count} != {} {} lines",
                outputs.len(),
                T::TAG
            )));
        }
        Ok(Checkpoint { outputs, stream })
    }
}

/// Appends `x` as its 16-hex-digit IEEE-754 bit pattern.
pub fn push_f64(out: &mut String, x: f64) {
    let _ = write!(out, "{:016x}", x.to_bits());
}

/// Parses a field written by [`push_f64`]: exactly 16 hex digits, so a
/// cut or padded token is rejected instead of read as another value.
pub fn parse_f64(token: &str) -> Option<f64> {
    if token.len() != 16 || !token.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u64::from_str_radix(token, 16).ok().map(f64::from_bits)
}

/// [`parse_f64`] for a checkpoint field that may be missing.
///
/// # Errors
///
/// [`CheckpointError`] naming the missing or malformed token.
pub fn decode_f64(token: Option<&str>) -> Result<f64, CheckpointError> {
    token
        .and_then(parse_f64)
        .ok_or_else(|| CheckpointError(format!("bad f64 field {token:?}")))
}

/// Tie-breaker for concurrent writers of the same file.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Writes `bytes` to `dir/file` (creating `dir` if needed) through a
/// unique temp file and a rename. Readers — and a process restarted after
/// `kill -9` — see either the previous complete file or the new one,
/// never a torn one; concurrent writers each land a complete file and the
/// last rename wins.
///
/// # Errors
///
/// Propagates filesystem failures.
pub fn write_atomic(dir: &Path, file: &str, bytes: &[u8]) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    let tmp = dir.join(format!(
        ".{file}.{}.{}.tmp",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    fs::write(&tmp, bytes)?;
    fs::rename(&tmp, dir.join(file))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A test record with both field kinds the engines use: one `f64`
    /// field and a variable-length list.
    #[derive(Debug, Clone, PartialEq)]
    struct Rec {
        x: f64,
        ks: Vec<usize>,
    }

    impl TrialRecord for Rec {
        const FORMAT: &'static str = "test-checkpoint-v1";
        const TAG: &'static str = "rec";

        fn encode_fields(&self, out: &mut String) {
            out.push(' ');
            push_f64(out, self.x);
            for k in &self.ks {
                let _ = write!(out, " {k}");
            }
        }

        fn decode_fields(mut fields: SplitWhitespace<'_>) -> Result<Self, CheckpointError> {
            let x = decode_f64(fields.next())?;
            let ks = fields
                .map(|s| s.parse().map_err(|_| CheckpointError(s.into())))
                .collect::<Result<_, _>>()?;
            Ok(Rec { x, ks })
        }
    }

    fn checkpoint(xs: &[f64]) -> Checkpoint<Rec> {
        let mut stream = OnlineStats::new();
        let outputs = xs
            .iter()
            .enumerate()
            .map(|(i, &x)| {
                stream.push(x);
                Rec {
                    x,
                    ks: (0..i).collect(),
                }
            })
            .collect();
        Checkpoint { outputs, stream }
    }

    #[test]
    fn framing_is_written_once_around_the_records() {
        let cp = checkpoint(&[1.0, -0.0]);
        let text = cp.encode();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0], "test-checkpoint-v1");
        assert!(lines[1].starts_with("stream 2 "));
        assert_eq!(lines[2], "rec 3ff0000000000000");
        assert_eq!(lines[3], "rec 8000000000000000 0");
        assert!(text.ends_with('\n'));
        assert_eq!(Checkpoint::<Rec>::decode(&text), Ok(cp));
    }

    #[test]
    fn framing_errors_are_rejected() {
        let good = checkpoint(&[1.0, 2.0, 3.0]).encode();
        let decode = Checkpoint::<Rec>::decode;
        assert!(decode("").is_err());
        assert!(decode("test-checkpoint-v0\n").is_err());
        assert!(decode("test-checkpoint-v1\n").is_err());
        let truncated: String = good.lines().take(3).map(|l| format!("{l}\n")).collect();
        assert!(decode(&truncated).is_err(), "count check");
        assert!(decode(&good.replace("rec", "wreck")).is_err(), "tag");
        assert!(decode(&good.replace("stream 3", "stream x")).is_err());
        // Blank lines between records are tolerated.
        assert!(decode(&good.replace("\nrec", "\n\nrec")).is_ok());
    }

    #[test]
    fn f64_fields_are_exactly_sixteen_hex_digits() {
        assert_eq!(parse_f64("3ff0000000000000"), Some(1.0));
        assert_eq!(parse_f64("3FF0000000000000"), Some(1.0));
        for bad in [
            "3ff",
            "3ff00000000000000",
            "+ff0000000000000",
            "3ff000000000000g",
            "",
        ] {
            assert_eq!(parse_f64(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn atomic_writes_replace_whole_files_and_leave_no_temps() {
        let dir = std::env::temp_dir().join(format!("emgrid-persist-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let nested = dir.join("a").join("b");
        write_atomic(&nested, "f", b"first").unwrap();
        write_atomic(&nested, "f", b"second").unwrap();
        assert_eq!(fs::read(nested.join("f")).unwrap(), b"second");
        let names: Vec<_> = fs::read_dir(&nested).unwrap().flatten().collect();
        assert_eq!(names.len(), 1, "temp files left behind");
        let _ = fs::remove_dir_all(&dir);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn f64_fields_round_trip_every_bit_pattern(bits in 0u64..u64::MAX, cut in 0usize..16) {
            let mut s = String::new();
            push_f64(&mut s, f64::from_bits(bits));
            prop_assert_eq!(parse_f64(&s).map(f64::to_bits), Some(bits));
            prop_assert_eq!(parse_f64(&s[..cut]), None);
        }
    }
}

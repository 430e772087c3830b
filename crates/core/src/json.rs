//! The workspace's one JSON string escaper and one `fmt`-free integer
//! writer, shared by every hand-rolled text writer (journal JSONL,
//! Chrome trace, flame-graph JSON, telemetry JSON, the profile
//! container).

use std::fmt::Write as _;

/// Appends `s` to `out` escaped for inclusion in a JSON string literal:
/// quotes, backslashes, the short control escapes, and `\u00XX` for
/// every other control byte.
#[inline]
pub fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Every two-digit number, zero padded, back to back: `push_u64` peels
/// two digits per division.
const DIGIT_PAIRS: &[u8; 200] = b"\
    00010203040506070809101112131415161718192021222324\
    25262728293031323334353637383940414243444546474849\
    50515253545556575859606162636465666768697071727374\
    75767778798081828384858687888990919293949596979899";

/// Appends `n` in decimal — the bytes `write!(out, "{n}")` would append,
/// at about half the cost: the per-interval writers (Chrome trace,
/// container) emit up to eight integers per line.
#[inline]
pub fn push_u64(out: &mut String, mut n: u64) {
    let mut digits = [b'0'; 20];
    let mut at = digits.len();
    while n >= 10 {
        let pair = (n % 100) as usize * 2;
        n /= 100;
        at -= 2;
        digits[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    // An odd digit count leaves the leading digit in `n`; an even one
    // leaves zero behind, and only the number zero prints that.
    if n > 0 || at == digits.len() {
        at -= 1;
        digits[at] = b'0' + n as u8;
    }
    out.extend(digits[at..].iter().map(|&digit| char::from(digit)));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_u64_matches_display() {
        let mut samples = vec![0, 1, 9, 10, 99, 100, 1_000, u64::from(u32::MAX), u64::MAX];
        samples.extend((0..64).map(|shift| 1u64 << shift));
        samples.extend((1..20).map(|digits| 10u64.pow(digits) - 1));
        for n in samples {
            let mut out = String::from("x");
            push_u64(&mut out, n);
            assert_eq!(out, format!("x{n}"));
        }
    }
}

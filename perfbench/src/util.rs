//! Small helpers: order statistics, an output digest, peak memory, a JSON
//! syntax checker, and JSON string escaping.

/// Median of `values` (the mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    let q = quartiles(values);
    q[1]
}

/// `[q1, median, q3]` by the same exclusive method as Python's
/// `statistics.quantiles(values, n=4)`; a single value is its own
/// quartiles. An empty slice yields zeros.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
    match v.len() {
        0 => [0.0; 3],
        1 => [v[0]; 3],
        n => {
            let at = |j: usize| {
                // Exclusive method: position j*(n+1)/4, 1-based.
                let m = (n + 1) as f64 * j as f64 / 4.0;
                let lo = (m.floor() as usize).clamp(1, n - 1);
                let frac = m - lo as f64;
                v[lo - 1] + (v[lo] - v[lo - 1]) * frac
            };
            [at(1), at(2), at(3)]
        }
    }
}

/// Streaming FNV-1a 64-bit digest of simulated outputs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` into the digest, followed by a separator byte so that
    /// the boundaries between parts count.
    pub fn update(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes.iter().chain(std::iter::once(&0xff)) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// The digest as sixteen hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Appends `s` as a JSON string literal.
pub fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Formats a float so JSON accepts it (non-finite values become `null`).
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// Checks that `text` is exactly one well-formed JSON value (surrounding
/// whitespace allowed). Iterative, so deeply nested input cannot overflow
/// the stack.
pub fn is_valid_json(text: &[u8]) -> bool {
    let mut p = Parser { s: text, i: 0 };
    p.value() && {
        p.ws();
        p.i == p.s.len()
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while let Some(b' ' | b'\n' | b'\r' | b'\t') = self.s.get(self.i) {
            self.i += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        self.ws();
        if self.s.get(self.i) == Some(&b) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn literal(&mut self, word: &[u8]) -> bool {
        if self.s[self.i..].starts_with(word) {
            self.i += word.len();
            true
        } else {
            false
        }
    }

    fn string(&mut self) -> bool {
        // Called with the cursor on the opening quote.
        self.i += 1;
        while let Some(&b) = self.s.get(self.i) {
            self.i += 1;
            match b {
                b'"' => return true,
                b'\\' => match self.s.get(self.i) {
                    Some(b'u') => {
                        let hex = self.s.get(self.i + 1..self.i + 5);
                        if !hex.is_some_and(|h| h.iter().all(u8::is_ascii_hexdigit)) {
                            return false;
                        }
                        self.i += 5;
                    }
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => self.i += 1,
                    _ => return false,
                },
                0..=0x1f => return false,
                _ => {}
            }
        }
        false
    }

    fn number(&mut self) -> bool {
        let start = self.i;
        if self.s.get(self.i) == Some(&b'-') {
            self.i += 1;
        }
        let digits = |p: &mut Self| {
            let from = p.i;
            while p.s.get(p.i).is_some_and(u8::is_ascii_digit) {
                p.i += 1;
            }
            p.i > from
        };
        if !digits(self) {
            return false;
        }
        if self.s.get(self.i) == Some(&b'.') {
            self.i += 1;
            if !digits(self) {
                return false;
            }
        }
        if let Some(b'e' | b'E') = self.s.get(self.i) {
            self.i += 1;
            if let Some(b'+' | b'-') = self.s.get(self.i) {
                self.i += 1;
            }
            if !digits(self) {
                return false;
            }
        }
        self.i > start
    }

    fn scalar(&mut self) -> bool {
        match self.s.get(self.i) {
            Some(b'"') => self.string(),
            Some(b't') => self.literal(b"true"),
            Some(b'f') => self.literal(b"false"),
            Some(b'n') => self.literal(b"null"),
            Some(_) => self.number(),
            None => false,
        }
    }

    fn value(&mut self) -> bool {
        // Stack of open containers: `true` for an object.
        let mut stack: Vec<bool> = Vec::new();
        loop {
            // Expect a value (or, inside an object, a key then a value).
            self.ws();
            match self.s.get(self.i) {
                Some(b'{') => {
                    self.i += 1;
                    if self.eat(b'}') {
                        // Empty object: fall through to the closing logic.
                    } else {
                        stack.push(true);
                        self.ws();
                        if self.s.get(self.i) != Some(&b'"') || !self.string() || !self.eat(b':') {
                            return false;
                        }
                        continue;
                    }
                }
                Some(b'[') => {
                    self.i += 1;
                    if !self.eat(b']') {
                        stack.push(false);
                        continue;
                    }
                }
                _ => {
                    if !self.scalar() {
                        return false;
                    }
                }
            }
            // A value just ended: close containers or move to the next item.
            loop {
                let Some(&is_obj) = stack.last() else {
                    return true;
                };
                if self.eat(b',') {
                    if is_obj {
                        self.ws();
                        if self.s.get(self.i) != Some(&b'"') || !self.string() || !self.eat(b':') {
                            return false;
                        }
                    }
                    break;
                }
                if self.eat(if is_obj { b'}' } else { b']' }) {
                    stack.pop();
                    continue;
                }
                return false;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quartiles(&[4.0]), [4.0; 3]);
    }

    #[test]
    fn json_checker_accepts_documents_and_rejects_damage() {
        for ok in [
            "{}",
            "[]",
            r#"{"a":[1,2.5,-3e4,true,false,null,"x\"yé"],"b":{}}"#,
            " [ {\"k\" : [ [ ] ] } ] ",
        ] {
            assert!(is_valid_json(ok.as_bytes()), "{ok}");
        }
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\"}",
            "[1 2]",
            "{}x",
            "\"unterminated",
            "01a",
        ] {
            assert!(!is_valid_json(bad.as_bytes()), "{bad}");
        }
    }

    #[test]
    fn digest_sees_part_boundaries() {
        let mut a = Digest::default();
        a.update(b"ab").update(b"c");
        let mut b = Digest::default();
        b.update(b"a").update(b"bc");
        assert_ne!(a.hex(), b.hex());
    }
}

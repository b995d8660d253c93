//! Dependency-free micro-benchmark support for the one-pass dataplane.
//!
//! Everything the `bench_dataplane` binary needs and nothing the offline
//! build can't provide: a self-calibrating wall-clock loop built on
//! [`std::time::Instant`], and a tiny JSON emitter for the checked-in
//! `BENCH_dataplane.json` artifact. Virtual-time numbers (the cio-sim
//! cycle meter) ride along where the measured path is sim-metered, so
//! each report carries one deterministic series next to the wall-clock
//! one.

use std::time::Instant;

/// One wall-clock measurement of a repeated operation.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Iterations executed in the timed window.
    pub iters: u64,
    /// Iterations executed over every calibration window, the timed one
    /// included: the divisor for anything the caller accumulated across
    /// the whole [`measure`] call (e.g. virtual cycles).
    pub total_iters: u64,
    /// Total wall-clock nanoseconds for all iterations.
    pub ns: u64,
    /// Payload bytes processed per iteration (0 if not byte-oriented).
    pub bytes_per_iter: u64,
}

impl Measurement {
    /// Mean nanoseconds per iteration.
    pub fn ns_per_iter(&self) -> f64 {
        self.ns as f64 / self.iters.max(1) as f64
    }

    /// Throughput in gigabytes per second (bytes/ns).
    pub fn gb_per_s(&self) -> f64 {
        if self.ns == 0 {
            return 0.0;
        }
        (self.bytes_per_iter * self.iters) as f64 / self.ns as f64
    }

    /// Iterations per second.
    pub fn per_sec(&self) -> f64 {
        if self.ns == 0 {
            return 0.0;
        }
        self.iters as f64 * 1e9 / self.ns as f64
    }
}

/// Runs `f` repeatedly until roughly `target_ms` of wall clock is
/// consumed, growing the iteration count geometrically so short
/// operations are timed over many calls. The last (longest) window wins:
/// it dominates total runtime and has the least timer-overhead bias.
pub fn measure<F: FnMut()>(target_ms: u64, bytes_per_iter: u64, mut f: F) -> Measurement {
    let target_ns = target_ms.max(1) * 1_000_000;
    let mut iters: u64 = 1;
    let mut total_iters: u64 = 0;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        let ns = (t.elapsed().as_nanos() as u64).max(1);
        total_iters += iters;
        if ns >= target_ns || iters >= (1 << 32) {
            return Measurement {
                iters,
                total_iters,
                ns,
                bytes_per_iter,
            };
        }
        // Aim past the target in one step, but at most 16x at a time so a
        // mis-measured tiny window can't overshoot into a stall.
        let want = iters.saturating_mul(target_ns) / ns;
        iters = want.clamp(iters * 2, iters * 16);
    }
}

/// Minimal JSON object builder (no external crates, no escaping needs
/// beyond the controlled keys/strings the bench emits).
#[derive(Debug, Default)]
pub struct JsonObj {
    parts: Vec<String>,
}

impl JsonObj {
    /// An empty object.
    pub fn new() -> Self {
        JsonObj::default()
    }

    /// Adds a string field.
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.parts
            .push(format!("\"{}\": \"{}\"", key, escape(value)));
        self
    }

    /// Adds an integer field.
    pub fn int(mut self, key: &str, value: u64) -> Self {
        self.parts.push(format!("\"{key}\": {value}"));
        self
    }

    /// Adds a float field (non-finite values become `null`).
    pub fn f64(mut self, key: &str, value: f64) -> Self {
        let v = if value.is_finite() {
            format!("{value:.6}")
        } else {
            "null".to_string()
        };
        self.parts.push(format!("\"{key}\": {v}"));
        self
    }

    /// Adds a pre-rendered JSON value (nested object or array).
    pub fn raw(mut self, key: &str, value: String) -> Self {
        self.parts.push(format!("\"{key}\": {value}"));
        self
    }

    /// Renders the object.
    pub fn finish(self) -> String {
        format!("{{{}}}", self.parts.join(", "))
    }
}

/// Renders a JSON array from pre-rendered values.
pub fn json_array<I: IntoIterator<Item = String>>(items: I) -> String {
    let items: Vec<String> = items.into_iter().collect();
    format!("[{}]", items.join(", "))
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_counts_iterations_and_time() {
        let mut n = 0u64;
        let m = measure(1, 8, || n += 1);
        // `total_iters` counts every calibration window; `iters` only
        // the last.
        assert_eq!(n, m.total_iters);
        assert!(n >= m.iters && m.iters >= 1, "n={n} iters={}", m.iters);
        assert!(m.ns >= 1);
        assert_eq!(m.bytes_per_iter, 8);
        assert!(m.ns_per_iter() > 0.0);
        assert!(m.per_sec() > 0.0);
    }

    #[test]
    fn json_builders_render() {
        let inner = JsonObj::new().int("size", 4096).f64("ratio", 1.5).finish();
        let doc = JsonObj::new()
            .str("bench", "dataplane")
            .raw("rows", json_array([inner]))
            .finish();
        assert_eq!(
            doc,
            "{\"bench\": \"dataplane\", \"rows\": [{\"size\": 4096, \"ratio\": 1.500000}]}"
        );
    }

    #[test]
    fn json_escapes_controls_and_quotes() {
        let s = JsonObj::new().str("k", "a\"b\\c\n").finish();
        assert_eq!(s, "{\"k\": \"a\\\"b\\\\c\\u000a\"}");
    }
}

//! Order statistics over timing samples.

/// Percentiles tried, highest first, when reporting a tail.
pub const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Returns `v` sorted ascending (NaN-free input assumed).
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    s
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(p: f64, n: usize) -> usize {
    ((p * n as f64 / 100.0).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `p` (0..=100) of ascending `sorted`; 0 when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(p, sorted.len()) - 1]
}

/// Median of unsorted `v` (nearest rank; 0 when empty).
pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v), 50.0)
}

/// First, second and third quartile with the method of Python's
/// `statistics.quantiles(v, n=4)` (the "exclusive" interpolation), so the
/// spreads this crate reports match the ones the acceptance rule computes.
/// Fewer than two samples give the lone value (or 0) three times.
pub fn quartiles(v: &[f64]) -> [f64; 3] {
    let d = sorted(v);
    let n = d.len();
    if n < 2 {
        let x = d.first().copied().unwrap_or(0.0);
        return [x; 3];
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0;
    }
    out
}

/// Interquartile range as a share of the median (0 when the median is 0).
pub fn spread(v: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(v);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// A tail statistic together with the evidence behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile reported (100 means "the maximum").
    pub pct: f64,
    /// Its value.
    pub value: f64,
    /// Number of samples it was taken from.
    pub samples: usize,
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`TAIL_MIN_BEYOND`] samples strictly beyond it. With fewer than 20
/// samples no percentile at or above the median qualifies, and the maximum
/// is reported as percentile 100. Empty input gives an all-zero tail.
pub fn tail(v: &[f64]) -> Tail {
    let s = sorted(v);
    let n = s.len();
    if n == 0 {
        return Tail {
            pct: 0.0,
            value: 0.0,
            samples: 0,
        };
    }
    for p in TAIL_LADDER {
        if n - rank(p, n) >= TAIL_MIN_BEYOND {
            return Tail {
                pct: p,
                value: percentile(&s, p),
                samples: n,
            };
        }
    }
    Tail {
        pct: 100.0,
        value: s[n - 1],
        samples: n,
    }
}

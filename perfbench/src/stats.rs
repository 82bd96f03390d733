//! Exact order statistics over raw samples.
//!
//! Every percentile is read from the sorted samples themselves (nearest
//! rank), never from histogram buckets, and a percentile is only reported
//! when at least [`MIN_BEYOND`] samples lie beyond it.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Raw samples of one quantity.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn new() -> Self {
        Samples::default()
    }

    pub fn push(&mut self, value: f64) {
        self.values.push(value);
        self.sorted = false;
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// Nearest-rank percentile `p` in `(0, 1]`, or `None` when fewer than
    /// [`MIN_BEYOND`] samples lie beyond it (the median of a set of fewer
    /// than 21 samples is still returned: see [`Self::median`]).
    pub fn percentile(&mut self, p: f64) -> Option<f64> {
        let rank = nearest_rank(self.len(), p)?;
        if self.len() - rank < MIN_BEYOND {
            return None;
        }
        self.sort();
        Some(self.values[rank - 1])
    }

    /// The nearest-rank median; defined for any non-empty sample set.
    pub fn median(&mut self) -> Option<f64> {
        let rank = nearest_rank(self.len(), 0.5)?;
        self.sort();
        Some(self.values[rank - 1])
    }

    /// The smallest sample, or 0 for an empty set.
    pub fn min_or_zero(&mut self) -> f64 {
        self.sort();
        self.values.first().copied().unwrap_or(0.0)
    }

    /// The largest sample, or 0 for an empty set.
    pub fn max_or_zero(&mut self) -> f64 {
        self.sort();
        self.values.last().copied().unwrap_or(0.0)
    }

    /// The median, or 0 for an empty set.
    pub fn median_or_zero(&mut self) -> f64 {
        self.median().unwrap_or(0.0)
    }
}

/// 1-based nearest rank `ceil(p·n)`, or `None` for an empty set.
fn nearest_rank(n: usize, p: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    let rank = (p * n as f64).ceil() as usize;
    Some(rank.clamp(1, n))
}

/// Completion rates (1/s) of consecutive groups of `group` operations run
/// back to back by one closed-loop client, from their durations in
/// seconds, in the order they ran; a trailing partial group is dropped
/// unless it is the only one.
pub fn group_rates(durations: &[f64], group: usize) -> Samples {
    let mut rates = Samples::new();
    let group = group.max(1).min(durations.len().max(1));
    for chunk in durations.chunks(group) {
        let busy: f64 = chunk.iter().sum();
        if (chunk.len() == group || rates.len() == 0) && busy > 0.0 {
            rates.push(chunk.len() as f64 / busy);
        }
    }
    rates
}

/// A window cut into slices of equal length, with each slice's median
/// latency and completion rate.
#[derive(Debug, Clone, Default)]
pub struct Slices {
    pub p50: Samples,
    pub rate: Samples,
}

impl Slices {
    /// Cut a window `length` seconds long into whole slices of `slice`
    /// seconds, from `(completion time since the window opened, latency)`
    /// of every operation. Operations in a trailing partial slice are
    /// dropped, unless the window is shorter than one slice: then it is
    /// the only slice.
    pub fn cut(ops: &[(f64, f64)], slice: f64, length: f64) -> Slices {
        let whole = (length / slice).floor() as usize;
        let (count, secs) = if whole == 0 {
            (1, length)
        } else {
            (whole, slice)
        };
        let mut by_slice = vec![Samples::new(); count];
        for &(at, latency) in ops {
            if let Some(s) = by_slice.get_mut((at / secs).floor() as usize) {
                s.push(latency);
            }
        }
        let mut slices = Slices::default();
        for mut s in by_slice {
            if let (Some(p50), true) = (s.median(), secs > 0.0) {
                slices.p50.push(p50);
                slices.rate.push(s.len() as f64 / secs);
            }
        }
        slices
    }
}

/// Smallest sample count that supports percentile `p`.
pub fn samples_needed(p: f64) -> usize {
    (1..)
        .find(|&n| nearest_rank(n, p).is_some_and(|r| n - r >= MIN_BEYOND))
        .unwrap_or(usize::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_exact_nearest_rank() {
        let mut s = Samples::new();
        for v in (1..=100).rev() {
            s.push(f64::from(v));
        }
        assert_eq!(s.median(), Some(50.0));
        assert_eq!(s.percentile(0.9), Some(90.0));
        // 99th percentile of 100 samples has one sample beyond it.
        assert_eq!(s.percentile(0.99), None);
        assert_eq!(samples_needed(0.9), 100);
        assert_eq!(samples_needed(0.99), 1000);
    }

    #[test]
    fn group_rates_drop_a_trailing_partial_group() {
        let mut rates = group_rates(&[0.5, 0.5, 0.25, 0.25, 1.0], 2);
        assert_eq!(rates.len(), 2);
        assert_eq!(rates.median(), Some(2.0));
        assert_eq!(group_rates(&[0.5], 4).len(), 1);
        assert_eq!(group_rates(&[], 4).len(), 0);
    }

    #[test]
    fn slices_cover_whole_slices_only() {
        let ops = [(0.1, 5.0), (0.2, 7.0), (0.9, 9.0), (1.5, 3.0), (2.7, 1.0)];
        let mut slices = Slices::cut(&ops, 1.0, 2.5);
        // Two whole slices; the operation in the partial third is dropped.
        assert_eq!(slices.rate.len(), 2);
        assert_eq!(slices.p50.min_or_zero(), 3.0);
        assert_eq!(slices.p50.max_or_zero(), 7.0);
        assert_eq!(slices.rate.max_or_zero(), 3.0);
        assert_eq!(Slices::cut(&ops[..2], 1.0, 0.5).rate.median(), Some(4.0));
        assert_eq!(Slices::cut(&[], 1.0, 2.0).rate.len(), 0);
    }

    #[test]
    fn empty_sets_have_no_percentiles() {
        let mut s = Samples::new();
        assert_eq!(s.median(), None);
        assert_eq!(s.median_or_zero(), 0.0);
    }
}

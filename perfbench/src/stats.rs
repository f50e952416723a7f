//! Sample statistics: nearest-rank percentiles, per-class latency
//! ranges, where a percentile lands among the op classes, the host-speed
//! probe and the process's peak resident set.

use std::time::Instant;

/// Nearest-rank percentile of an ascending slice: the sample at rank
/// `ceil(p · n)`. `p` is a fraction (0.5 for the median).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Samples strictly above the nearest-rank percentile `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// Median of an unsorted slice (nearest rank).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// Latency range of one op class.
#[derive(Debug, Clone)]
pub struct ClassRange {
    pub name: String,
    pub count: usize,
    pub min_us: f64,
    pub p50_us: f64,
    pub max_us: f64,
}

/// Per-class ranges of `(class, latency_us)` samples, for every class
/// with at least one sample, in class-id order.
pub fn class_ranges(names: &[String], samples: &[(usize, f64)]) -> Vec<ClassRange> {
    let mut per: Vec<Vec<f64>> = vec![Vec::new(); names.len()];
    for &(c, us) in samples {
        per[c].push(us);
    }
    per.into_iter()
        .enumerate()
        .filter(|(_, v)| !v.is_empty())
        .map(|(c, mut v)| {
            v.sort_by(f64::total_cmp);
            ClassRange {
                name: names[c].clone(),
                count: v.len(),
                min_us: v[0],
                p50_us: percentile(&v, 0.5),
                max_us: v[v.len() - 1],
            }
        })
        .collect()
}

/// Where a percentile lands: the op class whose block of the
/// latency-sorted sample holds its rank, and whether it sits on a
/// boundary that makes it unstable.
#[derive(Debug, Clone, PartialEq)]
pub struct Landing {
    pub class: String,
    /// Distance, as a share of all samples, from the percentile to the
    /// nearer edge of its class's block.
    pub margin: f64,
    /// The neighbouring class across that edge, if any.
    pub neighbour: Option<String>,
    /// Ratio of the larger to the smaller median of the two classes.
    pub ratio: f64,
    /// True when the percentile lies within `MIN_MARGIN` of an edge to a
    /// class whose median differs by more than `MAX_RATIO`: a small
    /// shift in the mix would then move it from one class to another.
    pub on_boundary: bool,
}

/// Share of the samples a percentile must keep from a class edge.
pub const MIN_MARGIN: f64 = 0.02;
/// Medians further apart than this make an edge a boundary.
pub const MAX_RATIO: f64 = 2.0;

/// Lays the classes out in order of their medians, each occupying a
/// block of the sorted sample as wide as its share of the samples, and
/// finds the block that holds percentile `p`.
pub fn landing(classes: &[ClassRange], p: f64) -> Landing {
    let mut order: Vec<&ClassRange> = classes.iter().collect();
    order.sort_by(|a, b| a.p50_us.total_cmp(&b.p50_us));
    let total: usize = order.iter().map(|c| c.count).sum();
    let mut lo = 0.0;
    for (i, c) in order.iter().enumerate() {
        let hi = lo + c.count as f64 / total.max(1) as f64;
        if p <= hi || i + 1 == order.len() {
            let (margin, neighbour) = if i + 1 < order.len() && hi - p <= p - lo {
                (hi - p, Some(order[i + 1]))
            } else if i > 0 {
                (p - lo, Some(order[i - 1]))
            } else {
                (hi - p, order.get(i + 1).copied())
            };
            let ratio = neighbour.map_or(1.0, |n| {
                let (a, b) = (n.p50_us.max(c.p50_us), n.p50_us.min(c.p50_us));
                a / b.max(f64::MIN_POSITIVE)
            });
            return Landing {
                class: c.name.clone(),
                margin,
                neighbour: neighbour.map(|n| n.name.clone()),
                ratio,
                on_boundary: margin < MIN_MARGIN && ratio > MAX_RATIO,
            };
        }
        lo = hi;
    }
    Landing {
        class: String::new(),
        margin: 0.0,
        neighbour: None,
        ratio: 1.0,
        on_boundary: false,
    }
}

/// Iterations of the host-speed kernel (≈0.08 s on a 2-vCPU Xeon VM).
pub const PROBE_ITERS: u64 = 30_000_000;

/// Times a fixed integer kernel. The timing is kept in the run record
/// to show how fast the host was; it is never used to rescale a metric.
pub fn host_probe_s() -> f64 {
    let t = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for i in 0..std::hint::black_box(PROBE_ITERS) {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(i | 1);
        x ^= x >> 29;
    }
    std::hint::black_box(x);
    t.elapsed().as_secs_f64()
}

/// `(steal, total)` CPU ticks since boot from `/proc/stat`: the time
/// the hypervisor gave this VM's CPUs to others, and all CPU time.
pub fn cpu_ticks() -> (u64, u64) {
    let line = std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_default();
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn class(name: &str, count: usize, p50: f64) -> ClassRange {
        ClassRange {
            name: name.into(),
            count,
            min_us: p50,
            p50_us: p50,
            max_us: p50,
        }
    }

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(beyond(100, 0.99), 1);
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(110, 0.9), 11);
    }

    #[test]
    fn six_equal_templates_put_the_median_on_a_boundary() {
        let cheap = ["a", "b", "c"].map(|n| class(n, 100, 20.0));
        let dear = ["d", "e", "f"].map(|n| class(n, 100, 900.0));
        let all: Vec<ClassRange> = cheap.into_iter().chain(dear).collect();
        let l = landing(&all, 0.5);
        assert!(l.on_boundary, "{l:?}");
        assert!(l.margin < 1e-9);
    }

    #[test]
    fn an_odd_class_count_centres_the_median() {
        let all: Vec<ClassRange> = (0..9)
            .map(|i| class(&format!("q{i}"), 100, 10.0 * 3f64.powi(i)))
            .collect();
        let l = landing(&all, 0.5);
        assert_eq!(l.class, "q4");
        assert!(!l.on_boundary, "{l:?}");
        let t = landing(&all, 0.99);
        assert_eq!(t.class, "q8");
        assert!(!t.on_boundary, "{t:?}");
    }

    #[test]
    fn close_medians_are_not_a_boundary() {
        let all = vec![class("x", 50, 100.0), class("y", 50, 150.0)];
        let l = landing(&all, 0.5);
        assert!(l.margin < 1e-9);
        assert!(!l.on_boundary);
    }
}

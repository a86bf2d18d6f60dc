//! The metric tables (`BENCHMARK.json` mirrors them; a unit test holds the
//! two together) and the statistics every reported number goes through.

use std::collections::BTreeMap;

use stardust_bench::{gmean, KERNEL_NAMES};

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One declared metric. `bound` is set for end-to-end metrics only: the
/// share of the parent's median by which the metric may worsen. `exact`
/// metrics are counts or simulated quantities that must repeat bit for bit
/// (`--check-repeat` fails on any difference).
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
    pub exact: bool,
}

fn def(name: &str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name: name.to_string(),
        unit,
        better,
        bound: None,
        exact: false,
    }
}

fn exact(name: &str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        exact: true,
        ..def(name, unit, better)
    }
}

/// End-to-end metrics: measured with tracing off, defined on every
/// workload, never zero.
pub fn end_to_end() -> Vec<MetricDef> {
    let bounded = |name, unit, better, bound| MetricDef {
        bound: Some(bound),
        ..def(name, unit, better)
    };
    vec![
        bounded("ops_per_s", "1/s", Better::Higher, 0.25),
        bounded("op_ms_p50", "ms", Better::Lower, 0.25),
        bounded("geomean_op_ms", "ms", Better::Lower, 0.25),
        bounded("peak_rss_mb", "MB", Better::Lower, 0.15),
        bounded("setup_s", "s", Better::Lower, 0.25),
    ]
}

/// Per-layer metrics, from the traced run. A metric a workload does not
/// exercise is printed as 0 on the result line (the contract wants every
/// declared metric on every run) and as `-` in the table.
pub fn per_layer() -> Vec<MetricDef> {
    use Better::{Higher, Lower};
    let mut v = vec![
        def("kernels.define_us", "us", Lower),
        def("kernels.hints_us", "us", Lower),
        def("kernels.runner_other_us", "us", Lower),
        def("kernels.op_ms_p99", "ms", Lower),
    ];
    for k in KERNEL_NAMES {
        v.push(def(&format!("kernels.{k}.op_ms"), "ms", Lower));
    }
    v.extend([
        def("core.compile_us", "us", Lower),
        def("core.lower_us", "us", Lower),
        exact("core.lower.spatial_loc", "lines", Lower),
        def("core.content_id_us", "us", Lower),
        def("core.image_lookup_us", "us", Lower),
        def("core.image_build_us", "us", Lower),
        exact("core.image_cache.builds", "count", Lower),
        def("core.bind_fresh_us", "us", Lower),
        def("core.checkout_bind_us", "us", Lower),
        def("core.read_output_us", "us", Lower),
        def("spatial.validate_us", "us", Lower),
        def("spatial.print_us", "us", Lower),
        def("spatial.resolve_bytecode_us", "us", Lower),
        def("spatial.verify_us", "us", Lower),
        exact("spatial.bytecode.ops", "count", Lower),
        def("spatial.program_cache.hit_share", "share", Higher),
        def("spatial.run_us", "us", Lower),
        exact("spatial.run.trips", "count", Lower),
        def("spatial.run.ns_per_trip", "ns", Lower),
        exact("spatial.tier.range_simple_loops", "count", Higher),
        exact("spatial.tier.vector_tagged_stages", "count", Higher),
        exact("spatial.tier.elide_licensed_stages", "count", Higher),
        exact("spatial.shard.shardable_stages", "count", Higher),
        def("spatial.pool.created", "count", Lower),
        def("spatial.pool.reused", "count", Higher),
        def("spatial.pool.quarantined", "count", Lower),
        def("capstan.simulate_us", "us", Lower),
        exact("capstan.cycles_geomean", "cycles", Lower),
    ]);
    for k in KERNEL_NAMES {
        v.push(exact(&format!("capstan.cycles.{k}"), "cycles", Lower));
    }
    v.extend([
        def("datasets.generate_ms", "ms", Lower),
        def("tensor.from_coo_ms", "ms", Lower),
        def("serve.register_us", "us", Lower),
        def("serve.submit_us", "us", Lower),
        def("serve.wait_us", "us", Lower),
        def("serve.overhead_us", "us", Lower),
        def("serve.cold_op_ms_p50", "ms", Lower),
        def("serve.latency_ms_p99", "ms", Lower),
        def("serve.batch_mean", "count", Higher),
        def("serve.batch_peak", "count", Higher),
        def("serve.refused", "count", Lower),
        def("serve.retried", "count", Lower),
        def("serve.image_builds", "count", Lower),
        def("serve.working_sets", "count", Lower),
        def("serve.rss_kb_per_dataset", "kB", Lower),
        def("bench.trace_overhead_pct", "%", Lower),
    ]);
    v
}

/// Measured values by metric name. Only declared names may be set, so a
/// typo in a workload fails loudly instead of dropping a number.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<String, f64>,
}

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.values.insert(name.to_string(), value);
    }

    pub fn set_opt(&mut self, name: &str, value: Option<f64>) {
        if let Some(v) = value {
            self.set(name, v);
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Panics when a value was set under a name `defs` does not declare.
    pub fn assert_declared(&self, defs: &[MetricDef]) {
        for name in self.values.keys() {
            assert!(
                defs.iter().any(|d| &d.name == name),
                "metric {name} is measured but not declared"
            );
        }
    }
}

/// Median of `xs` (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least one sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `q`-quantile of `xs` (nearest rank), or `None` when fewer than ten
/// samples lie beyond it: a tail read off a handful of samples is noise,
/// so it is not reported at all.
pub fn tail_percentile(xs: &[f64], q: f64) -> Option<f64> {
    let n = xs.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    if n < rank + 10 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// The mean of `xs` without its lowest and highest twentieth: the
/// benchmark's estimate of a time from the samples of one run. The 2-vCPU
/// box this was sized on is shared, and moves between a fast state and
/// ones 1.1x and 1.2x slower that last from a second to minutes. A
/// quantile reads one state or the other and flips between runs whenever
/// the share of the run spent in the slow states crosses it: over ten runs
/// per workload the lower decile spread (quartiles over median) by 4-15 %
/// in an hour when the slow state was common and the median by 1-3 %,
/// while in an hour when the fast state was common the median moved 20 %
/// and the lower decile 6 %. The mean moves with that share instead of
/// flipping (2-5 % in the first hour), and dropping a twentieth at each end
/// keeps one scheduler stall out of it. Each sample handed to this is one
/// pass, one operation of a row, or the median of one chunk of requests.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn steady(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "trimmed mean of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let kept = &v[v.len() / 20..v.len() - v.len() / 20];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Each non-empty group's [`steady`] time.
pub fn steady_by_group<'a>(groups: impl IntoIterator<Item = &'a Vec<f64>>) -> Vec<f64> {
    (groups.into_iter().filter(|g| !g.is_empty()))
        .map(|g| steady(g))
        .collect()
}

/// Geometric mean over groups of each group's [`steady`] time, so a 24 ms
/// row cannot hide a 0.6 ms one.
pub fn geomean_by_group<'a>(groups: impl IntoIterator<Item = &'a Vec<f64>>) -> f64 {
    gmean(steady_by_group(groups))
}

#[cfg(test)]
mod tests {
    use super::*;
    use stardust_bench::json;

    /// The contract's charset for metric and workload names.
    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        let first_ok = chars.next().is_some_and(|c| c.is_ascii_alphanumeric());
        first_ok
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// The contract's charset for units.
    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99 of 1000 is rank 990: exactly ten samples beyond.
        assert_eq!(tail_percentile(&xs, 0.99), Some(990.0));
        assert_eq!(tail_percentile(&xs[..999], 0.99), None);
        assert_eq!(tail_percentile(&xs[..100], 0.90), Some(90.0));
        assert_eq!(tail_percentile(&xs[..99], 0.90), None);
        assert_eq!(tail_percentile(&[], 0.5), None);
    }

    #[test]
    fn steady_is_the_mean_without_either_twentieth() {
        // 40 samples: the two lowest and the two highest are left out.
        let mut xs: Vec<f64> = (1..=36).map(|_| 10.0).collect();
        xs.extend([0.0, 1.0, 500.0, 900.0]);
        assert_eq!(steady(&xs), 10.0);
        // Fewer than 20 samples: the plain mean.
        assert_eq!(steady(&[7.0, 5.0, 6.0]), 6.0);
        // A third of the run 1.2x slower moves the estimate by a third of
        // 0.2; it does not flip between 1.0 and 1.2.
        let mixed: Vec<f64> = (0..90)
            .map(|i| if i % 3 == 0 { 1.2 } else { 1.0 })
            .collect();
        assert!((steady(&mixed) - (1.0 + 0.2 / 3.0)).abs() < 0.01);
    }

    #[test]
    fn geomean_weighs_rows_equally() {
        let slow = vec![24.0, 25.0, 26.0];
        let fast = vec![0.6, 0.7, 0.8];
        let g = geomean_by_group([&slow, &fast, &Vec::new()]);
        assert!((g - (25.0f64 * 0.7).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn names_and_units_fit_the_contract_charset() {
        let all: Vec<MetricDef> = end_to_end().into_iter().chain(per_layer()).collect();
        for d in &all {
            assert!(valid_name(&d.name), "bad metric name {:?}", d.name);
            assert!(valid_unit(d.unit), "bad unit {:?} on {}", d.unit, d.name);
        }
        let mut names: Vec<&str> = all.iter().map(|d| d.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "a metric name is used twice");
        assert!(per_layer().len() <= 128 && end_to_end().len() <= 16);
        assert!(!valid_name(".leading") && !valid_name("sp ace") && !valid_name(""));
        assert!(!valid_unit("µs") && !valid_unit(""));
    }

    #[test]
    fn undeclared_metric_is_rejected() {
        let mut m = Metrics::default();
        m.set("ops_per_s", 1.0);
        m.assert_declared(&end_to_end());
        m.set("ops_per_sec", 1.0);
        assert!(std::panic::catch_unwind(|| m.assert_declared(&end_to_end())).is_err());
    }

    /// `BENCHMARK.json` is written by hand from the tables above; this
    /// holds the two together.
    #[test]
    fn benchmark_json_mirrors_the_tables() {
        let doc = json::parse(include_str!("../../../../../BENCHMARK.json")).expect("parses");
        let listed = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            let json::Value::Arr(items) = doc.get(key).expect("key present") else {
                panic!("{key} is not an array");
            };
            let text = |v: &json::Value, k: &str| match v.get(k) {
                Some(json::Value::Str(s)) => s.clone(),
                other => panic!("{key}: {k} is {other:?}"),
            };
            items
                .iter()
                .map(|m| {
                    (
                        text(m, "name"),
                        text(m, "unit"),
                        text(m, "better"),
                        m.get("bound").and_then(json::Value::as_num),
                    )
                })
                .collect()
        };
        let table = |defs: Vec<MetricDef>| -> Vec<(String, String, String, Option<f64>)> {
            defs.into_iter()
                .map(|d| (d.name, d.unit.into(), d.better.as_str().into(), d.bound))
                .collect()
        };
        assert_eq!(listed("end_to_end"), table(end_to_end()));
        assert_eq!(listed("per_layer"), table(per_layer()));
        let workloads: Vec<String> = listed_names(&doc, "workloads");
        assert_eq!(workloads, crate::WORKLOADS.map(str::to_string));
    }

    fn listed_names(doc: &json::Value, key: &str) -> Vec<String> {
        doc.resolve(&format!("{key}[*].name"))
            .expect("names resolve")
            .into_iter()
            .map(|v| match v {
                json::Value::Str(s) => s.clone(),
                other => panic!("name is {other:?}"),
            })
            .collect()
    }
}

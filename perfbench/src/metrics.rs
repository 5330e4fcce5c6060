//! Every metric the benchmark reports: name, unit, the layer it measures,
//! and which way is better. `BENCHMARK.json` lists the same names and
//! units (a test keeps the two in step).

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// Stable name, as printed.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// The layer (module) the metric measures.
    pub layer: &'static str,
    /// Whether a higher value is better.
    pub higher_is_better: bool,
}

const fn m(name: &'static str, unit: &'static str, layer: &'static str, higher: bool) -> Metric {
    Metric {
        name,
        unit,
        layer,
        higher_is_better: higher,
    }
}

/// What a user of the server sees; reported by the untraced run.
pub const END_TO_END: &[Metric] = &[
    m("throughput_vps", "1/s", "end-to-end", true),
    m("latency_p50_us", "us", "end-to-end", false),
    m("latency_p90_us", "us", "end-to-end", false),
    m("peak_rss_mb", "MB", "end-to-end", false),
    m("setup_s", "s", "end-to-end", false),
];

/// Single layers, timed from outside through their public functions;
/// reported by the traced run.
pub const PER_LAYER: &[Metric] = &[
    m("kernel.ns_per_vec", "ns", "kernel", false),
    m("kernel.macs_per_vec", "MAC-computed", "kernel", false),
    m("kernel.bytes_per_vec", "B-computed", "kernel", false),
    m("engine.ns_per_vec", "ns", "smm-runtime", false),
    m("dispatch.ns_per_request", "ns", "smm-runtime", false),
    m("session.build_ms", "ms", "smm-runtime", false),
    m("plan.us", "us", "smm-runtime", false),
    m("compile_ms", "ms", "smm-runtime", false),
    m("registry.hit_us", "us", "smm-runtime", false),
    m("registry.promote_us", "us", "smm-runtime", false),
    m("process.threads", "count", "smm-runtime", false),
    m("fleet.promotions", "count", "smm-runtime", false),
    m("fleet.demotions", "count", "smm-runtime", false),
    m("fleet.hot_hit_share", "ratio", "smm-runtime", true),
    m("cache.hits", "count", "smm-runtime", true),
    m("cache.misses", "count", "smm-runtime", false),
    m("codec.ns_per_request", "ns", "smm-server", false),
    m("wire.bytes_per_request", "B-computed", "smm-server", false),
    m("transport.ns_per_request", "ns", "smm-server", false),
    m("admission.busy", "count", "smm-server", false),
    m("server.errors", "count", "smm-server", false),
    m("client.rtt_p99_us", "us", "smm-server", false),
    m("client.failed_share", "ratio", "smm-server", false),
    m("store.put_ms", "ms", "smm-store", false),
    m("store.get_ms", "ms", "smm-store", false),
    m("trace.overhead_us", "us", "benchmark", false),
];

/// Looks a metric up by name in both tables.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// Measured values for one run, in table order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Values(pub Vec<(&'static Metric, f64)>);

impl Values {
    /// Records `value` for the metric called `name`. Panics on a name that
    /// is not in the tables: that is a bug in this benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        let metric = find(name).unwrap_or_else(|| panic!("unknown metric {name}"));
        match self.0.iter_mut().find(|(m, _)| m.name == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((metric, value)),
        }
    }

    /// The value recorded for `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(m, _)| m.name == name).map(|(_, v)| *v)
    }

    /// The values of exactly the metrics in `table`, in table order;
    /// `Err` names the first one missing.
    pub fn select(&self, table: &'static [Metric]) -> Result<Values, String> {
        table
            .iter()
            .map(|metric| {
                self.get(metric.name)
                    .map(|v| (metric, v))
                    .ok_or_else(|| format!("metric {} was not measured", metric.name))
            })
            .collect::<Result<Vec<_>, _>>()
            .map(Values)
    }

    /// `{"name": {"value": v, "unit": u}, ...}`.
    pub fn to_json(&self) -> String {
        crate::json::object(self.0.iter().map(|(m, v)| {
            (
                m.name,
                crate::json::object([
                    ("value", crate::json::number(*v)),
                    ("unit", crate::json::quote(m.unit)),
                ]),
            )
        }))
    }
}

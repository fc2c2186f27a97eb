//! Adapters from the workspace's counter structs to registry samples.

use ltnc_metrics::{
    HopCounters, HopLatency, ReactorSnapshot, ServeCounters, StripeCounters, WireCounters,
};

use crate::registry::{HistogramSample, Sample};

/// Samples every field of a [`WireCounters`] (family `wire`).
#[must_use]
pub fn wire_samples(c: &WireCounters) -> Vec<Sample> {
    vec![
        Sample::plain("datagrams_sent", c.datagrams_sent),
        Sample::plain("datagrams_received", c.datagrams_received),
        Sample::plain("bytes_sent", c.bytes_sent),
        Sample::plain("bytes_received", c.bytes_received),
        Sample::plain("payload_bytes_sent", c.payload_bytes_sent),
        Sample::plain("transfers_offered", c.transfers_offered),
        Sample::plain("transfers_aborted", c.transfers_aborted),
        Sample::plain("transfers_delivered", c.transfers_delivered),
        Sample::plain("useful_deliveries", c.useful_deliveries),
        Sample::plain("decode_errors", c.decode_errors),
        Sample::plain("session_mismatches", c.session_mismatches),
        Sample::plain("offer_timeouts", c.offer_timeouts),
        Sample::plain("budget_raises", c.budget_raises),
        Sample::plain("budget_cuts", c.budget_cuts),
    ]
}

/// Samples every field of a [`ServeCounters`] (family `serve`).
#[must_use]
pub fn serve_samples(c: &ServeCounters) -> Vec<Sample> {
    vec![
        Sample::plain("sessions_accepted", c.sessions_accepted),
        Sample::plain("sessions_rejected", c.sessions_rejected),
        Sample::plain("sessions_completed", c.sessions_completed),
        Sample::plain("bytes_out", c.bytes_out),
        Sample::plain("bytes_in", c.bytes_in),
        Sample::plain("transfers_offered", c.transfers_offered),
        Sample::plain("transfers_aborted", c.transfers_aborted),
        Sample::plain("transfers_delivered", c.transfers_delivered),
        Sample::plain("cache_hits", c.cache_hits),
        Sample::plain("cache_misses", c.cache_misses),
        Sample::plain("cache_evictions", c.cache_evictions),
    ]
}

/// Samples a [`StripeCounters`]: the scalar counters plus every replica
/// slot's fields under a `replica="<index>"` label (family `stripe`).
#[must_use]
pub fn stripe_samples(c: &StripeCounters) -> Vec<Sample> {
    let mut samples = vec![
        Sample::plain("failovers", c.failovers),
        Sample::plain("generations_releases", c.generations_releases),
    ];
    for (index, replica) in c.replicas.iter().enumerate() {
        let mut push = |name, value| {
            samples.push(Sample { name, labels: vec![("replica", index.to_string())], value });
        };
        push("offers_seen", replica.offers_seen);
        push("aborted", replica.aborted);
        push("delivered", replica.delivered);
        push("useful", replica.useful);
        push("duplicates", replica.duplicates);
        push("generations_completed", replica.generations_completed);
        push("bytes_in", replica.bytes_in);
        push("bytes_out", replica.bytes_out);
        push("failed", u64::from(replica.failed));
    }
    samples
}

/// Samples a [`HopCounters`]: every populated bucket's fields under a
/// `hop="<distance>"` label (family `hop`).
#[must_use]
pub fn hop_samples(c: &HopCounters) -> Vec<Sample> {
    let mut samples = Vec::new();
    for (distance, stats) in c.iter() {
        let mut push = |name, value| {
            samples.push(Sample { name, labels: vec![("hop", distance.to_string())], value });
        };
        push("nodes", stats.nodes);
        push("completed", stats.completed);
        push("recoding_ops", stats.recoding_ops);
        push("decoding_ops", stats.decoding_ops);
        push("useful_deliveries", stats.useful_deliveries);
        push("faults_injected", stats.faults_injected);
    }
    samples
}

/// Samples a [`HopLatency`] recorder as one `delivery_latency_us`
/// histogram per populated hop depth under a `hops="<links>"` label,
/// plus the merged distribution with no label (family decided by the
/// registration, typically `wire`).
#[must_use]
pub fn hop_latency_histograms(latency: &HopLatency) -> Vec<HistogramSample> {
    let mut samples = Vec::new();
    let total = latency.total();
    if !total.is_empty() {
        samples.push(HistogramSample::plain("delivery_latency_us", total));
    }
    for (hops, snapshot) in latency.snapshot() {
        samples.push(HistogramSample {
            name: "delivery_latency_us",
            labels: vec![("hops", hops.to_string())],
            snapshot,
        });
    }
    samples
}

/// Samples the scalar fields of a [`ReactorSnapshot`] (family
/// `reactor`; the per-shard label is the registration's job).
#[must_use]
pub fn reactor_samples(s: &ReactorSnapshot) -> Vec<Sample> {
    vec![
        Sample::plain("turns", s.turns),
        Sample::plain("polls", s.polls),
        Sample::plain("poll_events", s.poll_events),
        Sample::plain("wakeups", s.wakeups),
        Sample::plain("wakeup_rounds", s.wakeup_rounds),
        Sample::plain("control_messages", s.control_messages),
        Sample::plain("control_high_watermark", s.control_high_watermark),
        Sample::plain("readable_dispatches", s.readable_dispatches),
        Sample::plain("timer_dispatches", s.timer_dispatches),
        Sample::plain("control_dispatches", s.control_dispatches),
        Sample::plain("timers_fired", s.timers_fired),
        Sample::plain("wheel_depth", s.wheel_depth),
        Sample::plain("nodes", s.nodes),
    ]
}

/// Samples a [`ReactorSnapshot`]'s three scheduler histograms —
/// poll-wait, dispatch latency and tick lag (family `reactor`). Empty
/// histograms are omitted, matching [`hop_latency_histograms`].
#[must_use]
pub fn reactor_histograms(s: &ReactorSnapshot) -> Vec<HistogramSample> {
    let mut samples = Vec::new();
    if !s.poll_wait_us.is_empty() {
        samples.push(HistogramSample::plain("poll_wait_us", s.poll_wait_us.clone()));
    }
    if !s.dispatch_ns.is_empty() {
        samples.push(HistogramSample::plain("dispatch_ns", s.dispatch_ns.clone()));
    }
    if !s.tick_lag_us.is_empty() {
        samples.push(HistogramSample::plain("tick_lag_us", s.tick_lag_us.clone()));
    }
    samples
}

#[cfg(test)]
mod tests {
    use ltnc_metrics::{HopStats, ReplicaCounters};

    use super::*;

    #[test]
    fn wire_samples_cover_every_field() {
        let c = WireCounters { datagrams_sent: 3, budget_cuts: 2, ..WireCounters::new() };
        let samples = wire_samples(&c);
        assert_eq!(samples.len(), 14);
        assert!(samples.iter().any(|s| s.name == "datagrams_sent" && s.value == 3));
        assert!(samples.iter().any(|s| s.name == "budget_cuts" && s.value == 2));
    }

    #[test]
    fn serve_samples_cover_every_field() {
        let c = ServeCounters { cache_hits: 9, ..ServeCounters::new() };
        let samples = serve_samples(&c);
        assert_eq!(samples.len(), 11);
        assert!(samples.iter().any(|s| s.name == "cache_hits" && s.value == 9));
    }

    #[test]
    fn stripe_samples_label_replicas() {
        let mut c = StripeCounters::new(2);
        c.replicas[1] = ReplicaCounters { delivered: 4, failed: true, ..Default::default() };
        c.failovers = 1;
        let samples = stripe_samples(&c);
        assert!(samples.iter().any(|s| s.name == "failovers" && s.value == 1));
        let delivered: Vec<&Sample> = samples.iter().filter(|s| s.name == "delivered").collect();
        assert_eq!(delivered.len(), 2);
        assert_eq!(delivered[1].labels, vec![("replica", "1".to_string())]);
        assert_eq!(delivered[1].value, 4);
        assert!(samples.iter().any(|s| s.name == "failed"
            && s.value == 1
            && s.labels == vec![("replica", "1".to_string())]));
    }

    #[test]
    fn hop_latency_histograms_label_depths_and_merge_total() {
        let latency = HopLatency::new();
        assert!(hop_latency_histograms(&latency).is_empty());
        latency.record(1, 50);
        latency.record(3, 700);
        let samples = hop_latency_histograms(&latency);
        assert_eq!(samples.len(), 3);
        assert!(samples[0].labels.is_empty());
        assert_eq!(samples[0].snapshot.count(), 2);
        assert!(samples
            .iter()
            .any(|s| s.labels == vec![("hops", "1".to_string())] && s.snapshot.count() == 1));
        assert!(samples
            .iter()
            .any(|s| s.labels == vec![("hops", "3".to_string())] && s.snapshot.max == 700));
    }

    #[test]
    fn reactor_samples_cover_the_scalar_fields() {
        let mut s = ReactorSnapshot::new();
        s.turns = 4;
        s.wheel_depth = 11;
        s.nodes = 250;
        let samples = reactor_samples(&s);
        assert_eq!(samples.len(), 13);
        assert!(samples.iter().any(|x| x.name == "turns" && x.value == 4));
        assert!(samples.iter().any(|x| x.name == "wheel_depth" && x.value == 11));
        assert!(samples.iter().any(|x| x.name == "nodes" && x.value == 250));
    }

    #[test]
    fn reactor_histograms_omit_empty_families() {
        let counters = ltnc_metrics::ReactorCounters::new();
        assert!(reactor_histograms(&counters.snapshot()).is_empty());
        counters.record_poll(120, 1);
        counters.record_timer_lag(40);
        let samples = reactor_histograms(&counters.snapshot());
        let names: Vec<&str> = samples.iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["poll_wait_us", "tick_lag_us"], "dispatch_ns stays empty");
        assert_eq!(samples[0].snapshot.count(), 1);
    }

    #[test]
    fn hop_samples_label_distances() {
        let mut c = HopCounters::new();
        c.record(2, &HopStats { nodes: 3, useful_deliveries: 8, ..HopStats::default() });
        let samples = hop_samples(&c);
        assert!(samples.iter().any(|s| s.name == "useful_deliveries"
            && s.value == 8
            && s.labels == vec![("hop", "2".to_string())]));
    }
}

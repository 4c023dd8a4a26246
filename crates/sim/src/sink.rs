//! First-class shard consumption: the [`ShardSink`] trait the pipeline
//! feeds.
//!
//! Batch runs and long-running consumers (the `botmeterd` daemon engine
//! ingests through the same interface) share one contract: shards arrive in
//! stream order, each shard is post cache-filter, quantisation and faults,
//! and the concatenation of all shards is exactly
//! [`ScenarioOutcome::observed`](crate::ScenarioOutcome::observed).

use botmeter_dns::ObservedLookup;

/// A consumer of released observed-lookup shards, fed in stream order by
/// [`ScenarioSpec::run_streaming_into`](crate::ScenarioSpec::run_streaming_into).
///
/// Implementations may hold state across calls (matchers, charts,
/// counters); the pipeline calls them from the consumer thread only, so no
/// synchronisation is needed.
pub trait ShardSink {
    /// Consumes one shard of released observed records. Shards arrive in
    /// stream order and are never empty.
    fn on_shard(&mut self, shard: &[ObservedLookup]);
}

impl<S: ShardSink + ?Sized> ShardSink for &mut S {
    fn on_shard(&mut self, shard: &[ObservedLookup]) {
        (**self).on_shard(shard);
    }
}

/// Adapts a closure into a [`ShardSink`].
#[derive(Debug)]
pub struct FnSink<F>(pub F);

impl<F: FnMut(&[ObservedLookup])> ShardSink for FnSink<F> {
    fn on_shard(&mut self, shard: &[ObservedLookup]) {
        (self.0)(shard);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use botmeter_dns::{ServerId, SimInstant};

    #[test]
    fn fn_sink_forwards_to_the_closure() {
        let mut seen = 0usize;
        {
            let mut sink = FnSink(|shard: &[ObservedLookup]| seen += shard.len());
            let lookup = ObservedLookup::new(
                SimInstant::ZERO,
                ServerId(1),
                "nx.example".parse().expect("valid name"),
            );
            sink.on_shard(&[lookup.clone(), lookup]);
            // &mut S forwards too.
            let via_ref: &mut dyn ShardSink = &mut sink;
            via_ref.on_shard(&[]);
        }
        assert_eq!(seen, 2);
    }
}

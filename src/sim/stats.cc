#include "sim/stats.hh"

#include "obs/registry.hh"

namespace eip::sim {

void
registerCacheStats(obs::CounterRegistry &reg, const std::string &prefix,
                   const CacheStats &stats)
{
    const CacheStats *s = &stats;
    auto name = [&prefix](const char *field) { return prefix + "." + field; };

    reg.counter(name("demand_accesses"), &s->demandAccesses);
    reg.counter(name("demand_hits"), &s->demandHits);
    reg.counter(name("demand_misses"), &s->demandMisses);
    reg.counter(name("mshr_merges"), &s->mshrMerges);
    reg.counter(name("prefetch_requested"), &s->prefetchRequested);
    reg.counter(name("prefetch_dropped_full"), &s->prefetchDroppedFull);
    reg.counter(name("prefetch_filtered"), &s->prefetchFiltered);
    reg.counter(name("prefetch_drop_dup_queued"),
                &s->prefetchDropDupQueued);
    reg.counter(name("prefetch_drop_dup_cached"),
                &s->prefetchDropDupCached);
    reg.counter(name("prefetch_drop_dup_inflight"),
                &s->prefetchDropDupInflight);
    reg.counter(name("prefetch_mshr_deferrals"),
                &s->prefetchMshrDeferrals);
    reg.counter(name("prefetch_issued"), &s->prefetchIssued);
    reg.counter(name("useful_prefetches"), &s->usefulPrefetches);
    reg.counter(name("late_prefetches"), &s->latePrefetches);
    reg.counter(name("wrong_prefetches"), &s->wrongPrefetches);
    reg.counter(name("fills"), &s->fills);
    reg.counter(name("evictions"), &s->evictions);
    reg.counter(name("write_accesses"), &s->writeAccesses);
    reg.counter(name("wrong_path_accesses"), &s->wrongPathAccesses);
    reg.counter(name("wrong_path_misses"), &s->wrongPathMisses);
    reg.counter(name("miss_latency_sum"), &s->missLatencySum);
    reg.counter(name("misses_short"), [s]() { return s->missesShort(); });
    reg.counter(name("misses_medium"), [s]() { return s->missesMedium(); });
    reg.counter(name("misses_long"), [s]() { return s->missesLong(); });

    reg.gauge(name("miss_ratio"), [s]() { return s->missRatio(); });
    reg.gauge(name("coverage"), [s]() { return s->coverage(); });
    reg.gauge(name("accuracy"), [s]() { return s->accuracy(); });

    reg.histogram(name("miss_latency"), &s->missLatency);
}

} // namespace eip::sim

/**
 * @file
 * The in-process backend of the compile service behind `memoria serve`
 * (and of every shard worker behind `memoria serve --workers N`).
 *
 * A `Server` is a serve front (serve/front.hh: parsing, inline
 * introspection, admission, drain) over a thread pool. Each admitted
 * request runs on a pool thread inside the full isolation boundary
 * (`harness::runIsolated`): fault-attribution context, per-request
 * budget deadline, degradation ladder, crash containment. Around it:
 *
 *  - per-stage circuit breakers (serve/breaker.hh) observe panic/
 *    timeout outcomes. An open `load` breaker rejects requests with an
 *    `error`; open `optimize`/`simulate` breakers degrade service
 *    (identity rung / no simulation) instead of failing it;
 *  - under soft RSS pressure the memory governor (serve/governor.hh)
 *    floors the ladder at a cheaper rung;
 *  - a content-addressed result cache with single-flight dedup
 *    (serve/cache.hh) answers repeats, and is snapshotted to disk
 *    (serve/snapshot.hh) for warm restarts;
 *  - panic and timeout outcomes are minimized into incident bundles
 *    (harness/incident.hh) and the bundle path rides in the response.
 */

#ifndef MEMORIA_SERVE_SERVER_HH
#define MEMORIA_SERVE_SERVER_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "harness/incident.hh"
#include "harness/batch.hh"
#include "serve/breaker.hh"
#include "serve/cache.hh"
#include "serve/front.hh"
#include "serve/governor.hh"

namespace memoria {
namespace serve {

/** Service configuration. */
struct ServeOptions
{
    /** Worker threads executing requests. */
    int jobs = 2;

    /** Admission-queue bound; beyond it requests are shed. */
    size_t queueCapacity = 16;

    /** Suggested client backoff in `overloaded` responses. */
    int64_t retryAfterMs = 50;

    /** Per-client queued + in-flight cap (0 = off); excess sheds
     *  `client-capped` so one flooding client degrades only itself. */
    size_t perClientCap = 0;

    /** CoDel-style aging target for the oldest queued request, ms
     *  (0 = off): standing queues drop stale work, not new arrivals. */
    int64_t ageTargetMs = 0;

    /** Memory-governor watermarks (bytes, 0 = off): soft shrinks the
     *  result cache and floors the ladder at a cheaper rung; hard
     *  asks the supervisor for a graceful recycle. */
    uint64_t rssSoftBytes = 0;
    uint64_t rssHardBytes = 0;
    int64_t rssSampleMs = 200;

    /** Default per-request budget (requests may lower, never raise
     *  past maxDeadlineMs). */
    harness::Budget budget{2000, 1u << 20, 50u << 20};

    /** Clamp for client-supplied deadline_ms. */
    int64_t maxDeadlineMs = 30000;

    /** After drain starts, requests still unanswered past this
     *  deadline are answered `cancelled` instead of awaited. */
    int64_t drainDeadlineMs = 5000;

    /** Request-line size bound. */
    size_t maxRequestBytes = 4u << 20;

    /** Honor the per-request "fault" injection hook (tests/soak). */
    bool allowFaultRequests = false;

    /** Minimize failures into incident bundles. */
    bool writeIncidents = true;
    incident::IncidentPolicy incidents;

    /**
     * Append JSONL metrics snapshots (support/export.hh) to this path.
     * With metricsIntervalMs > 0 a background thread writes one every
     * interval; independent of the interval, `drain()` writes a final
     * snapshot — so a SIGTERM'd serve never loses its stats.
     */
    std::string metricsPath;
    int64_t metricsIntervalMs = 0;

    BreakerOptions breaker;
    ModelParams params;

    /** Cache geometries the simulate stage sweeps — all fed from one
     *  interpreter pass per program version (cachesim/sweep.hh).
     *  Empty means the batch driver's default (i860). */
    std::vector<CacheConfig> cacheConfigs;

    /** Result-cache bounds (resultCache.maxEntries == 0 disables the
     *  cache and single-flight dedup entirely). */
    CacheOptions resultCache;

    /**
     * Durable cache snapshots (serve/snapshot.hh): written here
     * periodically and on drain, loaded (after validation) at start.
     * Empty disables durability; the in-memory cache still works.
     */
    std::string cacheSnapshotPath;
    int64_t cacheSnapshotIntervalMs = 0;  ///< 0 = only on drain

    /** Shard index stamped into snapshot headers (-1 single-process). */
    int shard = -1;
};

/** The single-process service. Construct, `start()`, feed lines,
 *  `drain()`. */
class Server final : public Front
{
  public:
    explicit Server(ServeOptions opts);
    ~Server() override;

    CircuitBreaker &breaker(Stage s) { return *breakers_[int(s)]; }

    /** Result-cache counters (zeroed stats when the cache is off). */
    ResultCacheStats cacheStats() const;

  private:
    /** A processed request's terminal response. */
    struct Reply
    {
        Outcome outcome = Outcome::Completed;
        std::string line;
    };

    void startBackend() override;
    void stopBackend() override;
    /** p90 of the live per-kind service-time histogram (µs; 0 = no
     *  signal yet) — the admission controller's feasibility input. */
    int64_t estimatedServiceUs(RequestKind kind) const override;
    std::pair<std::string, json::Value> stateBlock() const override;
    void healthFields(json::Value &health,
                      json::Value &admission) const override;

    void workerLoop();
    Reply process(uint64_t seq, const Pending &job,
                  std::unique_lock<std::mutex> &start);
    Reply cachedReply(const Pending &job, const std::string &body,
                      double startUs, double queueUs,
                      const std::string &traceId, bool dedupFollower);
    void writeCacheSnapshotNow();
    void loadCacheSnapshot();

    ServeOptions opts_;
    std::unique_ptr<CircuitBreaker> breakers_[kNumStages];

    /** Serializes fault-armed execution and incident reduction (both
     *  manipulate the process-global fault plan). */
    std::mutex faultMutex_;

    /** Orders pool threads from pop to cache-flight start. */
    std::mutex startMutex_;

    /** Content-addressed result cache (null when disabled). */
    std::unique_ptr<ResultCache> cache_;
    std::string configDigest_;

    /** Periodic cache-snapshot writer (opts_.cacheSnapshotPath). */
    Periodic snapshotTicker_;
    /** Set on ENOSPC: durability is off, serving continues. */
    std::atomic<bool> snapshotDisabled_{false};

    /** RSS watermarks (null unless configured) + sampling thread. */
    std::unique_ptr<MemoryGovernor> governor_;
    Periodic governorTicker_;

    /** The pool; its threads exit once poolStop_ is set (under mu_). */
    std::vector<std::thread> workers_;
    bool poolStop_ = false;
};

} // namespace serve
} // namespace memoria

#endif // MEMORIA_SERVE_SERVER_HH

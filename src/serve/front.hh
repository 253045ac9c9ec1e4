/**
 * @file
 * The one serve front: everything `memoria serve` does for a request
 * line before and after the work itself runs.
 *
 * Transports (serve/listener.hh — stdin/stdout, TCP, Unix socket, a
 * shard worker's pipe) feed the front request lines together with a
 * `Respond` callback, and the front guarantees **exactly one terminal
 * response per request**, whatever happens:
 *
 *  - `health`/`stats`/`metrics` requests are answered inline,
 *    bypassing the queue, so introspection works even when the service
 *    is saturated;
 *  - work requests are resolved to a fair-share client key, a priority
 *    class and a deadline, then pass the shard's admission controller
 *    (serve/admission.hh), which sheds on arrival with an honest
 *    `retry_after_ms` instead of letting latency grow without bound;
 *  - admitted requests wait in one pending map until `finishLocked`
 *    resolves them — the single place that counts the outcome,
 *    samples `serve.latency_us.<kind>`, journals `done`, and responds;
 *  - entries the controller drops at pop time (deadline passed in the
 *    queue, CoDel-aged) are answered without ever running;
 *  - `drain()` stops admitting, waits up to `drainDeadlineMs` for the
 *    pending map to empty, answers what is left `cancelled`, stops the
 *    backend, audits the journal, writes a final metrics snapshot and
 *    flushes the trace sink.
 *
 * The work itself runs in a backend, the protected virtual interface
 * below. It has two implementations: `Server` (serve/server.hh), an
 * in-process thread pool, and `Supervisor` (serve/supervisor.hh),
 * forked shard-worker processes. The front owns one admission
 * controller per shard; a backend pops runnable work with `popLocked`
 * and resolves it with `finishLocked`, both under the front's `mu_`.
 *
 * The graceful-shutdown story: transports watch `signals::
 * drainRequested()` (SIGTERM/SIGINT), stop reading, and call `drain()`
 * — so a TERM'd server exits 0 with every accepted request answered.
 */

#ifndef MEMORIA_SERVE_FRONT_HH
#define MEMORIA_SERVE_FRONT_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "serve/admission.hh"
#include "serve/journal.hh"
#include "serve/protocol.hh"
#include "support/json.hh"

namespace memoria {
namespace serve {

struct ServeOptions;  // serve/server.hh

/** Steady-clock milliseconds and microseconds (latency, deadlines). */
int64_t nowMs();
double nowUs();

/** Wall-clock milliseconds (snapshot and metrics timestamps). */
int64_t wallMs();

/** The obs registry dump as one JSON object with no trailing newline,
 *  spliceable into a response line. */
std::string registryDumpJson();

/** Terminal-response tallies (health responses and tests). */
struct RequestCounters
{
    uint64_t received = 0;   ///< lines that parsed as requests
    uint64_t accepted = 0;   ///< admitted to the queue
    uint64_t completed = 0;  ///< answered with `result`
    uint64_t shed = 0;       ///< answered with `overloaded`
    uint64_t cancelled = 0;  ///< answered with `cancelled`
    uint64_t errors = 0;     ///< answered with `error`
};

/** Runs a callback every `intervalMs` on its own thread until
 *  `stop()` (idempotent; the destructor stops too). */
class Periodic
{
  public:
    Periodic() = default;
    ~Periodic() { stop(); }
    Periodic(const Periodic &) = delete;
    Periodic &operator=(const Periodic &) = delete;

    void start(int64_t intervalMs, std::function<void()> fn);
    void stop();

  private:
    std::thread thread_;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool stop_ = false;
};

class Front
{
  public:
    /** Delivers one response line (no trailing newline) to the
     *  request's client. Must be thread-safe; backends call it. */
    using Respond = std::function<void(const std::string &)>;

    virtual ~Front();

    Front(const Front &) = delete;
    Front &operator=(const Front &) = delete;

    /** Open the metrics export and bring the backend up. Idempotent. */
    void start();

    /**
     * Handle one request line. Blank lines are ignored; everything
     * else gets exactly one terminal response through `respond`,
     * either inline (parse errors, introspection, shed, draining) or
     * later from the backend. `clientKey` identifies the transport
     * connection for fair-share queuing when the request carries no
     * `client_id` of its own ("" = anonymous).
     */
    void handleLine(const std::string &line, const Respond &respond,
                    const std::string &clientKey = "");

    /** Stop admitting, finish or cancel every pending request, stop
     *  the backend, flush observability sinks. Idempotent; a racing
     *  second call blocks until the first is done. */
    void drain();

    bool draining() const { return draining_.load(); }

    // --- Introspection (inline responses and tests) ---

    RequestCounters requestCounters() const;

    /** What counts against the queue bound: queued requests, plus the
     *  in-flight ones when the backend bounds both (sharded mode). */
    size_t queueDepth() const;

    std::string healthLine(const std::string &id) const;
    std::string statsLine(const std::string &id) const;
    /** Prometheus exposition + registry + queue and backend state. */
    std::string metricsLine(const std::string &id) const;

  protected:
    /** One admitted work request awaiting its terminal response. */
    struct Pending
    {
        Request req;
        Respond respond;
        int shard = 0;
        /** Fair-share identity + class, resolved at admission (a
         *  crash-retry re-enqueues under the same key). */
        std::string client;
        Priority priority = Priority::Interactive;
        int64_t admitDeadlineUs = 0;  ///< steady-clock µs, 0 = none
        double enqueuedUs = 0.0;
        bool replayOk = false;   ///< eligible for one crash-retry
        bool inflight = false;   ///< popped (vs still queued)

        // Sharded-backend bookkeeping.
        bool retried = false;        ///< crash-retry already spent
        double forwardedAtUs = 0.0;  ///< service-time sample start
        int64_t deadlineAtMs = 0;    ///< hang cutoff once forwarded
    };

    /** A response to deliver once `mu_` is released. */
    struct Outgoing
    {
        Respond respond;
        std::string line;
    };

    /** Which request counter a terminal response bumps. */
    enum class Outcome
    {
        Completed,
        Shed,
        Cancelled,
        Error,
    };

    /**
     * `shards` admission controllers, each bounded by `shardCapacity`
     * — queued only, or queued + in-flight when `countInflight` — with
     * the per-client cap, retry hint and aging target of `opts`.
     */
    Front(const ServeOptions &opts, int shards, size_t shardCapacity,
          bool countInflight);

    /**
     * Enable the write-ahead journal. Replays the previous
     * incarnation's admitted-but-unanswered entries first (open()
     * truncates), so `health` can report them in a `recovery` block.
     */
    void openJournal(const std::string &path, const JournalOptions &jopts);

    // --- The backend interface ---

    /** Spawn the threads or processes that run admitted work. */
    virtual void startBackend() = 0;

    /** Every pending request has been answered: stop and join. */
    virtual void stopBackend() = 0;

    /** Work was admitted on `shard` (mu_ held). */
    virtual void admittedLocked(int /*shard*/, std::vector<Outgoing> &)
    {
    }

    /** The shard that runs this program. */
    virtual int shardOf(const std::string & /*program*/) const
    {
        return 0;
    }

    /** Expected service time for admission feasibility (µs; 0 = no
     *  estimate, so deadlines are not checked on arrival). */
    virtual int64_t estimatedServiceUs(RequestKind) const { return 0; }

    /** The backend's state block, named: `breakers` or `workers`.
     *  Stats, metrics and metrics snapshots carry it. */
    virtual std::pair<std::string, json::Value> stateBlock() const = 0;

    /** Add the backend's own fields to a `health` response and to its
     *  `admission` block (called without mu_). */
    virtual void healthFields(json::Value &health,
                              json::Value &admission) const = 0;

    // --- For backends ---

    /** Pop the next runnable request of `shard` and mark it in flight
     *  (0 = none). Entries dropped on the way are answered. */
    uint64_t popLocked(int shard, std::vector<Outgoing> &out);

    /**
     * Resolve one pending request: release its admission slot, count
     * `outcome`, sample its latency, journal `done` (as `journalAs`,
     * default the outcome's name), and queue `line` for delivery.
     * Unknown seqs are a no-op, so late answers cannot duplicate.
     */
    void finishLocked(uint64_t seq, Outcome outcome,
                      const std::string &line,
                      std::vector<Outgoing> &out,
                      const std::string &journalAs = "");

    /** Respond outside mu_: a slow client write must not stall
     *  admission or the backend. */
    static void deliver(std::vector<Outgoing> &out);

    mutable std::mutex mu_;
    /** Notified after admissions, finishes and backend ticks. */
    std::condition_variable cv_;
    std::map<uint64_t, Pending> pending_;
    /** One controller per shard: queue order and fair-share policy;
     *  payloads stay in pending_. */
    std::vector<std::unique_ptr<AdmissionController>> admission_;
    /** Bumped on every admission and finish: pool threads wait for a
     *  change rather than "depth > 0", which stays true (and spins)
     *  while every queued client is at its in-flight cap. */
    uint64_t gen_ = 0;
    std::unique_ptr<Journal> journal_;

  private:
    void answerDropsLocked(int shard,
                           const std::vector<AdmissionDrop> &drops,
                           std::vector<Outgoing> &out);
    size_t queueDepthLocked() const;
    /** Summed per-class depths across shards, as gauges. */
    void publishQueueGaugesLocked() const;
    void writeMetricsSnapshotNow();

    /** Request bound, deadlines, retry hint, metrics export. */
    std::unique_ptr<const ServeOptions> limits_;
    size_t queueCapacity_ = 0;   ///< summed over shards
    bool depthCountsInflight_ = false;
    uint64_t seq_ = 0;           ///< pending keys (mu_)

    /** Admitted-but-unanswered entries replayed from the previous
     *  incarnation's journal (immutable after openJournal). */
    std::vector<JournalEntry> recovery_;

    std::atomic<bool> started_{false};
    std::atomic<bool> draining_{false};
    bool drained_ = false;  ///< guarded by drainMutex_
    /** Serializes drain(): a SIGTERM-initiated drain can race the
     *  destructor's (or a second transport's). */
    std::mutex drainMutex_;
    int64_t startedAtMs_ = 0;

    std::unique_ptr<std::ofstream> metricsOut_;
    std::mutex metricsFileMutex_;

    std::atomic<uint64_t> received_{0}, accepted_{0}, completed_{0},
        shed_{0}, cancelled_{0}, errors_{0};

    /** Periodic metrics-snapshot writer (ServeOptions::metricsPath). */
    Periodic metricsTicker_;
};

} // namespace serve
} // namespace memoria

#endif // MEMORIA_SERVE_FRONT_HH

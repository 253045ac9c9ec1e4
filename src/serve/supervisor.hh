/**
 * @file
 * Process-level supervision for `memoria serve --workers N`.
 *
 * The in-process `Server` contains panics, but a genuine SIGSEGV,
 * allocator corruption, or stack overflow in any worker thread takes
 * the whole service down. The `Supervisor` moves the isolation
 * boundary to the process: it owns the listeners and forks N
 * shard-worker processes (each running `memoria serve --worker-fd F`,
 * a single-process `Server` speaking the same JSON-lines protocol
 * over a socketpair). A consistent (rendezvous) hash of the program
 * text picks the shard, so repeated submissions of one program land
 * on one worker and future per-worker caches stay hot.
 *
 * Per worker, the supervisor runs a spawn/monitor/respawn state
 * machine:
 *
 *   Up ──(exit/signal/EOF/hang)──> Down ──(backoff timer)──> Up
 *
 *  - liveness: a `health` heartbeat every `heartbeatMs` (answered on
 *    the worker's reader thread, so a saturated worker pool cannot
 *    miss it) plus a per-request deadline; a worker that misses
 *    `heartbeatMisses` beats or sits on a request past its deadline +
 *    grace is SIGKILLed as hung;
 *  - reaping: SIGCHLD sets a flag (support/signals.hh) and the
 *    monitor thread reaps with waitpid(WNOHANG), classifying the
 *    death (`serve.worker.crash.<kind>`: sigabrt, sigsegv, sigkill,
 *    exit_N, hang, eof);
 *  - respawn: capped exponential backoff (`backoffBaseMs` doubling to
 *    `backoffCapMs`, reset after `stableMs` up), counted in
 *    `serve.worker.respawns`;
 *  - crash fallout: in-flight requests on the dead worker keep the
 *    exactly-one-response invariant — idempotent kinds (analyze,
 *    simulate) and `compound` with `"replay":true` are re-forwarded
 *    once to the respawned worker (fault spec stripped, result marked
 *    `"retried":true`); everything else is answered with a structured
 *    `serve.worker-crashed` error;
 *  - journal: every admission is written ahead to a bounded JSONL
 *    journal (serve/journal.hh) and marked done with its outcome, so
 *    "no request was lost" is checkable from disk after the fact;
 *  - recycling: a worker can be retired *gracefully* — stop forwarding
 *    it work, wait for its in-flight requests to finish, close its
 *    pipe's write side (the worker drains, snapshots its cache, exits
 *    0), respawn immediately with no backoff. Triggered by
 *    `maxRequestsPerWorker`, by RSS over the hard watermark (sampled
 *    from /proc/<pid>/statm and from the worker's own governor block
 *    in heartbeat answers), or by SIGHUP (rolling restart of every
 *    shard, one at a time, next one only after the previous is back
 *    up). A recycle loses zero requests and is counted in
 *    `serve.worker.recycled`, never in `serve.worker.crash.*`.
 *
 * The supervisor is the sharded backend of a serve front
 * (serve/front.hh): the front parses, answers `health`/`stats`/
 * `metrics` inline (this backend adds the `workers` array that
 * `memoria top` renders as per-worker rows), and admits per shard —
 * one `AdmissionController` per worker slot, bounded by
 * `maxQueuedPerWorker` (queued + in-flight), so every worker pipe has
 * deadline-aware shed-on-arrival, per-client fair-share dequeue and
 * CoDel aging in front of it. Work requests are forwarded with a
 * rewritten id (`s<seq>`) and the original id restored on the way
 * back. Drain means: the front stops admitting, lets workers finish,
 * cancels what the drain deadline strands; then this backend closes
 * the worker pipes (workers see EOF and exit 0) and reaps everything;
 * the front checks the journal is empty and writes the final metrics
 * snapshot.
 */

#ifndef MEMORIA_SERVE_SUPERVISOR_HH
#define MEMORIA_SERVE_SUPERVISOR_HH

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "serve/journal.hh"
#include "serve/server.hh"

namespace memoria {
namespace serve {

/** Supervisor configuration. */
struct SupervisorOptions
{
    /** Shard-worker process count (>= 1). */
    int workers = 2;

    /**
     * argv prefix for a worker process, e.g. {"/path/memoria",
     * "serve", "--jobs", "2"}; the supervisor appends
     * `--worker-fd N --shard K`. Must not be empty.
     */
    std::vector<std::string> workerCommand;

    /** Shared service limits (deadlines, request size, retry hint,
     *  per-client cap, aging; also the metrics snapshot path). */
    ServeOptions serve;

    /** Heartbeat cadence and how many misses mean "hung". */
    int64_t heartbeatMs = 500;
    int heartbeatMisses = 6;

    /** Extra time past a request's deadline before the worker running
     *  it is declared hung and killed. */
    int64_t hangGraceMs = 5000;

    /** Respawn backoff: base, doubling cap, and how long a worker
     *  must stay up before the backoff resets. */
    int64_t backoffBaseMs = 100;
    int64_t backoffCapMs = 5000;
    int64_t stableMs = 10000;

    /** Per-worker bound on queued + in-flight requests; beyond it the
     *  supervisor sheds with `overloaded`. */
    size_t maxQueuedPerWorker = 32;

    /** Requests forwarded to one worker at a time (0 = the worker's
     *  thread count, serve.jobs). */
    size_t maxInflightPerWorker = 0;

    /** Gracefully recycle a worker after it has answered this many
     *  work requests (0 = never). Bounds slow leaks by construction. */
    uint64_t maxRequestsPerWorker = 0;

    /** How long a recycling worker gets to drain and exit before the
     *  supervisor gives up and SIGKILLs it (counted as a crash). */
    int64_t recycleGraceMs = 10000;

    /** Write-ahead journal path ("" = no journal). */
    std::string journalPath;
    JournalOptions journal;
};

/** Introspection row for one shard worker (health/metrics/top). */
struct WorkerRow
{
    int shard = 0;
    int64_t pid = -1;
    std::string state;  ///< "up" | "recycling" | "down"
    uint64_t inflight = 0;
    uint64_t queued = 0;
    uint64_t respawns = 0;
    uint64_t crashes = 0;
    uint64_t recycles = 0;
    uint64_t served = 0;          ///< answered since last (re)spawn
    uint64_t rssBytes = 0;        ///< last statm sample (0 = unknown)
    int64_t heartbeatAgeMs = -1;  ///< -1 while down
};

/** The front process. Construct, `start()`, feed lines, `drain()`. */
class Supervisor final : public Front
{
  public:
    explicit Supervisor(SupervisorOptions opts);
    ~Supervisor() override;

    /** The shard the consistent hash assigns this program text. */
    int shardOf(const std::string &program) const override;

    std::vector<WorkerRow> workerRows() const;

  private:
    /** Last-heartbeat view of one worker's result-cache counters. */
    struct WorkerCacheStats
    {
        uint64_t hits = 0;
        uint64_t misses = 0;
        uint64_t inflightJoins = 0;
        uint64_t evictions = 0;
        uint64_t entries = 0;
        uint64_t bytes = 0;
        uint64_t snapshotRejected = 0;
        uint64_t snapshotLoaded = 0;
    };

    /** One shard worker slot. Its queue is the front's shard
     *  controller, which survives the process across respawns. */
    struct Worker
    {
        int shard = 0;
        pid_t pid = -1;
        int fd = -1;               ///< supervisor side, non-blocking
        bool up = false;
        uint64_t generation = 0;   ///< bumps per (re)spawn
        std::thread reader;
        std::string outbuf;        ///< unwritten forwarded bytes
        std::set<uint64_t> inflight;
        uint64_t respawns = 0;
        uint64_t crashes = 0;
        int64_t spawnedAtMs = 0;
        int64_t lastBeatMs = 0;    ///< any line from the worker
        int64_t lastBeatSentMs = 0;
        int64_t backoffMs = 0;
        int64_t respawnAtMs = 0;
        std::string killReason;    ///< "hang" when we SIGKILLed it
        WorkerCacheStats cache;    ///< from the last heartbeat answer

        // --- Graceful-recycle state ---
        bool recycling = false;    ///< no new work; draining to exit
        bool recycleEofSent = false;  ///< SHUT_WR done; awaiting exit
        std::string recycleReason;    ///< max-requests | rss | sighup
        int64_t recycleStartedMs = 0;
        uint64_t served = 0;       ///< answered since last (re)spawn
        uint64_t recycles = 0;     ///< graceful recycles completed
        uint64_t rssBytes = 0;     ///< last statm sample (0 = unknown)
    };

    void startBackend() override;
    void stopBackend() override;
    void admittedLocked(int shard, std::vector<Outgoing> &out) override;
    std::pair<std::string, json::Value> stateBlock() const override;
    void healthFields(json::Value &health,
                      json::Value &admission) const override;

    void monitorLoop();

    bool spawnWorkerLocked(Worker &w, std::vector<Outgoing> &out);
    void pumpWorkerLocked(Worker &w, std::vector<Outgoing> &out);
    void flushOutbufLocked(Worker &w);

    /** Start a graceful recycle: stop forwarding, drain in-flight,
     *  then EOF the pipe so the worker exits 0 (zero requests lost). */
    void beginRecycleLocked(Worker &w, const std::string &reason);
    /** Send the pipe EOF once a recycling worker has gone quiet. */
    void maybeFinishRecycleLocked(Worker &w);
    /** A recycling worker exited 0: count it, journal it, respawn
     *  immediately with no backoff. */
    void workerRecycledLocked(Worker &w, std::vector<Outgoing> &out);
    /** Forwarded line for one attempt (id rewritten, fault stripped
     *  on retry). */
    std::string forwardLine(const Pending &p, uint64_t seq) const;

    void readerLoop(int shard, int fd, uint64_t generation);
    void onWorkerLine(int shard, uint64_t generation,
                      const std::string &line);

    /** Crash/hang/EOF fallout: retry or answer every in-flight
     *  request of the dead worker, schedule the respawn. */
    void handleWorkerDownLocked(Worker &w, const std::string &why,
                                std::vector<Outgoing> &out);
    void reapLocked(std::vector<Outgoing> &out);

    /** Park a dead worker's reader thread + fd; `joinRetired` joins
     *  the threads and only then closes the fds (no reuse races). */
    void retireReaderLocked(Worker &w);
    void joinRetired();

    int64_t effectiveDeadlineMs(const Request &req) const;
    /** The `workers` array. */
    json::Value workersJson() const;
    /** Mirror summed worker cache counters into serve.cache.* gauges. */
    void publishCacheGaugesLocked();

    SupervisorOptions opts_;

    // Guarded by the front's mu_.
    std::vector<std::unique_ptr<Worker>> workers_;
    std::map<pid_t, int> pidToShard_;
    std::vector<std::pair<std::thread, int>> retired_;
    int64_t lastJournalSyncMs_ = 0;
    /** SIGHUP rolling restart: shards still awaiting their turn. The
     *  next one starts only when every worker is up and none is
     *  recycling, so capacity dips by at most one shard. */
    std::deque<int> rollingQueue_;
    int64_t lastRssSampleMs_ = 0;

    std::atomic<bool> stop_{false};
    std::thread monitor_;
};

} // namespace serve
} // namespace memoria

#endif // MEMORIA_SERVE_SUPERVISOR_HH

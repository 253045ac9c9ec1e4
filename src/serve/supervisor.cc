#include "serve/supervisor.hh"

#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>

#include "support/json.hh"
#include "support/logging.hh"
#include "support/procstat.hh"
#include "support/signals.hh"
#include "support/stats.hh"
#include "support/trace.hh"

namespace memoria {
namespace serve {

namespace {

uint64_t
fnv1a64(const std::string &s)
{
    uint64_t h = 1469598103934665603ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

uint64_t
splitmix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Classify a waitpid status for the crash-kind counters. */
std::string
crashKind(int status)
{
    if (WIFSIGNALED(status)) {
        switch (WTERMSIG(status)) {
          case SIGABRT:
            return "sigabrt";
          case SIGSEGV:
            return "sigsegv";
          case SIGKILL:
            return "sigkill";
          case SIGBUS:
            return "sigbus";
          default:
            return "signal_" + std::to_string(WTERMSIG(status));
        }
    }
    if (WIFEXITED(status))
        return "exit_" + std::to_string(WEXITSTATUS(status));
    return "unknown";
}

const char *kHeartbeatLine = "{\"id\":\"hb\",\"kind\":\"health\"}\n";

void
setCloexecNonblock(int fd)
{
    int fl = ::fcntl(fd, F_GETFL);
    if (fl >= 0)
        ::fcntl(fd, F_SETFL, fl | O_NONBLOCK);
    int fdfl = ::fcntl(fd, F_GETFD);
    if (fdfl >= 0)
        ::fcntl(fd, F_SETFD, fdfl | FD_CLOEXEC);
}

} // namespace

Supervisor::Supervisor(SupervisorOptions opts)
    : Front(opts.serve, std::max(1, opts.workers), opts.maxQueuedPerWorker,
            true),  // bound each worker's queued + in-flight work
      opts_(std::move(opts))
{
    opts_.workers = std::max(1, opts_.workers);
    for (int i = 0; i < opts_.workers; ++i) {
        auto w = std::make_unique<Worker>();
        w->shard = i;
        workers_.push_back(std::move(w));
    }
    if (!opts_.journalPath.empty())
        openJournal(opts_.journalPath, opts_.journal);
}

Supervisor::~Supervisor()
{
    drain();
}

void
Supervisor::startBackend()
{
    MEMORIA_ASSERT(!opts_.workerCommand.empty(),
                   "supervisor needs a worker command");
    // A flush racing a worker's death must surface as EPIPE on the
    // socketpair (handled by the monitor), not kill the supervisor —
    // transports ignore SIGPIPE for their own fds, but the worker
    // pipes are ours whatever the transport.
    ::signal(SIGPIPE, SIG_IGN);
    signals::installChildHandler();
    // SIGHUP = rolling restart of every shard, one at a time.
    signals::installHupHandler();

    std::vector<Outgoing> out;
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (auto &w : workers_)
            spawnWorkerLocked(*w, out);
    }
    deliver(out);

    monitor_ = std::thread([this] { monitorLoop(); });
    obs::traceEvent("serve", "supervisor_start",
                    {{"workers", int64_t{opts_.workers}},
                     {"journal", opts_.journalPath}});
}

int
Supervisor::shardOf(const std::string &program) const
{
    // Rendezvous (highest-random-weight) hashing: each shard scores
    // the key independently and the max wins, so the mapping is a
    // pure function of (program, shard count) — stable across worker
    // respawns and uniform across shards.
    const uint64_t h = fnv1a64(program);
    int best = 0;
    uint64_t bestScore = 0;
    for (int i = 0; i < opts_.workers; ++i) {
        uint64_t score =
            splitmix64(h ^ splitmix64(static_cast<uint64_t>(i) + 1));
        if (i == 0 || score > bestScore) {
            best = i;
            bestScore = score;
        }
    }
    return best;
}

int64_t
Supervisor::effectiveDeadlineMs(const Request &req) const
{
    if (req.deadlineMs > 0)
        return std::min(req.deadlineMs, opts_.serve.maxDeadlineMs);
    return opts_.serve.budget.deadlineMs;
}

std::string
Supervisor::forwardLine(const Pending &p, uint64_t seq) const
{
    json::Value o = json::Value::object();
    o.set("id", json::Value::string("s" + std::to_string(seq)));
    o.set("kind", json::Value::string(requestKindName(p.req.kind)));
    o.set("program", json::Value::string(p.req.program));
    if (p.req.deadlineMs > 0)
        o.set("deadline_ms", json::Value::number(p.req.deadlineMs));
    if (p.req.simulate.has_value())
        o.set("simulate", json::Value::boolean(*p.req.simulate));
    if (!p.req.traceId.empty())
        o.set("trace_id", json::Value::string(p.req.traceId));
    // Forward the priority class and the *resolved* fair-share key so
    // the worker's own admission controller buckets consistently.
    if (!p.req.priority.empty())
        o.set("priority", json::Value::string(p.req.priority));
    if (!p.client.empty())
        o.set("client_id", json::Value::string(p.client));
    // The fault spec rides only on the first attempt: replaying a
    // crash-inducing fault verbatim would kill the fresh worker too.
    if (!p.req.fault.empty() && !p.retried)
        o.set("fault", json::Value::string(p.req.fault));
    return o.dump();
}

void
Supervisor::admittedLocked(int shard, std::vector<Outgoing> &out)
{
    pumpWorkerLocked(*workers_[shard], out);
}

void
Supervisor::pumpWorkerLocked(Worker &w, std::vector<Outgoing> &out)
{
    const size_t maxInflight =
        opts_.maxInflightPerWorker > 0
            ? opts_.maxInflightPerWorker
            : static_cast<size_t>(std::max(1, opts_.serve.jobs));
    while (w.up && !w.recycling &&
           w.inflight.size() < maxInflight) {
        const uint64_t seq = popLocked(w.shard, out);
        if (seq == 0)
            break;
        Pending &p = pending_.at(seq);
        p.forwardedAtUs = nowUs();
        const int64_t eff = effectiveDeadlineMs(p.req);
        p.deadlineAtMs =
            eff > 0 ? nowMs() + eff + opts_.hangGraceMs : 0;
        w.inflight.insert(seq);
        w.outbuf += forwardLine(p, seq);
        w.outbuf += "\n";
    }
    flushOutbufLocked(w);
    maybeFinishRecycleLocked(w);
}

void
Supervisor::beginRecycleLocked(Worker &w, const std::string &reason)
{
    if (!w.up || w.recycling)
        return;
    w.recycling = true;
    w.recycleEofSent = false;
    w.recycleReason = reason;
    w.recycleStartedMs = nowMs();
    ++obs::counter("serve.worker.recycle_started");
    if (journal_)
        journal_->appendEvent(
            "recycle_begin",
            {{"shard", std::to_string(w.shard)},
             {"reason", reason},
             {"inflight", std::to_string(w.inflight.size())}});
    obs::traceEvent("serve", "worker_recycle_begin",
                    {{"shard", int64_t{w.shard}},
                     {"reason", reason},
                     {"inflight",
                      static_cast<int64_t>(w.inflight.size())}});
    maybeFinishRecycleLocked(w);
}

void
Supervisor::maybeFinishRecycleLocked(Worker &w)
{
    if (!w.up || !w.recycling || w.recycleEofSent)
        return;
    if (!w.inflight.empty() || !w.outbuf.empty())
        return;
    // Half-close: the worker's read loop sees EOF, drains (writing its
    // cache snapshot for the warm restart), and exits 0. Our read side
    // stays open so a heartbeat answer already in the pipe still lands.
    if (w.fd >= 0)
        ::shutdown(w.fd, SHUT_WR);
    w.recycleEofSent = true;
}

void
Supervisor::workerRecycledLocked(Worker &w, std::vector<Outgoing> &out)
{
    w.up = false;
    ++w.generation;  // invalidate the reader before retiring it
    retireReaderLocked(w);
    w.outbuf.clear();
    ++w.recycles;
    ++obs::counter("serve.worker.recycled");
    if (journal_)
        journal_->appendEvent(
            "recycle", {{"shard", std::to_string(w.shard)},
                        {"reason", w.recycleReason}});
    obs::traceEvent("serve", "worker_recycled",
                    {{"shard", int64_t{w.shard}},
                     {"reason", w.recycleReason}});
    w.recycling = false;
    w.recycleEofSent = false;
    w.recycleReason.clear();
    w.recycleStartedMs = 0;
    w.backoffMs = 0;  // graceful exit: no crash backoff
    w.respawnAtMs = 0;
    if (!draining())
        spawnWorkerLocked(w, out);
}

void
Supervisor::flushOutbufLocked(Worker &w)
{
    while (!w.outbuf.empty() && w.fd >= 0) {
        ssize_t n =
            ::write(w.fd, w.outbuf.data(), w.outbuf.size());
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return;  // kernel buffer full; monitor retries
            // Worker side gone; the reader/reaper handles the death.
            w.outbuf.clear();
            return;
        }
        w.outbuf.erase(0, static_cast<size_t>(n));
    }
}

bool
Supervisor::spawnWorkerLocked(Worker &w, std::vector<Outgoing> &out)
{
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) < 0) {
        warn("serve: socketpair failed: " +
             std::string(std::strerror(errno)));
        w.respawnAtMs = nowMs() + 1000;
        return false;
    }
    setCloexecNonblock(sv[0]);

    // argv is fully materialized before fork: between fork and exec
    // only async-signal-safe calls are allowed in a multithreaded
    // parent, and that excludes malloc.
    std::vector<std::string> args = opts_.workerCommand;
    args.push_back("--worker-fd");
    args.push_back(std::to_string(sv[1]));
    args.push_back("--shard");
    args.push_back(std::to_string(w.shard));
    std::vector<char *> argv;
    argv.reserve(args.size() + 1);
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);

    pid_t pid = ::fork();
    if (pid < 0) {
        ::close(sv[0]);
        ::close(sv[1]);
        warn("serve: fork failed: " +
             std::string(std::strerror(errno)));
        w.respawnAtMs = nowMs() + 1000;
        return false;
    }
    if (pid == 0) {
        // Child: everything supervisor-side is CLOEXEC; sv[1] is not
        // and rides through exec as the worker's request pipe.
        ::execv(argv[0], argv.data());
        _exit(127);
    }
    ::close(sv[1]);

    const bool respawn = w.generation > 0;
    w.pid = pid;
    w.fd = sv[0];
    w.up = true;
    ++w.generation;
    w.spawnedAtMs = w.lastBeatMs = w.lastBeatSentMs = nowMs();
    w.killReason.clear();
    w.recycling = false;
    w.recycleEofSent = false;
    w.recycleReason.clear();
    w.recycleStartedMs = 0;
    w.served = 0;
    w.rssBytes = 0;
    pidToShard_[pid] = w.shard;
    if (respawn) {
        ++w.respawns;
        ++obs::counter("serve.worker.respawns");
    }
    if (journal_)
        journal_->appendEvent(
            "spawn", {{"shard", std::to_string(w.shard)},
                      {"pid", std::to_string(pid)}});
    obs::traceEvent("serve", respawn ? "worker_respawn" : "worker_spawn",
                    {{"shard", int64_t{w.shard}},
                     {"pid", int64_t{pid}}});

    const int shard = w.shard;
    const int fd = w.fd;
    const uint64_t gen = w.generation;
    w.reader = std::thread(
        [this, shard, fd, gen] { readerLoop(shard, fd, gen); });

    // A respawn inherits the dead worker's queued admissions (crash
    // retries included); forward what fits immediately.
    pumpWorkerLocked(w, out);
    return true;
}

void
Supervisor::readerLoop(int shard, int fd, uint64_t generation)
{
    std::string buffer;
    char chunk[4096];
    for (;;) {
        pollfd p{fd, POLLIN, 0};
        int rc = ::poll(&p, 1, 200);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (rc == 0) {
            if (stop_.load())
                break;
            continue;
        }
        ssize_t n = ::read(fd, chunk, sizeof(chunk));
        if (n < 0) {
            if (errno == EINTR || errno == EAGAIN ||
                errno == EWOULDBLOCK)
                continue;
            break;
        }
        if (n == 0)
            break;  // EOF: worker exited or crashed
        buffer.append(chunk, static_cast<size_t>(n));
        size_t pos;
        while ((pos = buffer.find('\n')) != std::string::npos) {
            std::string line = buffer.substr(0, pos);
            buffer.erase(0, pos + 1);
            onWorkerLine(shard, generation, line);
        }
    }

    // EOF while the slot still thinks it's up: the reader is the
    // first to know, so it kicks off the down-handling itself — except
    // during a graceful recycle, where EOF is the *expected* end of a
    // clean exit and the reaper classifies the death instead.
    std::vector<Outgoing> out;
    {
        std::lock_guard<std::mutex> lock(mu_);
        Worker &w = *workers_[shard];
        if (w.up && w.generation == generation && !w.recycling)
            handleWorkerDownLocked(w, "eof", out);
    }
    deliver(out);
    cv_.notify_all();
}

void
Supervisor::onWorkerLine(int shard, uint64_t generation,
                         const std::string &line)
{
    Result<json::Value> parsed = json::parse(line);
    std::vector<Outgoing> out;
    {
        std::lock_guard<std::mutex> lock(mu_);
        Worker &w = *workers_[shard];
        if (w.generation != generation)
            return;  // a stale reader must not touch the new worker
        w.lastBeatMs = nowMs();

        if (!parsed.ok()) {
            ++obs::counter("serve.worker.protocol_errors");
            return;
        }
        json::Value &v = parsed.value();
        const std::string id = v.getString("id");
        if (id == "hb") {
            // The heartbeat is a worker `health` response; besides the
            // liveness timestamp it carries the worker's result-cache
            // counters, which live in the worker process and would
            // otherwise be invisible to the supervisor's registry.
            if (const json::Value *cj = v.get("cache");
                cj && cj->isObject()) {
                w.cache.hits = cj->getInt("hits");
                w.cache.misses = cj->getInt("misses");
                w.cache.inflightJoins = cj->getInt("inflight_joins");
                w.cache.evictions = cj->getInt("evictions");
                w.cache.entries = cj->getInt("entries");
                w.cache.bytes = cj->getInt("bytes");
                w.cache.snapshotRejected =
                    cj->getInt("snapshot_rejected");
                w.cache.snapshotLoaded =
                    cj->getInt("snapshot_loaded_entries");
                publishCacheGaugesLocked();
            }
            // The worker's own memory governor rides the heartbeat: a
            // latched hard watermark is a recycle request — honor it
            // with a graceful recycle, not a SIGKILL.
            if (const json::Value *gj = v.get("governor");
                gj && gj->isObject()) {
                if (gj->getBool("hard_pressure") && !w.recycling)
                    beginRecycleLocked(w, "memory");
            }
            return;
        }
        if (id.empty() || id[0] != 's') {
            ++obs::counter("serve.worker.protocol_errors");
            return;
        }
        const uint64_t seq =
            std::strtoull(id.c_str() + 1, nullptr, 10);
        auto it = pending_.find(seq);
        if (it == pending_.end() || it->second.shard != shard ||
            !it->second.inflight)
            return;  // late answer for a request already resolved

        Pending &p = it->second;
        w.inflight.erase(seq);
        // Pure forward-to-answer time feeds the controller's drain-
        // rate and service-time estimates (queue delay excluded).
        if (p.forwardedAtUs > 0.0)
            admission_[shard]->recordService(
                static_cast<int64_t>(nowUs() - p.forwardedAtUs));
        v.set("id", json::Value::string(p.req.id));
        if (p.retried) {
            v.set("retried", json::Value::boolean(true));
            ++obs::counter("serve.worker.retry_answered");
        }
        const std::string type = v.getString("type", "result");
        std::string journalAs = type;
        Outcome outcome = Outcome::Completed;
        if (type == "result") {
            journalAs = v.getString("status", "ok");
        } else if (type == "error") {
            outcome = Outcome::Error;
        } else if (type == "overloaded") {
            outcome = Outcome::Shed;
        } else if (type == "cancelled") {
            outcome = Outcome::Cancelled;
        }
        finishLocked(seq, outcome, v.dump(), out, journalAs);
        ++w.served;
        if (opts_.maxRequestsPerWorker > 0 && !w.recycling &&
            w.served >= opts_.maxRequestsPerWorker)
            beginRecycleLocked(w, "max-requests");
        pumpWorkerLocked(w, out);
    }
    deliver(out);
    cv_.notify_all();
}

void
Supervisor::retireReaderLocked(Worker &w)
{
    if (w.fd >= 0)
        ::shutdown(w.fd, SHUT_RDWR);
    if (w.reader.joinable())
        retired_.emplace_back(std::move(w.reader), w.fd);
    else if (w.fd >= 0)
        ::close(w.fd);
    w.fd = -1;
}

void
Supervisor::joinRetired()
{
    std::vector<std::pair<std::thread, int>> done;
    {
        std::lock_guard<std::mutex> lock(mu_);
        done.swap(retired_);
    }
    for (auto &[t, fd] : done) {
        if (t.joinable())
            t.join();
        // Closed only after the reader is gone, so the kernel cannot
        // hand the fd number to a new worker while a stale reader
        // could still read from it.
        if (fd >= 0)
            ::close(fd);
    }
}

void
Supervisor::handleWorkerDownLocked(Worker &w, const std::string &why,
                                   std::vector<Outgoing> &out)
{
    if (!w.up)
        return;
    w.up = false;
    ++w.generation;  // invalidate the reader before retiring it
    retireReaderLocked(w);
    w.outbuf.clear();
    // A recycle that ends here ended *ungracefully* (crash or timeout
    // mid-drain); clear the state so the respawn starts clean.
    w.recycling = false;
    w.recycleEofSent = false;
    w.recycleReason.clear();
    w.recycleStartedMs = 0;
    // EOF with the process still alive (closed its pipe but didn't
    // exit) would leave the slot unreapable and the shard down
    // forever; make the death real so waitpid sees it.
    if (why == "eof" && w.pid > 0)
        ::kill(w.pid, SIGKILL);
    ++w.crashes;
    ++obs::counter("serve.worker.crashes");
    if (journal_)
        journal_->appendEvent(
            "crash", {{"shard", std::to_string(w.shard)},
                      {"why", why},
                      {"inflight",
                       std::to_string(w.inflight.size())}});
    obs::traceEvent("serve", "worker_down",
                    {{"shard", int64_t{w.shard}},
                     {"why", why},
                     {"inflight",
                      static_cast<int64_t>(w.inflight.size())}});

    // Crash fallout: every in-flight request resolves now — either
    // re-enqueued for one retry, or with a structured worker-crashed
    // error. Exactly one terminal response either way.
    std::vector<uint64_t> inflight(w.inflight.begin(),
                                   w.inflight.end());
    w.inflight.clear();
    const int64_t nowSteady = static_cast<int64_t>(nowUs());
    AdmissionController &ac = *admission_[w.shard];
    for (auto rit = inflight.begin(); rit != inflight.end(); ++rit) {
        const uint64_t seq = *rit;
        auto it = pending_.find(seq);
        if (it == pending_.end())
            continue;
        Pending &p = it->second;
        if (p.replayOk && !p.retried) {
            p.retried = true;
            p.inflight = false;
            p.deadlineAtMs = 0;
            p.forwardedAtUs = 0.0;
            // Release the popped slot, then queue the retry under the
            // same fair-share key for the respawned worker.
            ac.finish(seq, nowSteady);
            ac.enqueue(seq, p.client, p.priority,
                                 p.admitDeadlineUs, nowSteady);
            ++obs::counter("serve.worker.retries");
            if (journal_)
                journal_->appendEvent(
                    "retry", {{"seq", std::to_string(seq)},
                              {"shard", std::to_string(w.shard)}});
        } else {
            finishLocked(seq, Outcome::Error,
                         errorResponse(
                             p.req.id, "serve.worker-crashed",
                             "worker shard " + std::to_string(w.shard) +
                                 " died (" + why +
                                 ") while running this request"),
                         out, "worker-crashed");
        }
    }

    // Capped exponential backoff before the respawn.
    w.backoffMs = w.backoffMs == 0
                      ? opts_.backoffBaseMs
                      : std::min(opts_.backoffCapMs, w.backoffMs * 2);
    w.respawnAtMs = nowMs() + w.backoffMs;
}

void
Supervisor::reapLocked(std::vector<Outgoing> &out)
{
    signals::consumeChildEvent();
    for (;;) {
        int status = 0;
        pid_t pid = ::waitpid(-1, &status, WNOHANG);
        if (pid <= 0)
            break;
        auto it = pidToShard_.find(pid);
        if (it == pidToShard_.end())
            continue;
        Worker &w = *workers_[it->second];
        pidToShard_.erase(it);
        w.pid = -1;

        std::string kind =
            !w.killReason.empty() ? w.killReason : crashKind(status);
        w.killReason.clear();
        // A recycling worker that exits 0 did exactly what it was
        // asked: that is a recycle, never a crash.
        if (w.recycling && kind == "exit_0") {
            workerRecycledLocked(w, out);
            continue;
        }
        const bool expected =
            draining() && kind == "exit_0";
        if (!expected)
            ++obs::counter("serve.worker.crash." + kind);
        if (w.up)
            handleWorkerDownLocked(w, kind, out);
    }
}

void
Supervisor::monitorLoop()
{
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_.load()) {
        cv_.wait_for(lock, std::chrono::milliseconds(20));
        if (stop_.load())
            break;

        std::vector<Outgoing> out;
        reapLocked(out);

        const int64_t now = nowMs();

        // SIGHUP: queue a rolling restart of every shard. A HUP that
        // lands mid-roll is coalesced into the one already running.
        if (signals::consumeHup() && rollingQueue_.empty() &&
            !draining()) {
            for (auto &wp : workers_)
                rollingQueue_.push_back(wp->shard);
            ++obs::counter("serve.rolling_restarts");
            obs::traceEvent("serve", "rolling_restart_begin",
                            {{"workers", int64_t{opts_.workers}}});
        }
        // Advance the roll only when the fleet is whole again — the
        // previous shard is back up and nothing is mid-recycle — so
        // capacity dips by at most one worker at a time.
        if (!rollingQueue_.empty() && !draining()) {
            bool quiet = true;
            for (auto &wp : workers_)
                if (!wp->up || wp->recycling) {
                    quiet = false;
                    break;
                }
            if (quiet) {
                const int s = rollingQueue_.front();
                rollingQueue_.pop_front();
                beginRecycleLocked(*workers_[s], "sighup");
            }
        }

        // Per-worker RSS via /proc/<pid>/statm.
        if (now - lastRssSampleMs_ >= 500) {
            lastRssSampleMs_ = now;
            for (auto &wp : workers_) {
                Worker &w = *wp;
                if (w.up && w.pid > 0) {
                    const uint64_t rss = procstat::rssBytes(w.pid);
                    if (rss > 0)
                        w.rssBytes = rss;
                    if (opts_.serve.rssHardBytes > 0 &&
                        !w.recycling &&
                        rss > opts_.serve.rssHardBytes)
                        beginRecycleLocked(w, "rss");
                }
            }
        }

        for (auto &wp : workers_) {
            Worker &w = *wp;
            if (w.up) {
                // pump (not just flush): pop-time drops — expired and
                // CoDel-aged entries — need a periodic tick even when
                // no new work or answers arrive.
                pumpWorkerLocked(w, out);
                if (!w.recycleEofSent &&
                    now - w.lastBeatSentMs >= opts_.heartbeatMs) {
                    w.outbuf += kHeartbeatLine;
                    w.lastBeatSentMs = now;
                    flushOutbufLocked(w);
                }
                if (w.recycling) {
                    // Hang detection is off mid-recycle (after the
                    // half-close we cannot heartbeat); the recycle
                    // grace is the only clock, and blowing it is a
                    // crash, not a recycle.
                    if (now - w.recycleStartedMs >
                        opts_.recycleGraceMs) {
                        ++obs::counter(
                            "serve.worker.recycle_timeouts");
                        w.killReason = "recycle-timeout";
                        if (w.pid > 0)
                            ::kill(w.pid, SIGKILL);
                        handleWorkerDownLocked(w, "recycle-timeout",
                                               out);
                    }
                    continue;
                }
                bool hung = now - w.lastBeatMs >
                            opts_.heartbeatMs * opts_.heartbeatMisses;
                for (auto seqIt = w.inflight.begin();
                     !hung && seqIt != w.inflight.end(); ++seqIt) {
                    auto p = pending_.find(*seqIt);
                    hung = p != pending_.end() &&
                           p->second.deadlineAtMs > 0 &&
                           now > p->second.deadlineAtMs;
                }
                if (hung) {
                    ++obs::counter("serve.worker.hangs");
                    w.killReason = "hang";
                    if (w.pid > 0)
                        ::kill(w.pid, SIGKILL);
                    handleWorkerDownLocked(w, "hang", out);
                } else if (w.backoffMs > 0 &&
                           now - w.spawnedAtMs > opts_.stableMs) {
                    w.backoffMs = 0;  // survived: backoff resets
                }
            } else if (w.pid < 0 && !draining() &&
                       w.respawnAtMs > 0 && now >= w.respawnAtMs) {
                w.respawnAtMs = 0;
                spawnWorkerLocked(w, out);
            }
        }

        if (journal_ && now - lastJournalSyncMs_ >= 500) {
            lastJournalSyncMs_ = now;
            lock.unlock();
            journal_->sync();
            joinRetired();
            deliver(out);
            lock.lock();
            continue;
        }

        lock.unlock();
        joinRetired();
        deliver(out);
        lock.lock();
    }
}

void
Supervisor::stopBackend()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (auto &wp : workers_)
            wp->inflight.clear();
        stop_.store(true);
    }
    cv_.notify_all();
    if (monitor_.joinable())
        monitor_.join();

    // Shut the workers down: closing the pipe is the protocol (the
    // worker's read loop sees EOF, drains, exits 0); SIGTERM is the
    // belt for a worker stuck before its read loop.
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (auto &wp : workers_) {
            Worker &w = *wp;
            if (w.up) {
                w.up = false;
                ++w.generation;
                retireReaderLocked(w);
            }
            if (w.pid > 0)
                ::kill(w.pid, SIGTERM);
        }
    }
    joinRetired();

    // Reap with a bounded wait, then escalate to SIGKILL.
    const int64_t reapDeadline = nowMs() + 2000;
    for (;;) {
        {
            std::lock_guard<std::mutex> lock(mu_);
            for (;;) {
                int status = 0;
                pid_t pid = ::waitpid(-1, &status, WNOHANG);
                if (pid <= 0)
                    break;
                auto it = pidToShard_.find(pid);
                if (it != pidToShard_.end()) {
                    workers_[it->second]->pid = -1;
                    pidToShard_.erase(it);
                }
            }
            if (pidToShard_.empty())
                break;
            if (nowMs() >= reapDeadline) {
                for (auto &[pid, shard] : pidToShard_)
                    ::kill(pid, SIGKILL);
            }
        }
        if (nowMs() >= reapDeadline + 2000)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
}

std::vector<WorkerRow>
Supervisor::workerRows() const
{
    std::vector<WorkerRow> rows;
    const int64_t now = nowMs();
    std::lock_guard<std::mutex> lock(mu_);
    rows.reserve(workers_.size());
    for (const auto &wp : workers_) {
        const Worker &w = *wp;
        WorkerRow r;
        r.shard = w.shard;
        r.pid = w.pid;
        r.state = !w.up ? "down" : (w.recycling ? "recycling" : "up");
        r.inflight = w.inflight.size();
        r.queued = admission_[w.shard]->depth();
        r.respawns = w.respawns;
        r.crashes = w.crashes;
        r.recycles = w.recycles;
        r.served = w.served;
        r.rssBytes = w.rssBytes;
        r.heartbeatAgeMs = w.up ? now - w.lastBeatMs : -1;
        rows.push_back(r);
    }
    return rows;
}

void
Supervisor::publishCacheGaugesLocked()
{
    // Sums across shard workers, mirrored into supervisor gauges so
    // `memoria top` and the metrics snapshots see serve.cache.* from
    // the front process. Counters in the workers, gauges here: a
    // respawned worker restarts its counters, and a gauge can move
    // backwards without lying.
    uint64_t hits = 0, misses = 0, joins = 0, evictions = 0;
    uint64_t entries = 0, bytes = 0, rejected = 0, loaded = 0;
    for (const auto &wp : workers_) {
        hits += wp->cache.hits;
        misses += wp->cache.misses;
        joins += wp->cache.inflightJoins;
        evictions += wp->cache.evictions;
        entries += wp->cache.entries;
        bytes += wp->cache.bytes;
        rejected += wp->cache.snapshotRejected;
        loaded += wp->cache.snapshotLoaded;
    }
    obs::gauge("serve.cache.hits").set(static_cast<double>(hits));
    obs::gauge("serve.cache.misses").set(static_cast<double>(misses));
    obs::gauge("serve.cache.inflight_joins")
        .set(static_cast<double>(joins));
    obs::gauge("serve.cache.evictions")
        .set(static_cast<double>(evictions));
    obs::gauge("serve.cache.entries").set(static_cast<double>(entries));
    obs::gauge("serve.cache.bytes").set(static_cast<double>(bytes));
    obs::gauge("serve.cache.snapshot_rejected")
        .set(static_cast<double>(rejected));
    obs::gauge("serve.cache.snapshot_loaded_entries")
        .set(static_cast<double>(loaded));
}

json::Value
Supervisor::workersJson() const
{
    json::Value arr = json::Value::array();
    for (const WorkerRow &r : workerRows()) {
        json::Value o = json::Value::object();
        o.set("shard", json::Value::number(int64_t{r.shard}));
        o.set("pid", json::Value::number(r.pid));
        o.set("state", json::Value::string(r.state));
        o.set("inflight",
              json::Value::number(static_cast<int64_t>(r.inflight)));
        o.set("queued",
              json::Value::number(static_cast<int64_t>(r.queued)));
        o.set("respawns",
              json::Value::number(static_cast<int64_t>(r.respawns)));
        o.set("crashes",
              json::Value::number(static_cast<int64_t>(r.crashes)));
        o.set("recycles",
              json::Value::number(static_cast<int64_t>(r.recycles)));
        o.set("served",
              json::Value::number(static_cast<int64_t>(r.served)));
        o.set("rss_bytes",
              json::Value::number(static_cast<int64_t>(r.rssBytes)));
        o.set("heartbeat_age_ms",
              json::Value::number(r.heartbeatAgeMs));
        arr.push(std::move(o));
    }
    return arr;
}

std::pair<std::string, json::Value>
Supervisor::stateBlock() const
{
    return {"workers", workersJson()};
}

void
Supervisor::healthFields(json::Value &r, json::Value &admission) const
{
    uint64_t recycles = 0;
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (const auto &wp : workers_)
            recycles += wp->recycles;
    }
    r.set("workers", json::Value::number(int64_t{opts_.workers}));
    admission.set("recycles",
                  json::Value::number(static_cast<int64_t>(recycles)));
    r.set("worker_table", workersJson());
}

} // namespace serve
} // namespace memoria

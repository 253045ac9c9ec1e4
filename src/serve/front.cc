#include "serve/front.hh"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <sstream>

#include "serve/server.hh"
#include "support/export.hh"
#include "support/logging.hh"
#include "support/stats.hh"
#include "support/trace.hh"
#include "support/version.hh"

namespace memoria {
namespace serve {

int64_t
nowMs()
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
nowUs()
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

int64_t
wallMs()
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::system_clock::now().time_since_epoch())
        .count();
}

std::string
registryDumpJson()
{
    std::ostringstream os;
    obs::statsRegistry().dumpJson(os);
    std::string s = os.str();
    while (!s.empty() && (s.back() == '\n' || s.back() == '\r'))
        s.pop_back();
    return s;
}

void
Periodic::start(int64_t intervalMs, std::function<void()> fn)
{
    thread_ = std::thread([this, intervalMs, fn = std::move(fn)] {
        std::unique_lock<std::mutex> lock(mutex_);
        while (!stop_) {
            cv_.wait_for(lock, std::chrono::milliseconds(intervalMs),
                         [this] { return stop_; });
            if (stop_)
                break;
            lock.unlock();
            fn();
            lock.lock();
        }
    });
}

void
Periodic::stop()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable())
        thread_.join();
}

namespace {

const char *
outcomeName(int outcome)
{
    static const char *const names[] = {"ok", "overloaded", "cancelled",
                                        "error"};
    return names[outcome];
}

json::Value
count(uint64_t v)
{
    return json::Value::number(static_cast<int64_t>(v));
}

} // namespace

Front::Front(const ServeOptions &opts, int shards, size_t shardCapacity,
             bool countInflight)
    : limits_(std::make_unique<const ServeOptions>(opts)),
      queueCapacity_(shardCapacity * static_cast<size_t>(shards)),
      depthCountsInflight_(countInflight), startedAtMs_(nowMs())
{
    AdmissionOptions aopts;
    aopts.queueCapacity = shardCapacity;
    aopts.perClientCap = opts.perClientCap;
    aopts.countInflight = countInflight;
    aopts.retryAfterMs = opts.retryAfterMs;
    aopts.ageTargetMs = opts.ageTargetMs;
    for (int i = 0; i < shards; ++i)
        admission_.push_back(std::make_unique<AdmissionController>(aopts));
}

Front::~Front() = default;

void
Front::openJournal(const std::string &path, const JournalOptions &jopts)
{
    // Recovery replay MUST precede open(): open() truncates, and the
    // previous incarnation's admitted-but-unanswered requests are only
    // recorded in the old file. What it finds is exactly the set of
    // requests a restarted front owes an answer for — surfaced in the
    // `health` response's `recovery` block so clients (and the chaos
    // soak) can resubmit them.
    std::error_code ec;
    if (std::filesystem::exists(path, ec)) {
        Result<std::vector<JournalEntry>> prev =
            Journal::readIncomplete(path);
        if (prev.ok() && !prev.value().empty()) {
            recovery_ = std::move(prev.value());
            for (size_t i = 0; i < recovery_.size(); ++i)
                ++obs::counter("serve.recovery.unanswered");
            obs::traceEvent(
                "serve", "journal_replay",
                {{"path", path},
                 {"unanswered", static_cast<int64_t>(recovery_.size())}});
        }
    }
    Result<std::unique_ptr<Journal>> j = Journal::open(path, jopts);
    if (j.ok())
        journal_ = std::move(j.value());
    else
        warn("serve: " + j.diag().str() + " (journal disabled)");
}

void
Front::start()
{
    if (started_.exchange(true))
        return;
    if (!limits_->metricsPath.empty()) {
        metricsOut_ = std::make_unique<std::ofstream>(limits_->metricsPath,
                                                      std::ios::app);
        if (!*metricsOut_) {
            obs::traceEvent("serve", "metrics_file_error",
                            {{"path", limits_->metricsPath}});
            metricsOut_.reset();
        } else if (limits_->metricsIntervalMs > 0) {
            metricsTicker_.start(limits_->metricsIntervalMs,
                                 [this] { writeMetricsSnapshotNow(); });
        }
    }
    startBackend();
}

void
Front::handleLine(const std::string &line, const Respond &respond,
                  const std::string &clientKey)
{
    // Blank lines are keep-alive noise, not requests.
    if (line.find_first_not_of(" \t\r\n") == std::string::npos)
        return;

    ++received_;
    Result<Request> parsed = parseRequest(line, limits_->maxRequestBytes);
    if (!parsed.ok()) {
        ++errors_;
        ++obs::counter("serve.request_errors");
        // The Diag's own code distinguishes `protocol.too-large`
        // (resource caps: oversized line, nesting bomb) from
        // `serve.request` (plain bad input).
        respond(errorResponse("", parsed.diag().code,
                              parsed.diag().str()));
        return;
    }
    const Request &req = parsed.value();

    // Every successfully parsed request, any kind — the soak script
    // reconciles this against its client-side count.
    ++obs::counter("serve.requests_total");

    // Introspection bypasses the queue: it must work under saturation.
    if (req.kind == RequestKind::Health) {
        obs::ScopedTimer t(obs::histogram("serve.latency_us.health"));
        respond(healthLine(req.id));
        return;
    }
    if (req.kind == RequestKind::Stats) {
        obs::ScopedTimer t(obs::histogram("serve.latency_us.stats"));
        respond(statsLine(req.id));
        return;
    }
    if (req.kind == RequestKind::Metrics) {
        obs::ScopedTimer t(obs::histogram("serve.latency_us.metrics"));
        respond(metricsLine(req.id));
        return;
    }

    // Fair-share key: the request's own client_id wins, the transport
    // connection is the fallback, anonymous traffic shares one bucket.
    const std::string client =
        !req.clientId.empty() ? req.clientId
                              : (!clientKey.empty() ? clientKey : "anon");
    Priority pri = Priority::Interactive;
    parsePriority(req.priority, pri);  // parseRequest validated it
    const int shard = shardOf(req.program);

    std::vector<Outgoing> out;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (draining_.load()) {
            ++cancelled_;
            out.push_back({respond,
                           cancelledResponse(req.id, "server draining")});
        } else {
            const int64_t now = static_cast<int64_t>(nowUs());
            int64_t deadlineAtUs = 0;
            if (req.deadlineMs > 0)
                deadlineAtUs =
                    now +
                    std::min(req.deadlineMs, limits_->maxDeadlineMs) * 1000;
            AdmissionController &ac = *admission_[shard];
            const AdmissionDecision d =
                ac.decide(client, pri, deadlineAtUs,
                          estimatedServiceUs(req.kind), now);
            if (!d.admitted) {
                ++shed_;
                ++obs::counter("serve.shed");
                // Retry hint is drain-rate-derived and jittered so a
                // shed burst doesn't come back as a synchronized retry
                // storm.
                out.push_back({respond,
                               overloadedResponse(req.id, d.retryAfterMs,
                                                  d.queueDepth,
                                                  d.reason)});
            } else {
                const uint64_t seq = ++seq_;
                Pending p;
                p.req = req;
                p.respond = respond;
                p.shard = shard;
                p.client = client;
                p.priority = pri;
                p.admitDeadlineUs = deadlineAtUs;
                p.enqueuedUs = nowUs();
                // Idempotent kinds may be re-run after a worker crash;
                // compound only on the client's explicit "replay".
                p.replayOk =
                    req.kind != RequestKind::Compound || req.replay;
                if (journal_)
                    journal_->appendAdmit(seq, req.id,
                                          requestKindName(req.kind),
                                          shard, p.replayOk, line);
                pending_.emplace(seq, std::move(p));
                ac.enqueue(seq, client, pri, deadlineAtUs, now);
                ++gen_;
                publishQueueGaugesLocked();
                ++accepted_;
                ++obs::counter("serve.accepted");
                admittedLocked(shard, out);
            }
        }
    }
    deliver(out);
    cv_.notify_all();
}

uint64_t
Front::popLocked(int shard, std::vector<Outgoing> &out)
{
    AdmissionController &ac = *admission_[shard];
    const int64_t now = static_cast<int64_t>(nowUs());
    for (;;) {
        std::vector<AdmissionDrop> drops;
        const uint64_t seq = ac.pop(now, drops);
        answerDropsLocked(shard, drops, out);
        if (seq == 0)
            return 0;
        auto it = pending_.find(seq);
        if (it == pending_.end()) {
            // Stale ticket (already resolved): release its slot so the
            // client's in-flight accounting cannot leak.
            ac.finish(seq, now);
            continue;
        }
        it->second.inflight = true;
        publishQueueGaugesLocked();
        return seq;
    }
}

void
Front::answerDropsLocked(int shard,
                         const std::vector<AdmissionDrop> &drops,
                         std::vector<Outgoing> &out)
{
    for (const AdmissionDrop &d : drops) {
        auto it = pending_.find(d.id);
        if (it == pending_.end())
            continue;
        const Pending &p = it->second;
        if (d.expired) {
            // Its deadline passed while it sat in the queue: answering
            // now beats burning a worker on a result nobody can use.
            const int64_t waitedMs =
                static_cast<int64_t>((nowUs() - p.enqueuedUs) / 1000.0);
            finishLocked(d.id, Outcome::Error,
                         deadlineExceededResponse(p.req.id, waitedMs), out,
                         "deadline-exceeded");
        } else {
            // CoDel aged the standing queue's oldest entry out.
            ++obs::counter("serve.shed");
            finishLocked(d.id, Outcome::Shed,
                         overloadedResponse(
                             p.req.id,
                             jitteredRetryAfterMs(limits_->retryAfterMs),
                             admission_[shard]->depth(), "queue-aged"),
                         out, "queue-aged");
        }
    }
}

void
Front::finishLocked(uint64_t seq, Outcome outcome, const std::string &line,
                    std::vector<Outgoing> &out,
                    const std::string &journalAs)
{
    auto it = pending_.find(seq);
    if (it == pending_.end())
        return;
    const Pending &p = it->second;
    // Whatever path resolved it, release its admission slot (tolerant
    // of still-queued and already-unknown ids alike).
    admission_[p.shard]->finish(seq, static_cast<int64_t>(nowUs()));
    std::atomic<uint64_t> *const counters[] = {&completed_, &shed_,
                                               &cancelled_, &errors_};
    ++*counters[int(outcome)];
    obs::histogram(std::string("serve.latency_us.") +
                   requestKindName(p.req.kind))
        .sample(nowUs() - p.enqueuedUs);
    if (journal_)
        journal_->appendDone(seq, journalAs.empty()
                                      ? outcomeName(int(outcome))
                                      : journalAs);
    out.push_back(Outgoing{p.respond, line});
    pending_.erase(it);
    ++gen_;
    publishQueueGaugesLocked();
}

void
Front::deliver(std::vector<Outgoing> &out)
{
    for (Outgoing &o : out) {
        try {
            if (o.respond)
                o.respond(o.line);
        } catch (...) {
            // A throwing transport callback has lost its client;
            // nothing useful left to do for this request.
        }
    }
    out.clear();
}

void
Front::publishQueueGaugesLocked() const
{
    static obs::Gauge &interactive =
        obs::gauge("serve.admission.queue.interactive");
    static obs::Gauge &batch = obs::gauge("serve.admission.queue.batch");
    size_t qi = 0, qb = 0;
    for (const auto &ac : admission_) {
        qi += ac->depth(Priority::Interactive);
        qb += ac->depth(Priority::Batch);
    }
    interactive.set(static_cast<double>(qi));
    batch.set(static_cast<double>(qb));
}

void
Front::drain()
{
    std::lock_guard<std::mutex> drainLock(drainMutex_);
    if (drained_)
        return;
    drained_ = true;

    std::vector<Outgoing> out;
    {
        std::unique_lock<std::mutex> lock(mu_);
        draining_.store(true);
        obs::traceEvent("serve", "drain",
                        {{"pending",
                          static_cast<int64_t>(pending_.size())}});
        const int64_t deadline = nowMs() + limits_->drainDeadlineMs;
        while (!pending_.empty() && nowMs() < deadline)
            cv_.wait_for(lock, std::chrono::milliseconds(25));

        // Past the drain deadline, whatever is left — queued, or in
        // flight on a wedged worker — is answered rather than awaited:
        // exactly one terminal response either way.
        while (!pending_.empty()) {
            auto it = pending_.begin();
            finishLocked(it->first, Outcome::Cancelled,
                         cancelledResponse(it->second.req.id,
                                           "drain deadline exceeded"),
                         out);
        }
    }
    deliver(out);
    cv_.notify_all();
    stopBackend();

    if (journal_) {
        journal_->sync();
        if (journal_->depth() != 0) {
            // Every admit should have a done by now; this firing means
            // a response was lost — exactly what the journal exists to
            // catch.
            obs::traceEvent(
                "serve", "journal_nonempty",
                {{"depth", static_cast<int64_t>(journal_->depth())}});
            warn("serve: journal has " +
                 std::to_string(journal_->depth()) +
                 " unanswered admissions after drain");
        }
    }

    // Stop the periodic writer, then write one final snapshot: stats
    // accumulated since the last interval (or ever, when no interval
    // was set) survive a SIGTERM'd serve. Releasing the stream keeps a
    // second drain from duplicating it.
    metricsTicker_.stop();
    writeMetricsSnapshotNow();
    {
        std::lock_guard<std::mutex> lock(metricsFileMutex_);
        metricsOut_.reset();
    }
    obs::flushTrace();
}

void
Front::writeMetricsSnapshotNow()
{
    std::lock_guard<std::mutex> lock(metricsFileMutex_);
    if (!metricsOut_)
        return;
    auto [name, state] = stateBlock();
    std::vector<std::pair<std::string, std::string>> extra;
    extra.emplace_back("queue_depth", std::to_string(queueDepth()));
    extra.emplace_back("queue_capacity", std::to_string(queueCapacity_));
    extra.emplace_back("uptime_ms", std::to_string(nowMs() - startedAtMs_));
    extra.emplace_back("draining", draining_.load() ? "true" : "false");
    extra.emplace_back(name, state.dump());
    obs::writeMetricsSnapshot(obs::statsRegistry(), *metricsOut_, wallMs(),
                              extra);
}

RequestCounters
Front::requestCounters() const
{
    RequestCounters c;
    c.received = received_.load();
    c.accepted = accepted_.load();
    c.completed = completed_.load();
    c.shed = shed_.load();
    c.cancelled = cancelled_.load();
    c.errors = errors_.load();
    return c;
}

size_t
Front::queueDepthLocked() const
{
    if (depthCountsInflight_)
        return pending_.size();
    size_t depth = 0;
    for (const auto &ac : admission_)
        depth += ac->depth();
    return depth;
}

size_t
Front::queueDepth() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return queueDepthLocked();
}

std::string
Front::healthLine(const std::string &id) const
{
    RequestCounters c = requestCounters();
    size_t depth = 0, qInteractive = 0, qBatch = 0, inflight = 0;
    {
        std::lock_guard<std::mutex> lock(mu_);
        depth = queueDepthLocked();
        for (const auto &ac : admission_) {
            qInteractive += ac->depth(Priority::Interactive);
            qBatch += ac->depth(Priority::Batch);
            inflight += ac->inflight();
        }
    }
    json::Value r = json::Value::object();
    r.set("id", json::Value::string(id));
    r.set("type", json::Value::string("health"));
    r.set("status",
          json::Value::string(draining_.load() ? "draining" : "ok"));
    r.set("version", json::Value::string(versionLine()));
    r.set("uptime_ms", json::Value::number(nowMs() - startedAtMs_));
    r.set("queue_depth", count(depth));
    r.set("queue_capacity", count(queueCapacity_));

    json::Value reqs = json::Value::object();
    reqs.set("received", count(c.received));
    reqs.set("accepted", count(c.accepted));
    reqs.set("completed", count(c.completed));
    reqs.set("shed", count(c.shed));
    reqs.set("cancelled", count(c.cancelled));
    reqs.set("errors", count(c.errors));
    r.set("requests", std::move(reqs));

    // Admission state summed across shards: per-class depths and
    // in-flight, for `memoria top` and the overload soak's fairness
    // checks.
    json::Value adm = json::Value::object();
    adm.set("queued_interactive", count(qInteractive));
    adm.set("queued_batch", count(qBatch));
    adm.set("inflight", count(inflight));
    healthFields(r, adm);
    r.set("admission", std::move(adm));

    // Admitted-but-unanswered requests found by the journal replay:
    // what the previous incarnation owed its clients.
    if (!recovery_.empty()) {
        json::Value rec = json::Value::object();
        rec.set("journal_replayed", json::Value::boolean(true));
        rec.set("unanswered", count(recovery_.size()));
        json::Value arr = json::Value::array();
        constexpr size_t kMaxListed = 16;
        for (size_t i = 0; i < recovery_.size() && i < kMaxListed; ++i) {
            const JournalEntry &e = recovery_[i];
            json::Value o = json::Value::object();
            o.set("seq", count(e.seq));
            o.set("id", json::Value::string(e.id));
            o.set("kind", json::Value::string(e.kind));
            o.set("shard", json::Value::number(int64_t{e.shard}));
            arr.push(std::move(o));
        }
        rec.set("entries", std::move(arr));
        r.set("recovery", std::move(rec));
    }
    return r.dump();
}

std::string
Front::statsLine(const std::string &id) const
{
    auto [name, state] = stateBlock();
    return "{\"id\":" + json::quote(id) + ",\"type\":\"stats\"," +
           json::quote(name) + ":" + state.dump() +
           ",\"registry\":" + registryDumpJson() + "}";
}

std::string
Front::metricsLine(const std::string &id) const
{
    auto [name, state] = stateBlock();
    return "{\"id\":" + json::quote(id) + ",\"type\":\"metrics\"" +
           ",\"ts_ms\":" + std::to_string(wallMs()) +
           ",\"uptime_ms\":" + std::to_string(nowMs() - startedAtMs_) +
           ",\"queue_depth\":" + std::to_string(queueDepth()) +
           ",\"queue_capacity\":" + std::to_string(queueCapacity_) +
           ",\"draining\":" + (draining_.load() ? "true" : "false") +
           "," + json::quote(name) + ":" + state.dump() +
           ",\"registry\":" + registryDumpJson() +
           ",\"exposition\":" + json::quote(obs::prometheusText()) + "}";
}

} // namespace serve
} // namespace memoria

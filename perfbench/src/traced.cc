/**
 * @file
 * The traced run: per-layer metrics.
 *
 * The same inputs go through each layer's public function, called by
 * the benchmark with a span around every call (the program itself is
 * not instrumented). Layer self time is a span's duration minus what
 * its child spans cover. Work counters come from the program's own
 * obs counters and `runBatch` outcomes, read around an untraced pass.
 * The decomposition runs traced and untraced in alternation; the
 * difference is the tracing overhead.
 *
 * The dependence memo is thread_local, and `runBatch` works on new
 * threads plus the calling one, so in a one-shot batch run every
 * worker starts with an empty memo. So every decomposition pass runs
 * on new threads too: as many as `runBatch` has workers for the pipeline
 * calls, and one more for the standalone dependence and model spans,
 * so that their memo entries never turn Compound's lookups into hits.
 */

#include <algorithm>
#include <exception>
#include <iostream>
#include <map>
#include <thread>

#include "bench.hh"
#include "cachesim/sweep.hh"
#include "check/equiv.hh"
#include "check/validate.hh"
#include "dependence/graph.hh"
#include "frontend/parser.hh"
#include "interp/interp.hh"
#include "ir/walk.hh"
#include "model/loopcost.hh"
#include "serve/cache.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "support/json.hh"
#include "support/stats.hh"
#include "transform/compound.hh"

namespace perfbench {

using namespace memoria;

namespace {

/** Traced (and as many untraced) decomposition passes per run. */
constexpr int kTracedPasses = 5;

/** The pipeline layers, in report order; a span belongs to the layer
 *  its name starts with. Spans of no layer (`program`, `bench.*`) are
 *  the benchmark's own glue. */
const char *const kLayers[] = {"frontend", "check",     "dependence",
                               "model",    "transform", "interp",
                               "cachesim"};

/** Work the decomposition counted in its traced passes. */
struct Counts
{
    uint64_t nestsChanged = 0;
    uint64_t equivRuns = 0;
    uint64_t equivCompared = 0;
    uint64_t interpIterations = 0;
    uint64_t sweptAccesses = 0;
    /** Per cache of simCaches(), over the transformed programs. */
    uint64_t finalAccesses[2] = {0, 0};
    uint64_t finalMisses[2] = {0, 0};
};

/** Keeps every access record of one run, for a later sweep. */
class Recorder final : public AccessBatchSink
{
  public:
    void
    consumeBatch(const AccessRecord *rec, size_t n) override
    {
        records.insert(records.end(), rec, rec + n);
    }
    std::vector<AccessRecord> records;
};

/** The equivalence protocol Compound's verification guard uses. */
EquivOptions
guardEquivOptions()
{
    EquivOptions eo;
    eo.sizes = {7, 0};
    eo.stopAfterConclusiveSize = true;
    return eo;
}

/** Run `f` on a new thread and wait for it, so it starts with empty
 *  thread_local memos as a `runBatch` worker does. Exceptions are
 *  passed on to the caller. */
template <class F>
void
onNewThread(F &&f)
{
    std::exception_ptr err;
    std::thread th([&] {
        try {
            f();
        } catch (...) {
            err = std::current_exception();
        }
    });
    th.join();
    if (err)
        std::rethrow_exception(err);
}

/** One program through every pipeline layer's public function, in
 *  pipeline order; the loaded program is left in `prog`. Programs are
 *  generated inputs, so a failure here is a bug. */
void
decompose(const BatchProgram &p, const BatchWorkload &w, Tracer &t,
          uint64_t id, Counts &c, Program &prog)
{
    Span root(t, "program", id);
    if (!p.source.empty()) {
        Span s(t, "frontend.parse", id);
        std::optional<Program> parsed = parseProgram(p.source);
        if (!parsed)
            throw std::runtime_error(p.input.name + ": does not parse");
        prog = std::move(*parsed);
    } else {
        Result<Program> loaded = p.input.load();
        if (!loaded.ok())
            throw std::runtime_error(p.input.name + ": does not load");
        prog = std::move(loaded.value());
    }
    {
        Span s(t, "check.validate", id);
        if (!validateProgram(prog).empty())
            throw std::runtime_error(p.input.name + ": does not validate");
    }
    Program transformed = prog.clone();
    {
        Span s(t, "transform.compound", id);
        CompoundOptions co;
        co.verify = false;
        CompoundResult cr =
            compoundTransform(transformed, w.options.params, co);
        for (const NestReport &nr : cr.nests)
            if (nr.usedPermutation || nr.usedFusion ||
                nr.usedDistribution || nr.usedReversal)
                ++c.nestsChanged;
    }
    {
        Span s(t, "check.equiv", id);
        EquivResult er =
            checkEquivalence(prog, transformed, guardEquivOptions());
        c.equivRuns += er.comparedRuns + er.skippedRuns;
        c.equivCompared += er.comparedRuns;
    }
    if (!w.options.simulate)
        return;
    for (const Program *version : {&prog, &transformed}) {
        {
            Span s(t, "interp.run", id);
            Interpreter in(*version);
            if (!in.run(nullptr).ok())
                throw std::runtime_error(p.input.name + ": faults");
            c.interpIterations += in.stats().loopIterations;
        }
        Recorder rec;
        {
            Span s(t, "bench.record", id);
            Interpreter in(*version);
            in.runBatched(&rec);
        }
        {
            Span s(t, "cachesim.sweep", id);
            MultiCacheSim sim(simCaches());
            constexpr size_t kChunk = BatchingListener::kDefaultBatch;
            for (size_t i = 0; i < rec.records.size(); i += kChunk)
                sim.consumeBatch(rec.records.data() + i,
                                 std::min(kChunk, rec.records.size() - i));
            c.sweptAccesses += rec.records.size();
            if (version == &transformed)
                for (size_t k = 0; k < 2; ++k) {
                    c.finalAccesses[k] += sim.stats(k).accesses;
                    c.finalMisses[k] += sim.stats(k).misses;
                }
        }
    }
}

/** The standalone analysis of each depth>=2 nest of a loaded program:
 *  its dependence graph and its loop cost. */
void
analyse(const Program &prog, const BatchWorkload &w, Tracer &t,
        uint64_t id)
{
    Span root(t, "program", id);
    for (const NodePtr &n : prog.body) {
        if (!n->isLoop() || loopDepth(*n) < 2)
            continue;
        {
            Span s(t, "dependence.graph", id);
            DependenceGraph g(prog, collectStmts(n.get()));
        }
        {
            Span s(t, "model.nest_cost", id);
            NestAnalysis na(prog, n.get(), w.options.params);
            nestCost(na);
        }
    }
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Per-call self time and layer shares from the traced spans. */
struct SpanTable
{
    std::map<std::string, double> selfUs;
    std::map<std::string, uint64_t> calls;
    std::map<std::string, double> layerUs;
    double layerTotalUs = 0.0;

    explicit SpanTable(const Tracer &t)
    {
        const std::vector<double> self = t.selfTimesUs();
        for (size_t i = 0; i < self.size(); ++i) {
            const std::string name = t.records()[i].name;
            selfUs[name] += self[i];
            ++calls[name];
            for (const char *layer : kLayers)
                if (name.rfind(std::string(layer) + ".", 0) == 0) {
                    layerUs[layer] += self[i];
                    layerTotalUs += self[i];
                }
        }
    }

    double
    perCallUs(const std::string &name) const
    {
        auto it = calls.find(name);
        return it == calls.end() ? 0.0
                                 : selfUs.at(name) /
                                       static_cast<double>(it->second);
    }

    /** share.<layer> for every layer with spans. */
    void
    report(RunResult &res) const
    {
        for (const auto &[layer, us] : layerUs)
            res.set("share." + layer, ratio(us, layerTotalUs), "ratio");
    }
};

/** harness.* metrics from `runIsolated` outcomes. */
void
reportHarness(const std::vector<harness::ProgramOutcome> &outs,
              RunResult &res)
{
    std::vector<double> ms, overheadUs;
    double attempts = 0.0, rollbacks = 0.0;
    for (const harness::ProgramOutcome &p : outs) {
        ms.push_back(p.timeMs);
        const auto &t = p.timings;
        overheadUs.push_back(p.timeMs * 1000.0 -
                             (t.loadUs + t.optimizeUs + t.verifyUs +
                              t.simulateUs));
        attempts += p.attempts;
        for (const harness::NestOutcome &n : p.nests)
            rollbacks += n.rolledBack ? 1 : 0;
    }
    res.set("harness.program_ms_p50", quantile(ms, 0.5), "ms");
    res.set("harness.program_ms_p99", quantile(ms, 0.99), "ms");
    res.set("harness.overhead_us", median(overheadUs), "us");
    res.set("harness.attempts_per_program",
            ratio(attempts, static_cast<double>(outs.size())), "count");
    res.set("transform.rollbacks", rollbacks, "count");
}

/** The `dependence.memo.*` counters and `interp.runs`, read around a
 *  stretch of work on threads that have ended. */
struct CounterDelta
{
    uint64_t runs, memoHits, memoMisses;

    static CounterDelta
    now()
    {
        return {obs::counter("interp.runs").value(),
                obs::counter("dependence.memo.hits").value(),
                obs::counter("dependence.memo.misses").value()};
    }

    CounterDelta
    operator-(const CounterDelta &before) const
    {
        return {runs - before.runs, memoHits - before.memoHits,
                memoMisses - before.memoMisses};
    }

    CounterDelta &
    operator+=(const CounterDelta &d)
    {
        runs += d.runs;
        memoHits += d.memoHits;
        memoMisses += d.memoMisses;
        return *this;
    }

    double
    memoHitRatio() const
    {
        return ratio(static_cast<double>(memoHits),
                     static_cast<double>(memoHits + memoMisses));
    }
};

/** Request classes of the serve front, as the sender sees them. */
enum class PathClass
{
    Hit,       ///< repeat of an answered program
    Follower,  ///< duplicate sent while the original is in flight
    Cold,      ///< never-seen program
};

const char *
pathClassName(PathClass c)
{
    switch (c) {
      case PathClass::Hit:
        return "hit";
      case PathClass::Follower:
        return "follower";
      case PathClass::Cold:
        return "cold";
    }
    return "?";
}

/** One `compound` request; requests with the same key carry the same
 *  program. */
struct ServeRequest
{
    const std::string *program;
    uint64_t key;
};

std::string
requestLine(const ServeRequest &r, uint64_t id)
{
    return "{\"id\":\"r" + std::to_string(id) +
           "\",\"kind\":\"compound\",\"program\":" + json::quote(*r.program) +
           "}";
}

/** The serve front as a sequence of public calls, per request, with the
 *  server's default cache and budget and the workload's geometries. */
class ServeDecomposition
{
  public:
    explicit ServeDecomposition(Tracer &t)
        : t_(t), cache_(serve::CacheOptions{}),
          digest_(serve::serveConfigDigest(ModelParams{}, simCaches()))
    {
    }

    /** The request's front half: parse, key, cache lookup. */
    struct Pending
    {
        uint64_t id = 0;
        serve::Request req;
        serve::ResultCache::Ticket ticket;
        bool simulate = false;
    };

    Pending
    front(uint64_t id, const std::string &line)
    {
        Span root(t_, "request", id);
        Pending p;
        p.id = id;
        {
            Span s(t_, "serve.parse_request", id);
            Result<serve::Request> r = serve::parseRequest(line);
            if (!r.ok())
                throw std::runtime_error("request does not parse");
            p.req = r.value();
        }
        p.simulate = p.req.kind == serve::RequestKind::Simulate;
        std::string key;
        {
            Span s(t_, "serve.cache_key", id);
            key = serve::resultCacheKey(p.req.program,
                                        serve::requestKindName(p.req.kind),
                                        p.simulate, 0, digest_);
        }
        {
            Span s(t_, "serve.cache_begin", id);
            p.ticket = cache_.begin(key);
        }
        return p;
    }

    /** The back half: compute and publish, replay, or wait. */
    void
    finish(Pending &p)
    {
        Span root(t_, "request", p.id);
        using Role = serve::ResultCache::Role;
        if (p.ticket.role == Role::Follower) {
            Span s(t_, "serve.cache_wait", p.id);
            if (cache_.wait(p.ticket, 2000) !=
                serve::ResultCache::WaitOutcome::Value)
                throw std::runtime_error("follower was not answered");
        }
        if (p.ticket.role != Role::Leader) {
            Span s(t_, "serve.render", p.id);
            serve::cachedResultResponse(p.ticket.body, p.req.id, {},
                                        p.ticket.role == Role::Follower);
            return;
        }
        harness::BatchOptions bo;
        bo.budget = serve::ServeOptions{}.budget;
        bo.cacheConfigs = simCaches();
        bo.simulate = p.simulate;
        harness::ProgramOutcome out;
        {
            Span s(t_, "harness.run_isolated", p.id);
            out = harness::runIsolated(
                harness::namedInput("req-" + p.req.id, p.req.program), bo);
        }
        std::string body;
        {
            Span s(t_, "serve.render", p.id);
            body = serve::resultResponse("", out, false, "", {});
            serve::resultResponse(p.req.id, out, false, "", {});
        }
        {
            Span s(t_, "serve.cache_publish", p.id);
            cache_.publish(p.ticket, body);
        }
    }

  private:
    Tracer &t_;
    serve::ResultCache cache_;
    std::string digest_;
};

/** Send `reqs` through a new cache, recording into `t`. A request whose
 *  successor repeats its key while it is new is a follower pair; the
 *  pair overlaps as in the server (the copy looks its key up while the
 *  original computes). Returns each request's class. */
std::vector<PathClass>
servePass(const std::vector<ServeRequest> &reqs, Tracer &t)
{
    ServeDecomposition d(t);
    std::vector<PathClass> roles(reqs.size());
    for (size_t i = 0; i < reqs.size(); ++i) {
        auto p = d.front(i, requestLine(reqs[i], i));
        if (i + 1 < reqs.size() && reqs[i + 1].key == reqs[i].key &&
            p.ticket.role == serve::ResultCache::Role::Leader) {
            auto dup = d.front(i + 1, requestLine(reqs[i + 1], i + 1));
            d.finish(p);
            d.finish(dup);
            roles[i] = PathClass::Cold;
            roles[i + 1] = PathClass::Follower;
            ++i;
            continue;
        }
        roles[i] = p.ticket.role == serve::ResultCache::Role::Hit
                       ? PathClass::Hit
                       : PathClass::Cold;
        d.finish(p);
    }
    return roles;
}

/** serve.* front metrics from `passes` traced servePass runs: mean self
 *  time per call, and layer self time per hit request. Prints the path
 *  mix to stderr. */
void
reportServeFront(const Tracer &t, const std::vector<PathClass> &roles,
                 int passes, RunResult &res)
{
    const SpanTable spans(t);
    res.set("serve.parse_request_us", spans.perCallUs("serve.parse_request"),
            "us");
    res.set("serve.cache_key_us", spans.perCallUs("serve.cache_key"), "us");
    res.set("serve.cache_begin_us", spans.perCallUs("serve.cache_begin"),
            "us");
    res.set("serve.render_us", spans.perCallUs("serve.render"), "us");

    const std::vector<double> self = t.selfTimesUs();
    std::map<PathClass, double> pathUs, pathServeUs, requests;
    for (size_t i = 0; i < self.size(); ++i) {
        const Tracer::Record &r = t.records()[i];
        if (r.parent < 0)
            continue;
        const PathClass c = roles[r.requestId];
        pathUs[c] += self[i];
        if (std::string(r.name).rfind("serve.", 0) == 0)
            pathServeUs[c] += self[i];
    }
    for (PathClass c : roles)
        requests[c] += 1.0;
    res.set("serve.hit_path_us",
            ratio(pathUs[PathClass::Hit], requests[PathClass::Hit] * passes),
            "us");
    for (PathClass c :
         {PathClass::Hit, PathClass::Follower, PathClass::Cold})
        std::cerr << "perfbench: " << pathClassName(c) << " share "
                  << ratio(requests[c], static_cast<double>(roles.size()))
                  << ", serve layers "
                  << ratio(pathServeUs[c], pathUs[c]) << " of its time\n";
}

} // namespace

RunResult
tracedBatch(const BatchWorkload &w, const Options &opts)
{
    RunResult res;
    const std::vector<harness::BatchInput> inputs = batchInputs(w);

    // Untraced pipeline passes: the first, whose workers start with
    // empty memos as in a one-shot batch run, for the counters; the
    // second for the harness's own per-program outcomes.
    const CounterDelta before = CounterDelta::now();
    harness::runBatch(inputs, w.options);
    const CounterDelta batch = CounterDelta::now() - before;
    res.set("interp.passes", static_cast<double>(batch.runs), "count");
    res.set("dependence.memo_hit_ratio", batch.memoHitRatio(), "ratio");
    const harness::BatchReport rep = harness::runBatch(inputs, w.options);
    for (const harness::ProgramOutcome &p : rep.programs)
        if (p.contained())
            res.fail(p.name + ": " + harness::batchStatusName(p.status));
    res.attempted = rep.programs.size();
    res.failed = static_cast<uint64_t>(rep.containedCount());
    reportHarness(rep.programs, res);

    // Decomposition: warm, then traced and untraced in alternation.
    // Each pass deals the programs out to `jobs` new threads, which run
    // the pipeline calls one thread after another (spans nest on one
    // thread at a time), so each memo sees the share of the programs a
    // `runBatch` worker sees; then a last new thread runs the
    // standalone nest analysis.
    const size_t jobs = static_cast<size_t>(std::max(1, w.options.jobs));
    Tracer traced(true), untraced(false);
    Counts counts, ignored;
    CounterDelta tracedMemo{0, 0, 0};
    auto pass = [&](Tracer &t, Counts &c) {
        const auto t0 = Clock::now();
        std::vector<Program> progs(w.programs.size());
        const CounterDelta memo0 = CounterDelta::now();
        for (size_t j = 0; j < jobs; ++j)
            onNewThread([&] {
                for (size_t i = j; i < w.programs.size(); i += jobs)
                    decompose(w.programs[i], w, t, i, c, progs[i]);
            });
        if (t.enabled())
            tracedMemo += CounterDelta::now() - memo0;
        onNewThread([&] {
            for (size_t i = 0; i < progs.size(); ++i)
                analyse(progs[i], w, t, i);
        });
        return secondsSince(t0);
    };
    pass(untraced, ignored);
    std::vector<double> tracedS, untracedS;
    for (int k = 0; k < kTracedPasses; ++k) {
        tracedS.push_back(pass(traced, counts));
        untracedS.push_back(pass(untraced, ignored));
    }

    const SpanTable spans(traced);
    spans.report(res);
    const double passes = kTracedPasses;
    res.set("dependence.memo_hit_ratio_traced", tracedMemo.memoHitRatio(),
            "ratio");
    res.set("frontend.parse_us", spans.perCallUs("frontend.parse"), "us");
    res.set("check.validate_us", spans.perCallUs("check.validate"), "us");
    res.set("dependence.graph_us", spans.perCallUs("dependence.graph"),
            "us");
    res.set("model.nest_cost_us", spans.perCallUs("model.nest_cost"), "us");
    res.set("transform.compound_us", spans.perCallUs("transform.compound"),
            "us");
    res.set("transform.nests_changed", counts.nestsChanged / passes,
            "count");
    res.set("check.equiv_us", spans.perCallUs("check.equiv"), "us");
    res.set("check.equiv_runs", counts.equivRuns / passes, "count");
    res.set("check.equiv_compared_ratio",
            ratio(counts.equivCompared, counts.equivRuns), "ratio");
    if (w.options.simulate) {
        res.set("interp.run_us", spans.perCallUs("interp.run"), "us");
        res.set("interp.ns_per_iteration",
                ratio(spans.selfUs.at("interp.run") * 1000.0,
                      counts.interpIterations),
                "ns");
        res.set("cachesim.sweep_us", spans.perCallUs("cachesim.sweep"),
                "us");
        res.set("cachesim.ns_per_access",
                ratio(spans.selfUs.at("cachesim.sweep") * 1000.0,
                      counts.sweptAccesses),
                "ns");
        res.set("cachesim.miss_ratio.i860",
                ratio(counts.finalMisses[0], counts.finalAccesses[0]),
                "ratio");
        res.set("cachesim.miss_ratio.rs6000",
                ratio(counts.finalMisses[1], counts.finalAccesses[1]),
                "ratio");
    }
    res.set("trace.overhead_ratio",
            median(tracedS) / median(untracedS) - 1.0, "ratio");
    if (!opts.traceOut.empty() && !traced.writeJsonl(opts.traceOut))
        std::cerr << "perfbench: cannot write " << opts.traceOut << "\n";

    // The serve front on this workload's `.mem` programs, as compound
    // requests: each sent cold (every tenth as a follower pair) and
    // repeated, as a hit, after the next one. Each pass runs on a new
    // thread with a new cache. Its spans stay out of the layer shares
    // above, which describe the batch pipeline.
    std::vector<ServeRequest> reqs;
    std::vector<const std::string *> texts;
    for (const BatchProgram &p : w.programs)
        if (!p.source.empty())
            texts.push_back(&p.source);
    for (uint64_t i = 0; i < texts.size(); ++i) {
        reqs.push_back({texts[i], i});
        if (i % 10 == 0)
            reqs.push_back({texts[i], i});
        if (i > 0)
            reqs.push_back({texts[i - 1], i - 1});
    }
    if (!reqs.empty()) {
        Tracer front(true);
        std::vector<PathClass> roles;
        for (int k = 0; k < kTracedPasses; ++k)
            onNewThread([&] { roles = servePass(reqs, front); });
        reportServeFront(front, roles, kTracedPasses, res);
    }
    return res;
}

} // namespace perfbench

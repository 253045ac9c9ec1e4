/**
 * @file
 * Single-sweep multi-configuration cache simulation.
 *
 * The paper's Table 4 evaluates every program against two cache
 * geometries; the batch driver and the compile service re-simulate the
 * same access stream per configuration. This layer consumes the
 * reference stream **once** and feeds N set-associative caches in
 * lockstep, plus an optional reuse-distance analyzer that
 * answers hit rates for *all* fully-associative capacities from the
 * same pass (cachesim/reuse.hh; cf. Fauzia et al., "Beyond Reuse
 * Distance Analysis").
 *
 * Accesses arrive in batches (AccessBatchSink) rather than one virtual
 * call per reference — the only way the interpreter delivers its
 * access stream. It fills a fixed buffer and flushes it in chunks, so
 * the per-access cost inside the simulator is a plain array walk.
 * Each per-config cache is the ordinary `Cache`, which is what makes
 * the sweep's counters bitwise-identical to standalone per-config
 * simulations (asserted in tests/test_cachesim.cc against a recorded
 * stream fed one Cache::access at a time).
 *
 * Probing is not cheap next to interpretation: on the sim_large
 * benchmark (i860 + RS/6000) the two caches take 0.57 of pipeline time
 * to the interpreter's 0.42, about 13 ns per access, even with
 * `Cache`'s flat MRU-ordered tag arrays and cold-line bitmap
 * (cachesim/cache.hh). So a sweep is pipelined: PipelinedSweep copies
 * each batch into a small ring and a second thread probes it while the
 * interpreter fills the next one. Given a spare core for that thread,
 * a sweep's time drops from interp + cachesim to about the larger of
 * the two; with none (every core already runs a worker) the sweep runs
 * on the calling thread alone, as before. The caches see
 * the same records in the same order, so every counter is unchanged.
 * MultiCacheSim itself stays synchronous; tryRunWithCaches
 * (interp/interp.hh) is the pipelined path. Numbers in
 * docs/PERFORMANCE.md.
 */

#ifndef MEMORIA_CACHESIM_SWEEP_HH
#define MEMORIA_CACHESIM_SWEEP_HH

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "cachesim/cache.hh"
#include "cachesim/reuse.hh"

namespace memoria {

/** One scalar memory access, as buffered by the interpreter. */
struct AccessRecord
{
    uint64_t addr = 0;
    uint32_t size = 0;
    bool isWrite = false;
};

/** Consumer of batched access records. */
class AccessBatchSink
{
  public:
    virtual ~AccessBatchSink() = default;

    /** Consume `n` records; called repeatedly over the stream. */
    virtual void consumeBatch(const AccessRecord *rec, size_t n) = 0;
};

/**
 * Buffers accesses into a fixed-capacity array and flushes it to an
 * AccessBatchSink in chunks; the tree-walking interpreter appends
 * through it (the tape fills its own buffer). The producer pays one
 * append per access and one virtual call per batch; the buffer is
 * allocated once up front, never per access.
 */
class BatchingListener final
{
  public:
    static constexpr size_t kDefaultBatch = 4096;

    explicit BatchingListener(AccessBatchSink &sink,
                              size_t capacity = kDefaultBatch);

    void
    access(uint64_t addr, int size, bool isWrite)
    {
        buf_.push_back({addr, static_cast<uint32_t>(size), isWrite});
        if (buf_.size() == capacity_)
            flush();
    }

    /** Drain the buffer. Callers must flush after the final access
     *  (Interpreter::run does). Safe on an empty buffer. */
    void flush();

  private:
    AccessBatchSink &sink_;
    size_t capacity_;
    std::vector<AccessRecord> buf_;
};

/** Optional reuse-distance mode for a MultiCacheSim sweep. */
struct SweepReuseOptions
{
    bool enabled = false;
    int lineBytes = 32;
};

/**
 * N set-associative caches advanced in lockstep over one access
 * stream, with an optional reuse-distance histogram sharing the pass.
 */
class MultiCacheSim final : public AccessBatchSink
{
  public:
    explicit MultiCacheSim(const std::vector<CacheConfig> &configs,
                           SweepReuseOptions reuse = {});

    void consumeBatch(const AccessRecord *rec, size_t n) override;

    size_t configCount() const { return caches_.size(); }
    const Cache &cache(size_t i) const { return caches_[i]; }
    const CacheStats &stats(size_t i) const
    {
        return caches_[i].stats();
    }

    /** Null unless reuse mode was enabled. */
    const ReuseDistanceAnalyzer *reuse() const { return reuse_.get(); }

    /** Empty every cache and the analyzer; zero all statistics. */
    void reset();

  private:
    std::vector<Cache> caches_;
    SweepReuseOptions reuseOpts_;
    std::unique_ptr<ReuseDistanceAnalyzer> reuse_;
};

/**
 * Runs a sink on a second thread: the producer (the interpreter)
 * hands batches in, they are copied into a ring of kSlots batch-sized
 * slots, and one consumer thread feeds them to `downstream` in stream
 * order. The producer pays a 16-byte copy per access.
 *
 * The consumer starts on the first full batch, and only on a spare
 * core (cores::tryClaimCore, support/cores.hh): on a saturated worker
 * pool the second thread has nothing to overlap with. Without a spare
 * core, or if the thread cannot be made, and for a stream shorter than
 * one batch, the calling thread consumes the whole stream itself.
 *
 * Call drain() before reading the downstream sink's results; it
 * rethrows anything the consumer threw. The destructor without a drain
 * (a CancelledError unwinding past the sweep) drops the queued
 * batches, and any consumer error with them, and joins the consumer.
 *
 * `downstream` must not allocate on its steady path: each thread that
 * mallocs gets its own glibc arena, which keeps the memory after the
 * thread exits (Cache reserves its cold-line bitmap up front for this
 * reason; docs/PERFORMANCE.md).
 */
class PipelinedSweep final : public AccessBatchSink
{
  public:
    explicit PipelinedSweep(AccessBatchSink &downstream);
    ~PipelinedSweep() override;

    PipelinedSweep(const PipelinedSweep &) = delete;
    PipelinedSweep &operator=(const PipelinedSweep &) = delete;

    void consumeBatch(const AccessRecord *rec, size_t n) override;

    /** Wait until every batch handed in has been consumed, then join
     *  the consumer. Safe to call when no consumer was started. */
    void drain();

  private:
    static constexpr size_t kSlots = 4;
    static constexpr size_t kSlotRecords = BatchingListener::kDefaultBatch;

    /** Start the consumer if a core is spare; else stay inline. */
    void start();
    void push(const AccessRecord *rec, size_t n);
    void consumerLoop();
    /** Join the consumer (after closing_ or stopping_ is set), give
     *  its core back and publish the wait counters. */
    void join();

    AccessBatchSink &downstream_;
    bool decided_ = false;  ///< a full batch arrived; start() has run
    /** kSlots x kSlotRecords. A slot is written only by the producer
     *  before head_ passes it, and read only by the consumer before
     *  tail_ passes it. */
    std::vector<AccessRecord> ring_;
    size_t slotLen_[kSlots] = {};
    std::exception_ptr error_;  ///< consumer's; read after the join

    std::mutex mu_;  ///< guards the fields below
    /** Batches pushed / consumed so far; the ring holds head_ - tail_. */
    uint64_t head_ = 0;
    uint64_t tail_ = 0;
    bool closing_ = false;   ///< no more batches; consume the rest
    bool stopping_ = false;  ///< drop the rest
    uint64_t producerWaits_ = 0;
    uint64_t consumerWaits_ = 0;
    std::condition_variable notFull_;
    std::condition_variable notEmpty_;

    std::thread consumer_;  ///< last: uses every member above
};

} // namespace memoria

#endif // MEMORIA_CACHESIM_SWEEP_HH

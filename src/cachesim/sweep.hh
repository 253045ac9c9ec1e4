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
 * (cachesim/cache.hh; numbers in docs/PERFORMANCE.md).
 */

#ifndef MEMORIA_CACHESIM_SWEEP_HH
#define MEMORIA_CACHESIM_SWEEP_HH

#include <cstdint>
#include <memory>
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

} // namespace memoria

#endif // MEMORIA_CACHESIM_SWEEP_HH

#include "cachesim/sweep.hh"

#include <algorithm>

#include "support/cores.hh"
#include "support/logging.hh"
#include "support/stats.hh"

namespace memoria {

BatchingListener::BatchingListener(AccessBatchSink &sink, size_t capacity)
    : sink_(sink), capacity_(capacity ? capacity : 1)
{
    buf_.reserve(capacity_);
}

void
BatchingListener::flush()
{
    if (buf_.empty())
        return;
    sink_.consumeBatch(buf_.data(), buf_.size());
    buf_.clear();
}

MultiCacheSim::MultiCacheSim(const std::vector<CacheConfig> &configs,
                             SweepReuseOptions reuse)
    : reuseOpts_(reuse)
{
    caches_.reserve(configs.size());
    for (const CacheConfig &c : configs)
        caches_.emplace_back(c);
    if (reuseOpts_.enabled)
        reuse_ = std::make_unique<ReuseDistanceAnalyzer>(
            reuseOpts_.lineBytes);
}

void
MultiCacheSim::consumeBatch(const AccessRecord *rec, size_t n)
{
    // Config-major over the batch: each cache's set array stays hot
    // while it walks the records, instead of being reloaded per access.
    for (Cache &c : caches_)
        for (size_t i = 0; i < n; ++i)
            c.probe(rec[i].addr);
    if (reuse_)
        for (size_t i = 0; i < n; ++i)
            reuse_->access(rec[i].addr, static_cast<int>(rec[i].size),
                           rec[i].isWrite);
    static obs::Counter &cBatches = obs::counter("cachesim.sweep.batches");
    ++cBatches;
}

void
MultiCacheSim::reset()
{
    for (Cache &c : caches_)
        c.reset();
    // ReuseDistanceAnalyzer has no reset; rebuild with the same
    // geometry (line size is its only construction parameter).
    if (reuse_)
        reuse_ = std::make_unique<ReuseDistanceAnalyzer>(
            reuseOpts_.lineBytes);
}

PipelinedSweep::PipelinedSweep(AccessBatchSink &downstream)
    : downstream_(downstream)
{
}

PipelinedSweep::~PipelinedSweep()
{
    if (!consumer_.joinable())
        return;
    {
        std::lock_guard<std::mutex> lk(mu_);
        stopping_ = true;
    }
    notEmpty_.notify_one();
    join();
}

void
PipelinedSweep::consumeBatch(const AccessRecord *rec, size_t n)
{
    MEMORIA_ASSERT(!closing_, "PipelinedSweep: batch after drain");
    if (!decided_ && n >= kSlotRecords) {
        decided_ = true;
        start();
    }
    if (!consumer_.joinable()) {
        downstream_.consumeBatch(rec, n);
        return;
    }
    for (size_t i = 0; i < n; i += kSlotRecords)
        push(rec + i, std::min(kSlotRecords, n - i));
}

void
PipelinedSweep::start()
{
    static obs::Counter &cInline = obs::counter("cachesim.pipeline.inline");
    if (!cores::tryClaimCore()) {
        ++cInline;
        return;
    }
    try {
        ring_.resize(kSlots * kSlotRecords);
        consumer_ = std::thread([this] { consumerLoop(); });
    } catch (const std::exception &) {
        // No ring or no thread to be had (out of memory, a pid or
        // thread limit): the calling thread consumes the whole stream,
        // as without a spare core.
        cores::releaseCore();
        ++cInline;
    }
}

void
PipelinedSweep::push(const AccessRecord *rec, size_t n)
{
    {
        std::unique_lock<std::mutex> lk(mu_);
        if (head_ - tail_ == kSlots) {
            ++producerWaits_;
            notFull_.wait(lk, [this] { return head_ - tail_ < kSlots; });
        }
    }
    // The slot at head_ is free and only the producer writes it until
    // head_ advances past it.
    const size_t slot = head_ % kSlots;
    std::copy(rec, rec + n, ring_.data() + slot * kSlotRecords);
    slotLen_[slot] = n;
    {
        std::lock_guard<std::mutex> lk(mu_);
        ++head_;
    }
    notEmpty_.notify_one();
}

void
PipelinedSweep::consumerLoop()
{
    for (;;) {
        size_t slot;
        {
            std::unique_lock<std::mutex> lk(mu_);
            if (head_ == tail_ && !closing_ && !stopping_) {
                ++consumerWaits_;
                notEmpty_.wait(lk, [this] {
                    return head_ != tail_ || closing_ || stopping_;
                });
            }
            if (stopping_ || head_ == tail_)
                return;
            slot = tail_ % kSlots;
        }
        // After a throw, keep freeing slots so the producer never
        // blocks on a dead consumer; drain() rethrows.
        if (!error_) {
            try {
                downstream_.consumeBatch(ring_.data() + slot * kSlotRecords,
                                         slotLen_[slot]);
            } catch (...) {
                error_ = std::current_exception();
            }
        }
        {
            std::lock_guard<std::mutex> lk(mu_);
            ++tail_;
        }
        notFull_.notify_one();
    }
}

void
PipelinedSweep::drain()
{
    if (!consumer_.joinable())
        return;
    {
        std::lock_guard<std::mutex> lk(mu_);
        closing_ = true;
    }
    notEmpty_.notify_one();
    join();
    if (error_)
        std::rethrow_exception(error_);
}

void
PipelinedSweep::join()
{
    consumer_.join();
    cores::releaseCore();
    static obs::Counter &cConsumers =
        obs::counter("cachesim.pipeline.consumers");
    static obs::Counter &cProducerWaits =
        obs::counter("cachesim.pipeline.producer_waits");
    static obs::Counter &cConsumerWaits =
        obs::counter("cachesim.pipeline.consumer_waits");
    ++cConsumers;
    cProducerWaits += producerWaits_;
    cConsumerWaits += consumerWaits_;
}

} // namespace memoria

/**
 * @file
 * Test helper: an AccessBatchSink that keeps the whole access-record
 * stream, so tests can replay it one access at a time into standalone
 * reference models or compare two streams record by record.
 */

#ifndef MEMORIA_TESTS_RECORDING_SINK_HH
#define MEMORIA_TESTS_RECORDING_SINK_HH

#include <vector>

#include "cachesim/sweep.hh"

namespace memoria {

class RecordingSink final : public AccessBatchSink
{
  public:
    void
    consumeBatch(const AccessRecord *rec, size_t n) override
    {
        records.insert(records.end(), rec, rec + n);
    }

    std::vector<AccessRecord> records;
};

} // namespace memoria

#endif // MEMORIA_TESTS_RECORDING_SINK_HH

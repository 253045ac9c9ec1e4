#include "support/cores.hh"

#include <algorithm>
#include <atomic>
#include <thread>

namespace memoria {
namespace cores {

namespace {

/** Busy threads plus claimed cores. */
std::atomic<int> gInUse{0};
/** BusyScope nesting depth of this thread. */
thread_local int tDepth = 0;

int
available()
{
    static const int n =
        std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
    return n;
}

} // namespace

BusyScope::BusyScope()
{
    if (tDepth++ == 0)
        gInUse.fetch_add(1, std::memory_order_relaxed);
}

BusyScope::~BusyScope()
{
    if (--tDepth == 0)
        gInUse.fetch_sub(1, std::memory_order_relaxed);
}

bool
tryClaimCore()
{
    const int self = tDepth == 0 ? 1 : 0;
    int used = gInUse.load(std::memory_order_relaxed);
    while (used + self + 1 <= available()) {
        if (gInUse.compare_exchange_weak(used, used + 1,
                                         std::memory_order_relaxed))
            return true;
    }
    return false;
}

void
releaseCore()
{
    gInUse.fetch_sub(1, std::memory_order_relaxed);
}

} // namespace cores
} // namespace memoria

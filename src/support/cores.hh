/**
 * @file
 * A process-wide ledger of busy threads, so that an optional helper
 * thread starts only on a core no worker is using.
 *
 * The pipelined cache sweep (cachesim/sweep.hh) gains from its second
 * thread only when that thread has a core to itself: on a saturated
 * pool (`memoria batch` at jobs = cores) it would add a copy per access
 * and a thread per sweep for no overlap. Worker pools therefore hold a
 * BusyScope on each thread while it works, and a helper asks
 * tryClaimCore() first. A claim succeeds while busy threads plus
 * claimed cores stay below std::thread::hardware_concurrency(); a
 * caller that holds no BusyScope counts as one busy thread itself.
 *
 * The ledger sees this process only: shard workers behind
 * `memoria serve --workers N` each keep their own.
 */

#ifndef MEMORIA_SUPPORT_CORES_HH
#define MEMORIA_SUPPORT_CORES_HH

namespace memoria {
namespace cores {

/** Counts the calling thread as busy while alive. Nested scopes on one
 *  thread count it once. */
class BusyScope
{
  public:
    BusyScope();
    ~BusyScope();

    BusyScope(const BusyScope &) = delete;
    BusyScope &operator=(const BusyScope &) = delete;
};

/** Claim a spare core for a helper thread; false if none is spare.
 *  A successful claim is given back with releaseCore(). */
bool tryClaimCore();

/** Give back a core claimed by tryClaimCore(). */
void releaseCore();

} // namespace cores
} // namespace memoria

#endif // MEMORIA_SUPPORT_CORES_HH

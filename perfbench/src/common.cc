#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>

#include "bench.hh"
#include "support/json.hh"

namespace perfbench {

void
RunResult::fail(const std::string &what)
{
    correct = false;
    if (problems.size() < 20)
        problems.push_back(what);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    if (std::isinf(v[hi]))
        return frac > 0.0 ? v[hi] : v[lo];
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
peakRssMb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

uint64_t
mix(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

int
Tracer::open(const char *name, uint64_t requestId)
{
    const int parent = stack_.empty() ? -1 : stack_.back();
    records_.push_back({name, usSince(t0_), 0.0, parent, requestId});
    const int index = static_cast<int>(records_.size() - 1);
    stack_.push_back(index);
    return index;
}

void
Tracer::close(int index)
{
    records_[index].endUs = usSince(t0_);
    stack_.pop_back();
}

std::vector<double>
Tracer::selfTimesUs() const
{
    // Spans nest on one thread, so children are disjoint and lie
    // inside their parent: covered time is the sum of their durations.
    std::vector<double> self(records_.size());
    for (size_t i = 0; i < records_.size(); ++i)
        self[i] = records_[i].endUs - records_[i].startUs;
    for (const Record &r : records_)
        if (r.parent >= 0)
            self[r.parent] -= r.endUs - r.startUs;
    return self;
}

bool
Tracer::writeJsonl(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    for (const Record &r : records_) {
        memoria::json::Value v = memoria::json::Value::object();
        v.set("name", memoria::json::Value::string(r.name));
        v.set("start_us", memoria::json::Value::number(r.startUs));
        v.set("end_us", memoria::json::Value::number(r.endUs));
        v.set("parent", memoria::json::Value::number(int64_t{r.parent}));
        v.set("request", memoria::json::Value::number(
                             static_cast<int64_t>(r.requestId)));
        out << v.dump() << "\n";
    }
    return static_cast<bool>(out);
}

} // namespace perfbench

#include "comet/tp/interconnect.h"

#include <algorithm>
#include <limits>
#include <set>

#include "comet/common/status.h"

namespace comet {
namespace tp {

const char *
collectiveAlgoName(CollectiveAlgo algo)
{
    switch (algo) {
      case CollectiveAlgo::kRing: return "ring";
      case CollectiveAlgo::kDirect: return "direct";
    }
    return "?";
}

InterconnectModel::InterconnectModel(const GpuSpec &spec)
    : bandwidth_(spec.nvlink_bandwidth),
      latency_us_(spec.nvlink_latency_us)
{
    COMET_CHECK_MSG(bandwidth_ > 0.0,
                    "interconnect model needs a positive link "
                    "bandwidth");
    COMET_CHECK(latency_us_ >= 0.0);
}

double
InterconnectModel::ringAllReduceUs(double bytes, int degree) const
{
    COMET_CHECK(bytes >= 0.0 && degree >= 1);
    if (degree == 1)
        return 0.0;
    const double n = static_cast<double>(degree);
    // Reduce-scatter + all-gather: 2*(N-1) hops of bytes/N each.
    const double wire_bytes = 2.0 * (n - 1.0) / n * bytes;
    return wire_bytes / bandwidth_ * 1e6 +
           2.0 * (n - 1.0) * latency_us_;
}

double
InterconnectModel::ringAllReduceUs(
    double bytes, const std::vector<int> &ring_order) const
{
    const int degree = static_cast<int>(ring_order.size());
    COMET_CHECK(degree >= 1);
    const std::set<int> distinct(ring_order.begin(), ring_order.end());
    COMET_CHECK_MSG(static_cast<int>(distinct.size()) == degree &&
                        *distinct.begin() == 0 &&
                        *distinct.rbegin() == degree - 1,
                    "ring order must be a permutation of 0..N-1");
    // Clique of identical links: every ring ordering costs the same.
    return ringAllReduceUs(bytes, degree);
}

double
InterconnectModel::directAllReduceUs(double bytes, int degree) const
{
    COMET_CHECK(bytes >= 0.0 && degree >= 1);
    if (degree == 1)
        return 0.0;
    const double n = static_cast<double>(degree);
    // One exchange round: each device serializes its full partial to
    // the N-1 peers through its own link.
    return (n - 1.0) * bytes / bandwidth_ * 1e6 + latency_us_;
}

double
InterconnectModel::allReduceUs(double bytes, int degree) const
{
    return std::min(ringAllReduceUs(bytes, degree),
                    directAllReduceUs(bytes, degree));
}

CollectiveAlgo
InterconnectModel::chooseAllReduce(double bytes, int degree) const
{
    return ringAllReduceUs(bytes, degree) <
                   directAllReduceUs(bytes, degree)
               ? CollectiveAlgo::kRing
               : CollectiveAlgo::kDirect;
}

double
InterconnectModel::ringAllGatherUs(double bytes_per_rank,
                                   int degree) const
{
    COMET_CHECK(bytes_per_rank >= 0.0 && degree >= 1);
    if (degree == 1)
        return 0.0;
    const double n = static_cast<double>(degree);
    return (n - 1.0) * bytes_per_rank / bandwidth_ * 1e6 +
           (n - 1.0) * latency_us_;
}

double
InterconnectModel::directAllGatherUs(double bytes_per_rank,
                                     int degree) const
{
    COMET_CHECK(bytes_per_rank >= 0.0 && degree >= 1);
    if (degree == 1)
        return 0.0;
    const double n = static_cast<double>(degree);
    return (n - 1.0) * bytes_per_rank / bandwidth_ * 1e6 +
           latency_us_;
}

double
InterconnectModel::allGatherUs(double bytes_per_rank,
                               int degree) const
{
    return std::min(ringAllGatherUs(bytes_per_rank, degree),
                    directAllGatherUs(bytes_per_rank, degree));
}

double
InterconnectModel::ringDirectCrossoverBytes(int degree) const
{
    COMET_CHECK(degree >= 1);
    if (degree <= 2)
        return std::numeric_limits<double>::infinity();
    const double n = static_cast<double>(degree);
    // Solve ring(B) == direct(B):
    //   2(N-1)/N * B/bw + 2(N-1)L == (N-1) * B/bw + L
    // => B = L * (2N-3) * bw * N / ((N-1)(N-2)), with L in seconds
    //    worth of the 1e6 scaling folded back out.
    return latency_us_ * (2.0 * n - 3.0) * bandwidth_ * n /
           ((n - 1.0) * (n - 2.0) * 1e6);
}

double
layerAllReduceUs(const GpuSpec &spec, int64_t tokens, int64_t hidden,
                 int degree)
{
    const double tensor_bytes =
        static_cast<double>(tokens) * static_cast<double>(hidden) * 2.0;
    return 2.0 * InterconnectModel(spec).allReduceUs(tensor_bytes, degree);
}

} // namespace tp
} // namespace comet

// The benchmark's own checks. Exit status 0 when all pass.
//
//   * the same seed replays the same op streams, another seed does not;
//   * the percentile rule on samples with known answers;
//   * a deliberately corrupted expected value is counted as a failed op,
//     never silently passed, on every workload that verifies reads.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common.hpp"
#include "opstream.hpp"
#include "workloads.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

using namespace perfbench;

std::vector<DhtStep> dht_stream(std::uint64_t seed, int rank, int lane, int n) {
  DhtLane l(seed, rank, lane, 64);
  std::vector<DhtStep> v;
  for (int i = 0; i < n; ++i) v.push_back(l.next());
  return v;
}

bool same(const std::vector<DhtStep>& a, const std::vector<DhtStep>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].op != b[i].op || a[i].key != b[i].key || a[i].len != b[i].len ||
        a[i].version != b[i].version)
      return false;
  return true;
}

void test_op_streams() {
  const auto a = dht_stream(7, 0, 3, 20000);
  check(same(a, dht_stream(7, 0, 3, 20000)), "dht: same seed, same op stream");
  check(!same(a, dht_stream(8, 0, 3, 20000)), "dht: other seed, other stream");
  check(!same(a, dht_stream(7, 1, 3, 20000)), "dht: other rank, other stream");

  // Every op class occurs, keys never repeat across clients, and the model
  // never finds or erases a key it has not inserted.
  int counts[4] = {0, 0, 0, 0};
  for (const auto& s : a) ++counts[static_cast<int>(s.op)];
  check(counts[0] && counts[1] && counts[2] && counts[3],
        "dht: insert, find, update and erase all occur");
  std::vector<std::uint64_t> keys;
  for (int r = 0; r < 2; ++r)
    for (int l = 0; l < 4; ++l)
      for (const auto& s : dht_stream(7, r, l, 5000))
        if (s.op == DhtOp::kInsert) keys.push_back(s.key);
  std::sort(keys.begin(), keys.end());
  check(std::adjacent_find(keys.begin(), keys.end()) == keys.end(),
        "dht: inserted keys are distinct across ranks and lanes");

  const Pattern pat(7, 1 << 20);
  const DhtStep s = a[0];
  const std::string v = dht_value(s, pat);
  check(v.size() == s.len && dht_value_ok(v, s, pat), "dht: value verifies");
  DhtStep stale = s;
  ++stale.version;
  check(!dht_value_ok(v, stale, pat), "dht: stale version is rejected");
  check(dht_key(0x0123456789abcdefULL) == "0123456789abcdef", "dht: hex key");

  BulkLane b1(5, 1, 2), b2(5, 1, 2), b3(6, 1, 2);
  bool eq = true, differs = false, bounds = true, alternates = true;
  bool expect_put = true;
  for (int i = 0; i < 10000; ++i) {
    const BulkStep x = b1.next(), y = b2.next(), z = b3.next();
    eq &= x.is_put == y.is_put && x.len == y.len && x.off == y.off;
    differs |= x.len != z.len || x.off != z.off;
    bounds &= x.len >= kBulkMin && x.len <= kBulkMax && x.len % 64 == 0 &&
              x.off + kBulkMax + 64 <= kBulkPatternBytes;
    alternates &= x.is_put == expect_put;
    expect_put = !expect_put;
  }
  check(eq, "bulk_am: same seed, same op stream");
  check(differs, "bulk_am: other seed, other stream");
  check(bounds, "bulk_am: sizes in [4 KiB, 1 MiB], windows inside the pattern");
  check(alternates, "bulk_am: puts and gets alternate");

  InjectLane i1(9, 0), i2(9, 0), i3(9, 1);
  eq = true;
  differs = false;
  for (int i = 0; i < 10000; ++i) {
    const InjectStep x = i1.next(), y = i2.next(), z = i3.next();
    eq &= x.op == y.op && x.off == y.off;
    differs |= x.op != z.op || x.off != z.off;
  }
  check(eq, "inject: same seed, same op stream");
  check(differs, "inject: other thread, other stream");
}

void test_percentiles() {
  std::vector<int> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  check(near(percentile(v, 50), 50.5), "p50 of 1..100 is 50.5");
  check(near(percentile(v, 99), 99.01), "p99 of 1..100 is 99.01");
  check(near(percentile(v, 0), 1) && near(percentile(v, 100), 100),
        "p0 and p100 are the extremes");
  std::vector<int> one{42};
  check(near(percentile(one, 50), 42) && near(percentile(one, 99), 42),
        "a single sample is every percentile");
  std::vector<int> odd{5, 1, 3};
  check(near(median(odd), 3), "median of {5,1,3} is 3");
  std::vector<int> none;
  check(near(percentile(none, 50), 0), "empty sample gives 0");
}

void test_corruption_counts_as_failure() {
  for (const char* w : {"dht", "dht_socket", "bulk_am", "inject"}) {
    RunParams p;
    p.workload = w;
    p.seed = 3;
    p.seconds = 0.2;
    p.setup_reps = 0;
    p.slices = 2;
    const RunResult clean = run_workload(p);
    check(clean.correct && clean.failed == 0 && clean.attempted > 0,
          std::string(w) + ": clean run verifies every op");
    p.corrupt_every = 5;
    const RunResult bad = run_workload(p);
    check(!bad.correct && bad.corrupted > 0 && bad.failed == bad.corrupted &&
              bad.failed < bad.attempted,
          std::string(w) + ": every corrupted expected value counts as a "
              "failed op (" + std::to_string(bad.failed) + " failed, " +
              std::to_string(bad.corrupted) + " corrupted, " +
              std::to_string(bad.attempted) + " attempted)");
  }
}

}  // namespace

int main() {
  test_op_streams();
  test_percentiles();
  test_corruption_counts_as_failure();
  std::printf("%d failure(s)\n", g_failures);
  return g_failures ? 1 : 0;
}

// Self-tests of the benchmark's own logic (core.h): the percentile rule
// and its sample counts, ratio bases, seeded request sequences and the
// correctness gate. Run with `python3 perfbench/run.py --selftest`; exits
// non-zero on the first failed check.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

std::vector<double> OneTo(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

void PercentileRule() {
  using perfbench::TakePercentile;
  Check(perfbench::MinSamplesFor(99) == 1000, "p99 needs 1000 samples");
  Check(perfbench::MinSamplesFor(90) == 100, "p90 needs 100 samples");
  Check(perfbench::MinSamplesFor(75) == 40, "p75 needs 40 samples");
  Check(perfbench::MinSamplesFor(50) == 20, "p50 needs 20 samples");

  const perfbench::Percentile p99 = TakePercentile(OneTo(1000), 99);
  Check(p99.value == 990 && p99.samples == 1000 && p99.beyond == 10 && p99.resolved,
        "p99 of 1..1000 is 990 with 10 samples beyond, resolved");
  const perfbench::Percentile short99 = TakePercentile(OneTo(999), 99);
  Check(short99.samples == 999 && short99.beyond == 9 && !short99.resolved,
        "p99 of 999 samples is reported unresolved with its count");
  const perfbench::Percentile p90 = TakePercentile(OneTo(100), 90);
  Check(p90.value == 90 && p90.beyond == 10 && p90.resolved, "p90 of 1..100 is 90");
  const perfbench::Percentile p50 = TakePercentile({3, 1, 2}, 50);
  Check(p50.value == 2 && p50.samples == 3 && !p50.resolved,
        "p50 of 3 samples is the middle one, unresolved");
  const perfbench::Percentile none = TakePercentile({}, 99);
  Check(none.samples == 0 && none.value == 0 && !none.resolved,
        "no samples: value 0, unresolved");
  Check(perfbench::Median({4, 1, 3, 2}) == 2.5 && perfbench::Median({5, 1, 3}) == 3,
        "median of even and odd counts");
}

void RatioBases() {
  const perfbench::Ratio hits{9, 10};
  Check(hits.value() == 0.9, "9 hits of 10 lookups is 0.9");
  const perfbench::Ratio empty{0, 0};
  Check(empty.value() == 0 && empty.base == 0, "a ratio over an empty base is 0, base kept");
  const perfbench::Ratio all{7, 7};
  Check(all.value() == 1, "every attempt useful is 1");
}

void SeededSequence() {
  const auto a = perfbench::RequestSequence(42, 17, 1000);
  const auto b = perfbench::RequestSequence(42, 17, 1000);
  const auto c = perfbench::RequestSequence(43, 17, 1000);
  bool same = a.size() == b.size();
  bool differs = false;
  for (std::size_t i = 0; same && i < a.size(); ++i) {
    same = a[i].sweep == b[i].sweep && a[i].cell == b[i].cell;
    differs = differs || a[i].sweep != c[i].sweep || a[i].cell != c[i].cell;
  }
  Check(same, "the same seed produces the same request sequence");
  Check(differs, "another seed produces another sequence");

  std::size_t sweeps = 0;
  std::vector<std::size_t> per_cell(17, 0);
  bool in_range = true;
  for (const auto& r : a) {
    if (r.sweep) {
      ++sweeps;
    } else if (r.cell < per_cell.size()) {
      ++per_cell[r.cell];
    } else {
      in_range = false;
    }
  }
  Check(sweeps == 100, "exactly one full sweep per block of ten");
  std::size_t lo = per_cell[0];
  std::size_t hi = per_cell[0];
  for (std::size_t n : per_cell) {
    lo = std::min(lo, n);
    hi = std::max(hi, n);
  }
  Check(in_range && hi - lo <= 1, "single cells are dealt evenly across keys");
}

std::string Response(const std::string& status, const std::string& digest) {
  return "{\"schema\":\"dsa-serve/1\",\"status\":\"" + status +
         "\",\"cells\":[{\"job\":\"A@neon-dsa\",\"cell_status\":\"ok\",\"cached\":true,"
         "\"cycles\":100,\"output_digest\":\"" + digest + "\"}]}";
}

void CorrectnessGate() {
  using perfbench::CheckCell;
  using perfbench::Verdict;
  const perfbench::Reference ref = {{"A@neon-dsa", {100, 0xabcdef}}};
  Check(CheckCell(ref, "A@neon-dsa", "ok", 100, 0xabcdef) == Verdict::kOk,
        "a bit-identical cell passes");
  Check(CheckCell(ref, "A@neon-dsa", "ok", 100, 0xabcdee) == Verdict::kMismatch,
        "a digest mismatch is caught");
  Check(CheckCell(ref, "A@neon-dsa", "ok", 101, 0xabcdef) == Verdict::kMismatch,
        "a cycles mismatch is caught");
  Check(CheckCell(ref, "A@neon-dsa", "faulted", 100, 0xabcdef) == Verdict::kStatus,
        "a cell_status other than ok fails");
  Check(CheckCell(ref, "B@neon-dsa", "ok", 1, 1) == Verdict::kUnknownCell,
        "a cell the reference lacks fails");

  perfbench::Tally tally;
  const perfbench::ResponseCheck good =
      perfbench::CheckResponse(ref, Response("ok", "0x0000000000abcdef"));
  tally.Record(good.ok(), good.first_problem);
  const perfbench::ResponseCheck planted =
      perfbench::CheckResponse(ref, Response("ok", "0x0000000000abcdee"));
  tally.Record(planted.ok(), planted.first_problem);
  const perfbench::ResponseCheck refused = perfbench::CheckResponse(
      ref, "{\"status\":\"overload\",\"error\":\"overload: queue full\",\"cells\":[]}");
  tally.Record(refused.ok(), "refused: " + refused.status);
  Check(good.ok() && good.cells_ok == 1, "a matching response passes");
  Check(!planted.ok() && planted.first_problem == "A@neon-dsa: mismatch",
        "a planted digest mismatch fails its request");
  Check(!refused.ok(), "an admission refusal fails its request");
  Check(tally.attempted == 3 && tally.failed == 2 &&
            tally.first_problem == "A@neon-dsa: mismatch",
        "the tally counts the planted mismatch and the refusal as failed");
  Check(!perfbench::CheckResponse(ref, "not json").ok(), "an unparseable response fails");
}

}  // namespace

int main() {
  PercentileRule();
  RatioBases();
  SeededSequence();
  CorrectnessGate();
  std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}

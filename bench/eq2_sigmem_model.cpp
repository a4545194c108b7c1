// Eq. 2 reproduction: the signature-memory size model vs the actual
// allocations of the implementation.
//
// Paper (Section V.A.2): SigMem(n,t) = n(4 + -t ln(FPRate) / (8 ln^2 2));
// with n = 10^7, t = 32, FPRate = 0.001 "around 580MB could be sufficient to
// perform the analysis for any program with moderate input sizes".
//
// The bench sweeps (n, t, FPRate), prints the model, and for tractable n
// instantiates the real signatures and checks their bytes against the model.
// The check is exact: the signatures must hold n * (4 + 8W) bytes, W =
// bloom_params(t, p).bits / 64 — the Eq. 2 layout with the bloom rounded up
// to whole 64-bit words. The process exits 1 otherwise (registered as a
// ctest).
#include "bench_common.hpp"

#include <array>

#include "sigmem/read_signature.hpp"
#include "sigmem/size_model.hpp"
#include "sigmem/write_signature.hpp"

namespace cs = commscope::support;
namespace sg = commscope::sigmem;

int main() {
  std::cout << "=== Eq. 2: SigMem(n, t) = n(4 + -t*ln(p)/(8*ln^2 2)) ===\n\n";

  cs::Table model_table({"slots n", "threads t", "FPRate p", "write bytes",
                         "read bytes", "total", "note"});
  struct Point {
    std::size_t n;
    int t;
    double p;
    const char* note;
  };
  const std::array<Point, 7> points{{{1'000'000, 32, 0.001, ""},
                                     {4'000'000, 32, 0.001, ""},
                                     {10'000'000, 32, 0.001,
                                      "paper's ~580MB reference"},
                                     {100'000'000, 32, 0.001, ""},
                                     {10'000'000, 8, 0.001, "fewer threads"},
                                     {10'000'000, 64, 0.001, "more threads"},
                                     {10'000'000, 32, 0.01, "looser FPR"}}};
  for (const Point& pt : points) {
    const sg::SigMemModel m = sg::sigmem_model(pt.n, pt.t, pt.p);
    model_table.add_row(
        {std::to_string(pt.n), std::to_string(pt.t), cs::Table::num(pt.p, 4),
         cs::Table::bytes(static_cast<std::uint64_t>(m.write_bytes)),
         cs::Table::bytes(static_cast<std::uint64_t>(m.read_bytes)),
         cs::Table::bytes(static_cast<std::uint64_t>(m.total())), pt.note});
  }
  model_table.print(std::cout);

  // Check the model against the actual allocations at tractable n. The
  // footprint is fixed at construction, so nothing needs to be inserted.
  std::cout << "\nModel vs implementation:\n";
  cs::Table impl_table({"slots n", "threads t", "model total", "actual bytes",
                        "n(4+8W)", "actual/model"});
  bool exact = true;
  for (const std::size_t n : {std::size_t{4096}, std::size_t{65536},
                              std::size_t{100'000}}) {
    for (const int t : {4, 8, 32}) {
      const double p = 0.001;
      sg::WriteSignature ws(n);
      sg::ReadSignature rs(n, t, p);
      const std::size_t words =
          cs::bloom_params(static_cast<std::size_t>(t), p).bits / 64;
      const std::size_t expected = n * (4 + 8 * words);
      const std::size_t actual = ws.byte_size() + rs.byte_size();
      exact &= actual == expected;
      const double model = sg::sigmem_model(n, t, p).total();
      impl_table.add_row(
          {std::to_string(n), std::to_string(t),
           cs::Table::bytes(static_cast<std::uint64_t>(model)),
           std::to_string(actual), std::to_string(expected),
           cs::Table::num(static_cast<double>(actual) / model, 3)});
    }
  }
  impl_table.print(std::cout);
  std::cout << "\nThe read signature stores each slot's bloom filter inline, "
               "so the only gap to the model is rounding: Eq. 2 charges "
               "-t*ln(p)/ln^2(2) bits per slot, the implementation rounds "
               "that up to whole 64-bit words (t=4: 57.5 -> 64 bits, t=8: "
               "115 -> 128, t=32: 460 -> 512).\n";
  if (!exact) {
    std::cout << "FAIL: actual bytes differ from n(4+8W)\n";
    return 1;
  }
  return 0;
}

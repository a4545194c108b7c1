// Trace record/replay tests — including the methodology payoff: one recorded
// workload trace replayed through every profiler yields exactly comparable
// matrices.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <sstream>
#include <string>

#include "baseline/ipm_profiler.hpp"
#include "baseline/shadow_profiler.hpp"
#include "core/profiler.hpp"
#include "instrument/trace.hpp"
#include "support/textio.hpp"
#include "threading/thread_pool.hpp"
#include "workloads/workload.hpp"

namespace cb = commscope::baseline;
namespace cc = commscope::core;
namespace ci = commscope::instrument;
namespace ct = commscope::threading;
namespace cw = commscope::workloads;
namespace cs = commscope::support;

TEST(TraceRecorder, CapturesAllEventKindsInOrder) {
  ci::TraceRecorder rec;
  rec.on_thread_begin(2);
  rec.on_loop_enter(2, 7);
  rec.on_access(2, 0x1000, 8, ci::AccessKind::kWrite);
  rec.on_access(3, 0x1000, 8, ci::AccessKind::kRead);
  rec.on_loop_exit(2);
  ASSERT_EQ(rec.size(), 5u);
  EXPECT_EQ(rec.events()[0].kind, ci::TraceEvent::Kind::kThreadBegin);
  EXPECT_EQ(rec.events()[1].payload, 7u);
  EXPECT_EQ(rec.events()[2].access,
            static_cast<std::uint8_t>(ci::AccessKind::kWrite));
  EXPECT_EQ(rec.events()[3].tid, 3);
  EXPECT_EQ(rec.events()[4].kind, ci::TraceEvent::Kind::kLoopExit);
  EXPECT_EQ(rec.byte_size(), 5 * sizeof(ci::TraceEvent));
}

TEST(TraceReplay, ReproducesProfileExactly) {
  // Record a live 4-thread run once, then replay into a fresh profiler: the
  // replayed matrix must be a valid profile (and two replays must agree
  // bit-for-bit — replay is deterministic even though recording wasn't).
  ci::TraceRecorder rec;
  ct::ThreadTeam team(4);
  ASSERT_TRUE(cw::find("fft")->run(cw::Scale::kDev, team, &rec).ok);

  cc::ProfilerOptions o;
  o.max_threads = 4;
  o.backend = cc::Backend::kExact;
  auto a = std::make_unique<cc::Profiler>(o);
  auto b = std::make_unique<cc::Profiler>(o);
  ci::replay(rec.events(), *a);
  ci::replay(rec.events(), *b);
  EXPECT_EQ(a->communication_matrix(), b->communication_matrix());
  EXPECT_GT(a->communication_matrix().total(), 0u);
}

TEST(TraceReplay, AllProfilersAgreeOnOneTrace) {
  // The cross-profiler methodology: identical input stream => the exact
  // profiler, shadow memory and the IPM replay must produce the *same*
  // matrix (8-byte-element workload so shadow word granularity is exact).
  ci::TraceRecorder rec;
  ct::ThreadTeam team(4);
  ASSERT_TRUE(cw::find("ocean_cp")->run(cw::Scale::kDev, team, &rec).ok);

  cc::ProfilerOptions o;
  o.max_threads = 4;
  o.backend = cc::Backend::kExact;
  auto exact = std::make_unique<cc::Profiler>(o);
  cb::ShadowProfiler shadow(4);
  cb::IpmProfiler ipm(4);
  ci::replay(rec.events(), *exact);
  ci::replay(rec.events(), shadow);
  ci::replay(rec.events(), ipm);

  const cc::Matrix reference = exact->communication_matrix();
  EXPECT_GT(reference.total(), 0u);
  EXPECT_EQ(ipm.communication_matrix(), reference);
  // Shadow detects at 8-byte-word granularity; ocean's shared doubles are
  // word-aligned, but the barrier arrive flags are 1-byte cells that share a
  // word, so allow exactly that sliver of divergence.
  const auto shadow_total =
      static_cast<double>(shadow.communication_matrix().total());
  EXPECT_NEAR(shadow_total / static_cast<double>(reference.total()), 1.0,
              0.02);
}

TEST(TraceReplay, SignatureProfilerOnTraceMatchesExactWhenAmple) {
  ci::TraceRecorder rec;
  ct::ThreadTeam team(4);
  ASSERT_TRUE(cw::find("radix")->run(cw::Scale::kDev, team, &rec).ok);

  cc::ProfilerOptions exact_opt;
  exact_opt.max_threads = 4;
  exact_opt.backend = cc::Backend::kExact;
  auto exact = std::make_unique<cc::Profiler>(exact_opt);
  cc::ProfilerOptions sig_opt = exact_opt;
  sig_opt.backend = cc::Backend::kAsymmetricSignature;
  sig_opt.signature_slots = 1 << 22;
  sig_opt.fp_rate = 1e-9;
  auto sig = std::make_unique<cc::Profiler>(sig_opt);

  ci::replay(rec.events(), *exact);
  ci::replay(rec.events(), *sig);
  const auto te = static_cast<double>(exact->communication_matrix().total());
  const auto ts = static_cast<double>(sig->communication_matrix().total());
  ASSERT_GT(te, 0.0);
  EXPECT_NEAR(ts / te, 1.0, 0.02);
}

TEST(TraceIo, RoundTripPreservesEventsAndLoopLabels) {
  const ci::LoopId loop =
      ci::LoopRegistry::instance().declare("traceio", "hotloop");
  ci::TraceRecorder rec;
  rec.on_thread_begin(1);
  rec.on_loop_enter(1, loop);
  rec.on_access(1, 0xdeadbeef, 16, ci::AccessKind::kRead);
  rec.on_loop_exit(1);

  std::stringstream ss;
  ci::write_trace(ss, rec.events());
  const std::vector<ci::TraceEvent> loaded = ci::read_trace(ss);
  ASSERT_EQ(loaded.size(), rec.size());
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_EQ(loaded[i].kind, rec.events()[i].kind);
    EXPECT_EQ(loaded[i].access, rec.events()[i].access);
    EXPECT_EQ(loaded[i].tid, rec.events()[i].tid);
    EXPECT_EQ(loaded[i].size, rec.events()[i].size);
  }
  // Loop UIDs are remapped on load (they are process-local), but the label
  // must survive the round trip — that is what makes cross-process replay
  // reports readable.
  EXPECT_EQ(ci::LoopRegistry::instance().label(
                static_cast<ci::LoopId>(loaded[1].payload)),
            "traceio:hotloop");
  // Address payloads are never remapped.
  EXPECT_EQ(loaded[2].payload, 0xdeadbeefu);
}

TEST(TraceIo, RejectsMalformedInput) {
  std::stringstream bad_magic("nope 1\n0\n");
  EXPECT_THROW(ci::read_trace(bad_magic), std::runtime_error);
  std::stringstream bad_version("commscope-trace 9\n0\n");
  EXPECT_THROW(ci::read_trace(bad_version), std::runtime_error);
  std::stringstream truncated("commscope-trace 1\n2\n0 0 1 0 0\n");
  EXPECT_THROW(ci::read_trace(truncated), std::runtime_error);
  std::stringstream bad_kind("commscope-trace 1\n1\n9 0 1 0 0\n");
  EXPECT_THROW(ci::read_trace(bad_kind), std::runtime_error);
}

namespace {

std::string trace_file(const std::vector<ci::TraceEvent>& events) {
  std::stringstream ss;
  ci::write_trace(ss, events);
  return ss.str();
}

std::vector<ci::TraceEvent> load(const std::string& file) {
  std::stringstream ss(file);
  return ci::read_trace(ss);
}

/// Byte offset of the v3 event block: after the two header lines.
std::size_t block_offset(const std::string& file) {
  return file.find('\n', file.find('\n') + 1) + 1;
}

/// Recomputes the trailer of an edited v3 file, so a test reaches the check
/// behind the CRC.
std::string reforge(const std::string& file) {
  const std::size_t trailer = cs::crc_trailer(0).size();
  return cs::with_crc_trailer(file.substr(0, file.size() - trailer));
}

}  // namespace

TEST(TraceIo, V3RoundTripsEveryFieldOfEveryEvent) {
  const ci::LoopId loop =
      ci::LoopRegistry::instance().declare("traceio_v3", "edge");
  std::vector<ci::TraceEvent> events;
  using Kind = ci::TraceEvent::Kind;
  for (std::uint32_t i = 0; i < 300; ++i) {
    ci::TraceEvent e;
    e.kind = static_cast<Kind>(i % 4);
    e.access = static_cast<std::uint8_t>((i / 4) % 2);
    e.tid = static_cast<std::uint16_t>(i * 7919u);
    e.size = i * 2654435761u;
    e.payload = e.kind == Kind::kLoopEnter
                    ? loop
                    : 0x9e3779b97f4a7c15ull * (i + 1);
    events.push_back(e);
  }
  events.push_back({Kind::kAccess, 1, std::numeric_limits<std::uint16_t>::max(),
                    std::numeric_limits<std::uint32_t>::max(),
                    std::numeric_limits<std::uint64_t>::max()});

  const std::string file = trace_file(events);
  // Header lines, then exactly 16 bytes per event, then the loop table.
  EXPECT_EQ(file.rfind("commscope-trace 3\n301\n", 0), 0u);
  EXPECT_EQ(file.compare(block_offset(file) + 16 * events.size(), 8,
                         "loops 1\n"),
            0);

  const std::vector<ci::TraceEvent> loaded = load(file);
  ASSERT_EQ(loaded.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(loaded[i].kind, events[i].kind) << i;
    EXPECT_EQ(loaded[i].access, events[i].access) << i;
    EXPECT_EQ(loaded[i].tid, events[i].tid) << i;
    EXPECT_EQ(loaded[i].size, events[i].size) << i;
    if (events[i].kind == Kind::kLoopEnter) {
      EXPECT_EQ(ci::LoopRegistry::instance().label(
                    static_cast<ci::LoopId>(loaded[i].payload)),
                "traceio_v3:edge");
    } else {
      EXPECT_EQ(loaded[i].payload, events[i].payload) << i;
    }
  }
}

TEST(TraceIo, LoopLabelsWithSpacesRoundTrip) {
  // Labels are free text: spaces, a newline, and a "crc32 " that must not
  // be mistaken for the trailer.
  auto& reg = ci::LoopRegistry::instance();
  const ci::LoopId spaced = reg.declare("test_trace", "round trip");
  const ci::LoopId odd = reg.declare("two words", "line\ncrc32 00000000");
  ci::TraceRecorder rec;
  rec.on_loop_enter(0, spaced);
  rec.on_loop_exit(0);
  rec.on_loop_enter(1, odd);
  rec.on_loop_exit(1);
  const std::vector<ci::TraceEvent> loaded = load(trace_file(rec.events()));
  ASSERT_EQ(loaded.size(), 4u);
  EXPECT_EQ(reg.label(static_cast<ci::LoopId>(loaded[0].payload)),
            "test_trace:round trip");
  EXPECT_EQ(reg.label(static_cast<ci::LoopId>(loaded[2].payload)),
            "two words:line\ncrc32 00000000");
}

TEST(TraceIo, LegacyTextFormatsStillLoad) {
  // v1: no trailer. v2: the same text plus a CRC trailer. Both carry a
  // loop table whose UID 5 is remapped to a fresh local id.
  const std::string body =
      "4\n"
      "0 0 3 0 0\n"
      "1 0 3 0 5\n"
      "3 1 3 8 4096\n"
      "2 0 3 0 0\n"
      "loops 1\n"
      "5 legacy_fn legacy_loop\n";
  for (const std::string& file :
       {"commscope-trace 1\n" + body,
        cs::with_crc_trailer("commscope-trace 2\n" + body)}) {
    const std::vector<ci::TraceEvent> e = load(file);
    ASSERT_EQ(e.size(), 4u);
    EXPECT_EQ(e[0].kind, ci::TraceEvent::Kind::kThreadBegin);
    EXPECT_EQ(e[0].tid, 3);
    EXPECT_EQ(e[1].kind, ci::TraceEvent::Kind::kLoopEnter);
    EXPECT_EQ(ci::LoopRegistry::instance().label(
                  static_cast<ci::LoopId>(e[1].payload)),
              "legacy_fn:legacy_loop");
    EXPECT_EQ(e[2].kind, ci::TraceEvent::Kind::kAccess);
    EXPECT_EQ(e[2].access,
              static_cast<std::uint8_t>(ci::AccessKind::kWrite));
    EXPECT_EQ(e[2].size, 8u);
    EXPECT_EQ(e[2].payload, 4096u);
    EXPECT_EQ(e[3].kind, ci::TraceEvent::Kind::kLoopExit);
  }
  // A v2 file without its trailer is refused; a v1 file is not required to
  // have one.
  EXPECT_THROW(load("commscope-trace 2\n" + body), std::runtime_error);
}

TEST(TraceIo, RejectsOutOfRangeKindOrAccessBehindValidCrc) {
  ci::TraceRecorder rec;
  rec.on_thread_begin(0);
  rec.on_access(0, 0x40, 8, ci::AccessKind::kRead);
  const std::string file = trace_file(rec.events());
  ASSERT_EQ(load(reforge(file)).size(), 2u);
  const std::size_t second = block_offset(file) + 16;
  for (const auto& [at, value] :
       {std::pair{second, 4}, std::pair{second, 0xff},
        std::pair{second + 1, 2}, std::pair{second + 1, 0x80}}) {
    std::string bad = file;
    bad[at] = static_cast<char>(value);
    try {
      (void)load(reforge(bad));
      ADD_FAILURE() << "byte " << at << " = " << value << " accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("kind"), std::string::npos)
          << e.what();
    }
  }
}

TEST(TraceIo, RefusedFilesDeclareNoLoops) {
  auto& reg = ci::LoopRegistry::instance();
  ci::TraceRecorder rec;
  rec.on_loop_enter(0, reg.declare("traceio_refused", "a"));
  rec.on_access(0, 0x80, 4, ci::AccessKind::kWrite);
  rec.on_loop_exit(0);
  const std::string file = trace_file(rec.events());
  const std::size_t table = file.find("loops 1\n");
  ASSERT_NE(table, std::string::npos);

  std::vector<std::string> refused;
  std::string flipped = file;  // a payload bit in the block: CRC mismatch
  flipped[block_offset(file) + 16 + 8] ^= 0x01;
  refused.push_back(flipped);
  flipped = file;  // a byte of the loop name: CRC mismatch
  flipped[file.find("traceio_refused")] ^= 0x20;
  refused.push_back(flipped);
  // CRC-valid, but the table promises two loops and holds one.
  std::string two = file;
  two.replace(table, 8, "loops 2\n");
  refused.push_back(reforge(two));
  // CRC-valid, but bytes follow the loop table.
  std::string extra = file;
  extra.insert(file.size() - cs::crc_trailer(0).size(), "7 1 f 1 n\n");
  refused.push_back(reforge(extra));
  refused.push_back(file + "x");  // trailing data after the trailer

  for (const std::string& bad : refused) {
    const std::size_t before = reg.size();
    EXPECT_THROW((void)load(bad), std::runtime_error);
    EXPECT_EQ(reg.size(), before);
  }
}
